#include "core/em_vertexcentric.h"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "core/fixpoint.h"
#include "core/product_graph.h"
#include "vertexcentric/engine.h"

namespace gkeys {

namespace {

/// A message of procedure EvalVC: the partial injective mapping m from
/// pattern nodes to product-graph pairs, plus the walk position.
struct VcMessage {
  int key = 0;           // compiled-key index
  uint32_t origin = 0;   // candidate index being checked
  uint32_t pos = 0;      // tour steps taken so far
  // m: per pattern node, (side1, side2); kNoNode == ⊥.
  std::vector<std::pair<NodeId, NodeId>> m;
};

using VcEngine = vertexcentric::Engine<VcMessage>;

/// Shared state of one EMVC run.
struct VcRun {
  const EmContext& ctx;
  const ProductGraph& pg;
  // Run-time options: may differ from ctx.options() when executing a
  // compiled plan under a different algorithm configuration.
  const EmOptions& run_opts;
  // Eq, the logs, and one watch flag per candidate, set once it is
  // identified AND its dependents were notified.
  internal::FixpointRun& run;
  // §5.2 bounded messages: per (candidate, key-slot) fork budget used.
  std::vector<std::atomic<int>>& budget;
  int max_key_slots;
  std::atomic<uint64_t> inline_hops{0};  // non-forked (sequential) hops

  const EmOptions& opts() const { return run_opts; }
  const Graph& g() const { return ctx.graph(); }

  int BudgetSlot(uint32_t origin, int key) const {
    const Candidate& c = ctx.candidates()[origin];
    for (int s = 0; s < static_cast<int>(c.keys->size()); ++s) {
      if ((*c.keys)[s] == key) return origin * max_key_slots + s;
    }
    return origin * max_key_slots;
  }

  /// Builds the initial message(s) for candidate `idx` (one per key) and
  /// hands each to send(vertex, message).
  template <typename Send>
  void Seed(uint32_t idx, Send&& send) {
    const Candidate& c = ctx.candidates()[idx];
    uint32_t vertex = pg.CandidateNode(idx);
    if (vertex == kNoPNode) return;  // unpairable: not identifiable
    for (int ki : *c.keys) {
      const CompiledKey& ck = ctx.compiled_keys()[ki];
      if (!ck.cp.matchable) continue;
      if (opts().bounded_messages > 0) {
        budget[BudgetSlot(idx, ki)].store(1, std::memory_order_relaxed);
      }
      VcMessage msg;
      msg.key = ki;
      msg.origin = idx;
      msg.pos = 0;
      msg.m.assign(ck.cp.nodes.size(), {kNoNode, kNoNode});
      msg.m[ck.cp.designated] = {c.e1, c.e2};
      send(vertex, std::move(msg));
    }
  }

  /// Marks the message's origin candidate identified, merges Eq, and
  /// re-seeds dependents whose recursive keys may now fire ("increment
  /// messages", §5.1 (6)). `msg` is the verified message: its mapping m IS
  /// the witness, so provenance is recorded here. The record goes into the
  /// log before the Union so any later derivation whose premise reads this
  /// merge finds this record already ahead of it in the replay order.
  void MarkIdentified(VcEngine::Context& vctx, const VcMessage& msg) {
    uint32_t idx = msg.origin;
    if (!run.MarkDone(idx)) return;
    const Candidate& c = ctx.candidates()[idx];
    run.Record(c, msg.key, msg.m);
    run.Merge(c.e1, c.e2);
    for (uint32_t dep : ctx.dependents(idx)) {
      if (run.done(dep)) continue;
      Seed(dep, [&](uint32_t vertex, VcMessage&& m) {
        vctx.Send(vertex, std::move(m));
      });
    }
  }

  /// EvalMR feasibility conditions at product node (s1, s2) for pattern
  /// node `q` of key `ck` given partial mapping `m` (paper §4.1/§5.1 (4)).
  bool Feasible(const CompiledKey& ck, const VcMessage& msg, int q,
                NodeId s1, NodeId s2) const {
    const Graph& gr = g();
    const Candidate& c = ctx.candidates()[msg.origin];
    const CompiledNode& pn = ck.cp.nodes[q];
    switch (pn.kind) {
      case VarKind::kDesignated:
        return false;
      case VarKind::kEntityVar:
        if (!gr.IsEntity(s1) || !gr.IsEntity(s2)) return false;
        if (gr.entity_type(s1) != pn.type || gr.entity_type(s2) != pn.type) {
          return false;
        }
        if (!run.eq().Same(s1, s2)) return false;
        break;
      case VarKind::kValueVar:
        if (!gr.IsValue(s1) || s1 != s2) return false;
        break;
      case VarKind::kWildcard:
        if (!gr.IsEntity(s1) || !gr.IsEntity(s2)) return false;
        if (gr.entity_type(s1) != pn.type || gr.entity_type(s2) != pn.type) {
          return false;
        }
        break;
      case VarKind::kConstant:
        if (s1 != pn.constant_node || s2 != pn.constant_node) return false;
        break;
    }
    if (!c.nbr1->Contains(s1) || !c.nbr2->Contains(s2)) return false;
    // Injective per side.
    for (const auto& [a, b] : msg.m) {
      if (a == s1 && a != kNoNode) return false;
      if (b == s2 && b != kNoNode) return false;
    }
    // Guided expansion: every pattern triple between q and an
    // instantiated node must be realized on both sides.
    for (int t : ck.cp.incident[q]) {
      const CompiledTriple& ct = ck.cp.triples[t];
      int other = ct.subject == q ? ct.object : ct.subject;
      NodeId a1, a2, b1, b2;
      if (other == q) {
        a1 = s1; b1 = s1; a2 = s2; b2 = s2;
      } else if (ct.subject == q) {
        if (msg.m[other].first == kNoNode) continue;
        a1 = s1; a2 = s2;
        b1 = msg.m[other].first; b2 = msg.m[other].second;
      } else {
        if (msg.m[other].first == kNoNode) continue;
        a1 = msg.m[other].first; a2 = msg.m[other].second;
        b1 = s1; b2 = s2;
      }
      if (!gr.HasTriple(a1, ct.pred, b1)) return false;
      if (!gr.HasTriple(a2, ct.pred, b2)) return false;
    }
    return true;
  }

  /// Processes the arrival of `msg` at product node `vertex`. Returns true
  /// iff the origin pair was identified somewhere in this call's subtree
  /// (meaningful for the sequential/backtracking mode).
  bool Process(VcEngine::Context& vctx, uint32_t vertex, VcMessage&& msg) {
    // Early cancellation (§5.1 (2)).
    if (run.done(msg.origin)) return true;
    const CompiledKey& ck = ctx.compiled_keys()[msg.key];
    const auto& tour = ck.tour;
    auto [s1, s2] = pg.pair(vertex);

    if (msg.pos > 0) {
      // This hop instantiates (or revisits) tour[pos-1].to_node.
      int q = tour[msg.pos - 1].to_node;
      if (msg.m[q].first == kNoNode) {
        if (!Feasible(ck, msg, q, s1, s2)) return false;  // drop / backtrack
        msg.m[q] = {s1, s2};
      }
      // Revisit of an instantiated node: equality holds by construction
      // (direct sends target the exact product node of m[q]).
    }

    // Verification (§5.1 (3)): the walk is complete and ended at x.
    if (msg.pos == tour.size()) {
      MarkIdentified(vctx, msg);
      return true;
    }

    // Guided propagation (§5.1 (5)) along the next tour step.
    const TourStep& next = tour[msg.pos];
    int target = next.to_node;
    Symbol pred = ck.cp.triples[next.triple].pred;
    if (msg.m[target].first != kNoNode) {
      // Already instantiated: send the message straight back to it.
      uint32_t dst = pg.Find(msg.m[target].first, msg.m[target].second);
      if (dst == kNoPNode) return false;
      msg.pos += 1;
      // A deterministic single continuation: process inline to avoid a
      // queue round-trip (identical semantics, fewer messages).
      inline_hops.fetch_add(1, std::memory_order_relaxed);
      return Process(vctx, dst, std::move(msg));
    }

    // Fork a copy per eligible neighbor of this vertex: its run of the
    // hop's predicate.
    const auto edges =
        next.forward ? pg.Out(vertex, pred) : pg.In(vertex, pred);
    if (edges.empty()) return false;
    struct Target {
      uint32_t potential;
      uint32_t vertex;
    };
    std::vector<Target> targets;
    targets.reserve(edges.size());
    for (const auto& e : edges) targets.push_back({0, e.dst});

    if (opts().prioritized && targets.size() > 1 &&
        msg.pos + 1 < tour.size()) {
      // §5.2: highest potential first — the count of the candidate's edges
      // matching the *next* hop, taken once per target.
      const TourStep& after = tour[msg.pos + 1];
      Symbol next_pred = ck.cp.triples[after.triple].pred;
      for (Target& t : targets) {
        t.potential = after.forward ? pg.OutCount(t.vertex, next_pred)
                                    : pg.InCount(t.vertex, next_pred);
      }
      std::stable_sort(targets.begin(), targets.end(),
                       [](const Target& a, const Target& b) {
                         return a.potential > b.potential;
                       });
    }

    const int k = opts().bounded_messages;
    std::atomic<int>* kq =
        k > 0 ? &budget[BudgetSlot(msg.origin, msg.key)] : nullptr;
    bool identified = false;
    for (size_t i = 0; i < targets.size(); ++i) {
      bool last = (i + 1 == targets.size());
      VcMessage copy;
      if (last) {
        copy = std::move(msg);  // reuse the original for the final branch
      } else {
        copy = msg;
      }
      copy.pos += 1;
      bool fork = true;
      if (kq != nullptr) {
        // Spend budget for every copy beyond the one we already hold.
        if (!last) {
          int used = kq->fetch_add(1, std::memory_order_relaxed);
          if (used >= k) {
            kq->fetch_sub(1, std::memory_order_relaxed);
            fork = false;
          }
        } else {
          fork = false;  // continue in place: sequential + backtracking
        }
      }
      if (fork) {
        vctx.Send(targets[i].vertex, std::move(copy));
      } else {
        inline_hops.fetch_add(1, std::memory_order_relaxed);
        if (Process(vctx, targets[i].vertex, std::move(copy))) {
          identified = true;
          break;  // early termination; remaining branches unnecessary
        }
        // else: backtrack and try the next instantiation (§5.2 (3)).
      }
    }
    return identified;
  }
};

}  // namespace

StatusOr<MatchResult> RunEmVertexCentric(const EmContext& ctx,
                                         const ProductGraph& pg,
                                         const EmOptions& opts,
                                         MatchSink* sink,
                                         const RematchSeed* seed) {
  const auto& candidates = ctx.candidates();
  internal::FixpointRun run(ctx, opts, sink, seed);
  run.stats().product_graph_nodes = pg.NumNodes();
  run.stats().product_graph_edges = pg.NumEdges();

  int max_slots = 1;
  for (const Candidate& c : candidates) {
    max_slots = std::max(max_slots, static_cast<int>(c.keys->size()));
  }
  std::vector<std::atomic<int>> budget(
      opts.bounded_messages > 0 ? candidates.size() * max_slots : 1);
  for (auto& b : budget) b.store(0, std::memory_order_relaxed);

  VcRun runner{ctx, pg, opts, run, budget, max_slots};
  VcEngine engine(opts.processors);
  VcEngine::Handler handler = [&](VcEngine::Context& vctx, uint32_t vertex,
                                  VcMessage&& msg) {
    runner.Process(vctx, vertex, std::move(msg));
  };

  // Seeds: every candidate starts its own checks (value-based and
  // recursive keys alike; recursive keys may fire immediately through
  // identity pairs in Eq0). A seeded rematch instead messages only the
  // dirty candidates, and the quiescence sweep cascades only on new
  // merges.
  std::vector<uint32_t> to_seed;
  if (run.seeded()) {
    to_seed.assign(seed->active.begin(), seed->active.end());
  } else {
    to_seed.resize(candidates.size());
    std::iota(to_seed.begin(), to_seed.end(), 0);
  }
  std::vector<std::pair<uint32_t, VcMessage>> seeds;
  while (!to_seed.empty()) {
    GKEYS_RETURN_IF_ERROR(run.BeginRound());  // 1 + quiescence sweeps
    seeds.clear();
    for (uint32_t idx : to_seed) {
      const Candidate& c = candidates[idx];
      if (run.eq().Same(c.e1, c.e2)) continue;
      runner.Seed(idx, [&](uint32_t vertex, VcMessage&& m) {
        seeds.emplace_back(vertex, std::move(m));
      });
    }
    engine.Run(seeds, handler);
    run.stats().messages = engine.messages_sent();
    run.stats().iso_checks = runner.inline_hops.load();
    GKEYS_RETURN_IF_ERROR(run.EndRound());

    // Quiescence sweep: candidates that became equal purely transitively
    // never ran MarkIdentified, and ghosts (dropped from L by pairing,
    // but depended upon) have no messages at all; re-seed their
    // dependents and run again.
    to_seed.clear();
    run.Sweep([&](uint32_t dep) {
      if (!run.done(dep)) to_seed.push_back(dep);
    });
    std::sort(to_seed.begin(), to_seed.end());
    to_seed.erase(std::unique(to_seed.begin(), to_seed.end()),
                  to_seed.end());
  }
  return run.Finish();
}

}  // namespace gkeys
