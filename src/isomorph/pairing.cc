#include "isomorph/pairing.h"

#include <algorithm>
#include <optional>
#include <vector>

namespace gkeys {

namespace {

/// A compact row-indexed adjacency: Row(i) lists the dense candidate ids
/// reachable from candidate i along one pattern triple on one side.
struct Csr {
  std::vector<uint32_t> offsets;
  std::vector<uint32_t> targets;

  void Reset(size_t rows) {
    offsets.assign(rows + 1, 0);
    targets.clear();
  }

  std::span<const uint32_t> Row(size_t i) const {
    return {targets.data() + offsets[i], offsets[i + 1] - offsets[i]};
  }
};

/// Fills `rev` with the transpose of `fwd` (`out_rows` target rows).
void Transpose(const Csr& fwd, size_t out_rows, Csr* rev,
               std::vector<uint32_t>* cursor) {
  rev->offsets.assign(out_rows + 1, 0);
  for (uint32_t t : fwd.targets) ++rev->offsets[t + 1];
  for (size_t i = 1; i < rev->offsets.size(); ++i) {
    rev->offsets[i] += rev->offsets[i - 1];
  }
  rev->targets.resize(fwd.targets.size());
  cursor->assign(rev->offsets.begin(), rev->offsets.end() - 1);
  for (size_t i = 0; i + 1 < fwd.offsets.size(); ++i) {
    for (uint32_t j = fwd.offsets[i]; j < fwd.offsets[i + 1]; ++j) {
      rev->targets[(*cursor)[fwd.targets[j]]++] =
          static_cast<uint32_t>(i);
    }
  }
}

/// Marks a candidate removed by the per-side prune in a compaction map.
constexpr uint32_t kPruned = ~uint32_t{0};

/// Keeps the rows of `csr` whose `row_map` entry is not kPruned and, in
/// them, the targets whose `target_map` entry is not kPruned, renumbering
/// both through the maps. In place: the write cursor never passes the read
/// cursor.
void CompactCsr(const std::vector<uint32_t>& row_map,
                const std::vector<uint32_t>& target_map, Csr* csr) {
  uint32_t out = 0;
  size_t rows = 0;
  uint32_t begin = csr->offsets[0];
  for (size_t i = 0; i + 1 < csr->offsets.size(); ++i) {
    const uint32_t end = csr->offsets[i + 1];
    if (row_map[i] != kPruned) {
      for (uint32_t k = begin; k < end; ++k) {
        const uint32_t t = target_map[csr->targets[k]];
        if (t != kPruned) csr->targets[out++] = t;
      }
      csr->offsets[++rows] = out;
    }
    begin = end;
  }
  csr->offsets.resize(rows + 1);
  csr->targets.resize(out);
}

/// Candidate domains and the pair relation of one pattern node. dom[0] /
/// dom[1] are the ascending left (Gd1) / right (Gd2) candidates; rel is a
/// |dom[0]|×|dom[1]| bitset, row-major in 64-bit words (`words` per row,
/// tail bits always zero).
struct NodeState {
  std::vector<NodeId> dom[2];
  /// Per-side prune state, parallel to dom: nonzero while a candidate is
  /// alive; after compaction, its new dense id or kPruned.
  std::vector<uint32_t> live[2];
  size_t words = 0;
  std::vector<uint64_t> rel;
};

/// Witness adjacency of one pattern triple (subject s, object o): per side,
/// dense candidate ids of s mapped to the ids of o they can reach along the
/// triple's predicate, plus the transposes (for deletion propagation).
/// The per-side prune counts surviving adjacency per candidate; the pair
/// fixpoint uses per-right-candidate column masks (so a support check is
/// rows-of-interest ANDed against one mask, word by word).
struct TripleState {
  Csr fwd[2];                          // [side] s id -> o ids
  Csr rev[2];                          // [side] o id -> s ids
  std::vector<uint32_t> out_live[2];   // [side][s id] live o ids in fwd row
  std::vector<uint32_t> in_live[2];    // [side][o id] live s ids in rev row
  std::vector<uint64_t> fwd_mask;      // [s right id] × o.words
  std::vector<uint64_t> rev_mask;      // [o right id] × s.words
};

struct Deletion {
  uint32_t node, i, j;
};

/// One candidate pruned from one side's domain.
struct Removal {
  uint32_t node, side, i;
};

}  // namespace

struct PairingScratch::State {
  // Outer vectors only ever grow so inner buffers keep their capacity.
  std::vector<NodeState> nodes;
  std::vector<TripleState> triples;
  std::vector<Deletion> worklist;
  std::vector<Removal> removals;
  std::vector<uint32_t> cursor;      // Transpose scratch
  std::vector<uint64_t> colmask;     // column-occupancy scratch
  std::vector<NodeId> collect1, collect2;
  std::vector<uint64_t> pair_buf;
};

PairingScratch::PairingScratch() : state_(std::make_unique<State>()) {}
PairingScratch::~PairingScratch() = default;

class PairingEngine {
 public:
  PairingEngine(const Graph& g, const CompiledPattern& cp, const NodeSet& n1,
                const NodeSet& n2, PairingScratch::State& st)
      : g_(g), cp_(cp), n1_(n1), n2_(n2), st_(st) {
    if (st_.nodes.size() < cp.nodes.size()) st_.nodes.resize(cp.nodes.size());
    if (st_.triples.size() < cp.triples.size()) {
      st_.triples.resize(cp.triples.size());
    }
    st_.worklist.clear();
  }

  PairingResult Run(NodeId e1, NodeId e2, bool collect_pairs);

 private:
  static size_t Words(size_t cols) { return (cols + 63) / 64; }

  uint64_t* RelRow(NodeState& ns, size_t i) {
    return ns.rel.data() + i * ns.words;
  }

  bool TestBit(const NodeState& ns, size_t i, size_t j) const {
    return (ns.rel[i * ns.words + (j >> 6)] >> (j & 63)) & 1;
  }

  void ClearBit(NodeState& ns, size_t i, size_t j) {
    ns.rel[i * ns.words + (j >> 6)] &= ~(uint64_t{1} << (j & 63));
  }

  static int IndexOf(const std::vector<NodeId>& dom, NodeId n) {
    auto it = std::lower_bound(dom.begin(), dom.end(), n);
    if (it == dom.end() || *it != n) return -1;
    return static_cast<int>(it - dom.begin());
  }

  /// Invokes fn(dst) for every out-edge of `n` labeled `pred`; a binary
  /// search narrows finalized (sorted) adjacency to the predicate run.
  template <typename Fn>
  void ForEachOut(NodeId n, Symbol pred, Fn&& fn) const {
    std::span<const Edge> es = g_.Out(n);
    if (g_.finalized()) {
      auto it = std::lower_bound(es.begin(), es.end(), Edge{pred, 0});
      for (; it != es.end() && it->pred == pred; ++it) fn(it->dst);
    } else {
      for (const Edge& e : es) {
        if (e.pred == pred) fn(e.dst);
      }
    }
  }

  /// Builds the locally compatible candidates of every pattern node on
  /// each side. Returns false when some domain is empty: the pattern is
  /// connected, so the fixpoint would wipe every relation and nothing can
  /// pair.
  bool BuildDomains();

  /// Builds the per-triple, per-side witness adjacency over the domains.
  void BuildAdjacency();

  /// Per-side unary arc consistency: drops every candidate that lacks, on
  /// its own side, an edge along some incident triple to a surviving
  /// candidate of the other endpoint, then compacts domains and adjacency
  /// to the survivors. Returns false when e1/e2 or a whole domain is gone.
  bool Prune(NodeId e1, NodeId e2);

  /// Removes candidate i of node v from `side` (and a value or constant
  /// node's candidate from both sides, keeping dom[0] == dom[1]).
  void Remove(uint32_t v, uint32_t side, uint32_t i) {
    NodeState& ns = st_.nodes[v];
    if (ns.live[side][i] == 0) return;
    ns.live[side][i] = 0;
    st_.removals.push_back(Removal{v, side, i});
    const VarKind kind = cp_.nodes[v].kind;
    if (kind == VarKind::kValueVar || kind == VarKind::kConstant) {
      Remove(v, 1 - side, i);
    }
  }

  /// Allocates the pair relations over the pruned domains and the column
  /// masks of the right-side adjacency.
  void BuildRelations();

  /// Whether pair (i, j) of node v still has a witness along triple t in
  /// the given role: some reachable pair of the other endpoint survives.
  bool HasSupport(int /*v*/, uint32_t i, uint32_t j, int t,
                  bool as_subject) const {
    const TripleState& ts = st_.triples[t];
    const CompiledTriple& ct = cp_.triples[t];
    int other = as_subject ? ct.object : ct.subject;
    const NodeState& os = st_.nodes[other];
    const Csr& rows = as_subject ? ts.fwd[0] : ts.rev[0];
    const std::vector<uint64_t>& masks =
        as_subject ? ts.fwd_mask : ts.rev_mask;
    const uint64_t* mask = masks.data() + j * os.words;
    for (uint32_t i2 : rows.Row(i)) {
      const uint64_t* row = os.rel.data() + i2 * os.words;
      for (size_t w = 0; w < os.words; ++w) {
        if (row[w] & mask[w]) return true;
      }
    }
    return false;
  }

  /// Whether pair (i, j) of node v is supported along every incident
  /// triple (condition 2b of §4.2).
  bool Supported(int v, uint32_t i, uint32_t j) const {
    for (int t : cp_.incident[v]) {
      const CompiledTriple& ct = cp_.triples[t];
      if (ct.subject == v && !HasSupport(v, i, j, t, /*as_subject=*/true)) {
        return false;
      }
      if (ct.object == v && !HasSupport(v, i, j, t, /*as_subject=*/false)) {
        return false;
      }
    }
    return true;
  }

  void Delete(uint32_t v, uint32_t i, uint32_t j) {
    ClearBit(st_.nodes[v], i, j);
    st_.worklist.push_back(Deletion{v, i, j});
  }

  /// Drains the worklist: each deleted pair re-checks exactly the
  /// neighbor pairs whose witness it could have been (its adjacency
  /// preimage along each incident triple), so propagation is O(degree)
  /// per deletion instead of a full-relation rescan.
  void Propagate();

  const Graph& g_;
  const CompiledPattern& cp_;
  const NodeSet& n1_;
  const NodeSet& n2_;
  PairingScratch::State& st_;
};

bool PairingEngine::BuildDomains() {
  for (size_t v = 0; v < cp_.nodes.size(); ++v) {
    const CompiledNode& pn = cp_.nodes[v];
    std::vector<NodeId>* dom = st_.nodes[v].dom;
    dom[0].clear();
    dom[1].clear();
    switch (pn.kind) {
      case VarKind::kDesignated:
      case VarKind::kEntityVar:
      case VarKind::kWildcard:
        for (NodeId n : n1_) {
          if (g_.IsEntity(n) && g_.entity_type(n) == pn.type) {
            dom[0].push_back(n);
          }
        }
        for (NodeId n : n2_) {
          if (g_.IsEntity(n) && g_.entity_type(n) == pn.type) {
            dom[1].push_back(n);
          }
        }
        break;
      case VarKind::kValueVar:
        for (NodeId n : n1_) {
          if (g_.IsValue(n) && n2_.Contains(n)) dom[0].push_back(n);
        }
        dom[1] = dom[0];
        break;
      case VarKind::kConstant:
        if (pn.constant_node != kNoNode && n1_.Contains(pn.constant_node) &&
            n2_.Contains(pn.constant_node)) {
          dom[0].push_back(pn.constant_node);
          dom[1].push_back(pn.constant_node);
        }
        break;
    }
    if (dom[0].empty() || dom[1].empty()) return false;
  }
  return true;
}

void PairingEngine::BuildAdjacency() {
  for (size_t t = 0; t < cp_.triples.size(); ++t) {
    const CompiledTriple& ct = cp_.triples[t];
    TripleState& ts = st_.triples[t];
    const NodeState& ss = st_.nodes[ct.subject];
    const NodeState& os = st_.nodes[ct.object];
    for (int side = 0; side < 2; ++side) {
      const std::vector<NodeId>& from = ss.dom[side];
      const std::vector<NodeId>& to = os.dom[side];
      Csr& fwd = ts.fwd[side];
      fwd.Reset(from.size());
      for (size_t i = 0; i < from.size(); ++i) {
        ForEachOut(from[i], ct.pred, [&](NodeId dst) {
          int j = IndexOf(to, dst);
          if (j >= 0) fwd.targets.push_back(static_cast<uint32_t>(j));
        });
        fwd.offsets[i + 1] = static_cast<uint32_t>(fwd.targets.size());
      }
      Transpose(fwd, to.size(), &ts.rev[side], &st_.cursor);
    }
  }
}

bool PairingEngine::Prune(NodeId e1, NodeId e2) {
  // Every candidate starts alive, so a live-adjacency counter starts at
  // its row length; a candidate whose counter hits zero along some
  // incident triple has no same-side witness left and is removed. Each
  // adjacency entry is decremented at most once: linear in the CSRs.
  for (size_t v = 0; v < cp_.nodes.size(); ++v) {
    NodeState& ns = st_.nodes[v];
    for (int side = 0; side < 2; ++side) {
      ns.live[side].assign(ns.dom[side].size(), 1);
    }
  }
  st_.removals.clear();
  auto row_lengths = [](const Csr& csr, std::vector<uint32_t>* out) {
    out->resize(csr.offsets.size() - 1);
    for (size_t i = 0; i < out->size(); ++i) {
      (*out)[i] = csr.offsets[i + 1] - csr.offsets[i];
    }
  };
  for (size_t t = 0; t < cp_.triples.size(); ++t) {
    const CompiledTriple& ct = cp_.triples[t];
    TripleState& ts = st_.triples[t];
    for (uint32_t side = 0; side < 2; ++side) {
      row_lengths(ts.fwd[side], &ts.out_live[side]);
      row_lengths(ts.rev[side], &ts.in_live[side]);
      for (uint32_t i = 0; i < ts.out_live[side].size(); ++i) {
        if (ts.out_live[side][i] == 0) Remove(ct.subject, side, i);
      }
      for (uint32_t j = 0; j < ts.in_live[side].size(); ++j) {
        if (ts.in_live[side][j] == 0) Remove(ct.object, side, j);
      }
    }
  }
  while (!st_.removals.empty()) {
    const Removal r = st_.removals.back();
    st_.removals.pop_back();
    const int v = static_cast<int>(r.node);
    for (int t : cp_.incident[v]) {
      const CompiledTriple& ct = cp_.triples[t];
      TripleState& ts = st_.triples[t];
      if (ct.subject == v) {
        for (uint32_t j : ts.fwd[r.side].Row(r.i)) {
          if (--ts.in_live[r.side][j] == 0) Remove(ct.object, r.side, j);
        }
      }
      if (ct.object == v) {
        for (uint32_t i : ts.rev[r.side].Row(r.i)) {
          if (--ts.out_live[r.side][i] == 0) Remove(ct.subject, r.side, i);
        }
      }
    }
  }

  const NodeState& xs = st_.nodes[cp_.designated];
  const int i1 = IndexOf(xs.dom[0], e1);
  const int j1 = IndexOf(xs.dom[1], e2);
  if (i1 < 0 || j1 < 0 || xs.live[0][i1] == 0 || xs.live[1][j1] == 0) {
    return false;
  }

  // Compaction: live[side] becomes the old → new id map, then domains and
  // adjacency shrink to the survivors.
  for (size_t v = 0; v < cp_.nodes.size(); ++v) {
    NodeState& ns = st_.nodes[v];
    for (int side = 0; side < 2; ++side) {
      std::vector<NodeId>& dom = ns.dom[side];
      std::vector<uint32_t>& live = ns.live[side];
      uint32_t next = 0;
      for (size_t i = 0; i < dom.size(); ++i) {
        if (live[i] == 0) {
          live[i] = kPruned;
        } else {
          dom[next] = dom[i];
          live[i] = next++;
        }
      }
      dom.resize(next);
      if (next == 0) return false;
    }
  }
  for (size_t t = 0; t < cp_.triples.size(); ++t) {
    const CompiledTriple& ct = cp_.triples[t];
    TripleState& ts = st_.triples[t];
    const NodeState& ss = st_.nodes[ct.subject];
    const NodeState& os = st_.nodes[ct.object];
    for (int side = 0; side < 2; ++side) {
      CompactCsr(ss.live[side], os.live[side], &ts.fwd[side]);
      Transpose(ts.fwd[side], os.dom[side].size(), &ts.rev[side],
                &st_.cursor);
    }
  }
  return true;
}

void PairingEngine::BuildRelations() {
  for (size_t v = 0; v < cp_.nodes.size(); ++v) {
    const CompiledNode& pn = cp_.nodes[v];
    NodeState& ns = st_.nodes[v];
    const size_t rows = ns.dom[0].size();
    const size_t cols = ns.dom[1].size();
    ns.words = Words(cols);
    if (pn.kind == VarKind::kValueVar || pn.kind == VarKind::kConstant) {
      // Value equality is node identity: only the diagonal is compatible.
      ns.rel.assign(rows * ns.words, 0);
      for (size_t i = 0; i < rows; ++i) {
        ns.rel[i * ns.words + (i >> 6)] |= uint64_t{1} << (i & 63);
      }
    } else {
      ns.rel.assign(rows * ns.words, ~uint64_t{0});
      const uint64_t tail =
          (cols % 64) ? ((uint64_t{1} << (cols % 64)) - 1) : ~uint64_t{0};
      for (size_t i = 0; i < rows; ++i) {
        ns.rel[i * ns.words + ns.words - 1] = tail;
      }
    }
  }

  auto build_mask = [](const Csr& csr, size_t words,
                       std::vector<uint64_t>* mask) {
    mask->assign((csr.offsets.size() - 1) * words, 0);
    for (size_t j = 0; j + 1 < csr.offsets.size(); ++j) {
      uint64_t* row = mask->data() + j * words;
      for (uint32_t j2 : csr.Row(j)) {
        row[j2 >> 6] |= uint64_t{1} << (j2 & 63);
      }
    }
  };
  for (size_t t = 0; t < cp_.triples.size(); ++t) {
    const CompiledTriple& ct = cp_.triples[t];
    TripleState& ts = st_.triples[t];
    build_mask(ts.fwd[1], st_.nodes[ct.object].words, &ts.fwd_mask);
    build_mask(ts.rev[1], st_.nodes[ct.subject].words, &ts.rev_mask);
  }
}

void PairingEngine::Propagate() {
  while (!st_.worklist.empty()) {
    Deletion del = st_.worklist.back();
    st_.worklist.pop_back();
    const int v = static_cast<int>(del.node);
    for (int t : cp_.incident[v]) {
      const CompiledTriple& ct = cp_.triples[t];
      const TripleState& ts = st_.triples[t];
      if (ct.subject == v) {
        // The deleted subject pair was a potential witness for the object
        // pairs in its adjacency image.
        const int o = ct.object;
        NodeState& os = st_.nodes[o];
        for (uint32_t i2 : ts.fwd[0].Row(del.i)) {
          for (uint32_t j2 : ts.fwd[1].Row(del.j)) {
            if (TestBit(os, i2, j2) &&
                !HasSupport(o, i2, j2, t, /*as_subject=*/false)) {
              Delete(o, i2, j2);
            }
          }
        }
      }
      if (ct.object == v) {
        const int s = ct.subject;
        NodeState& ss = st_.nodes[s];
        for (uint32_t i2 : ts.rev[0].Row(del.i)) {
          for (uint32_t j2 : ts.rev[1].Row(del.j)) {
            if (TestBit(ss, i2, j2) &&
                !HasSupport(s, i2, j2, t, /*as_subject=*/true)) {
              Delete(s, i2, j2);
            }
          }
        }
      }
    }
  }
}

PairingResult PairingEngine::Run(NodeId e1, NodeId e2, bool collect_pairs) {
  PairingResult result;
  if (!BuildDomains()) return result;
  BuildAdjacency();
  if (!Prune(e1, e2)) return result;
  BuildRelations();

  // Initial pass: every locally compatible pair must be supported along
  // all incident triples; failures seed the worklist. Set bits are
  // enumerated word-wise so sparse (diagonal) relations cost O(set bits),
  // not O(rows × cols).
  for (size_t v = 0; v < cp_.nodes.size(); ++v) {
    NodeState& ns = st_.nodes[v];
    for (uint32_t i = 0; i < ns.dom[0].size(); ++i) {
      const uint64_t* row = RelRow(ns, i);
      for (size_t w = 0; w < ns.words; ++w) {
        uint64_t bits = row[w];
        while (bits != 0) {
          uint32_t j = static_cast<uint32_t>(w * 64 + __builtin_ctzll(bits));
          bits &= bits - 1;
          if (!Supported(static_cast<int>(v), i, j)) {
            Delete(static_cast<uint32_t>(v), i, j);
          }
        }
      }
    }
  }
  Propagate();

  const NodeState& xs = st_.nodes[cp_.designated];
  const int i1 = IndexOf(xs.dom[0], e1);
  const int j1 = IndexOf(xs.dom[1], e2);
  if (i1 < 0 || j1 < 0 || !TestBit(xs, i1, j1)) return result;
  result.paired = true;

  st_.collect1.clear();
  st_.collect2.clear();
  st_.pair_buf.clear();
  for (size_t v = 0; v < cp_.nodes.size(); ++v) {
    NodeState& ns = st_.nodes[v];
    st_.colmask.assign(ns.words, 0);
    for (size_t i = 0; i < ns.dom[0].size(); ++i) {
      const uint64_t* row = RelRow(ns, i);
      bool any = false;
      for (size_t w = 0; w < ns.words; ++w) {
        if (row[w] == 0) continue;
        any = true;
        st_.colmask[w] |= row[w];
        result.relation_size += __builtin_popcountll(row[w]);
        if (collect_pairs) {
          uint64_t bits = row[w];
          while (bits != 0) {
            size_t j = w * 64 + __builtin_ctzll(bits);
            bits &= bits - 1;
            st_.pair_buf.push_back(PackPair(ns.dom[0][i], ns.dom[1][j]));
          }
        }
      }
      if (any) st_.collect1.push_back(ns.dom[0][i]);
    }
    for (size_t w = 0; w < ns.words; ++w) {
      uint64_t bits = st_.colmask[w];
      while (bits != 0) {
        size_t j = w * 64 + __builtin_ctzll(bits);
        bits &= bits - 1;
        st_.collect2.push_back(ns.dom[1][j]);
      }
    }
  }
  auto seal = [](std::vector<NodeId>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    return NodeSet::FromSorted(v);
  };
  result.reduced1 = seal(st_.collect1);
  result.reduced2 = seal(st_.collect2);
  if (collect_pairs) {
    std::sort(st_.pair_buf.begin(), st_.pair_buf.end());
    st_.pair_buf.erase(
        std::unique(st_.pair_buf.begin(), st_.pair_buf.end()),
        st_.pair_buf.end());
    result.pairs = st_.pair_buf;
  }
  return result;
}

PairingResult ComputeMaxPairing(const Graph& g, const CompiledPattern& cp,
                                NodeId e1, NodeId e2, const NodeSet& n1,
                                const NodeSet& n2, bool collect_pairs,
                                PairingScratch* scratch) {
  if (!cp.matchable) return PairingResult{};
  // The fallback scratch is built only when the caller brought none, so
  // scratch-threaded hot paths never pay its allocation.
  std::optional<PairingScratch> local;
  PairingScratch& s = scratch != nullptr ? *scratch : local.emplace();
  PairingEngine engine(g, cp, n1, n2, *s.state_);
  return engine.Run(e1, e2, collect_pairs);
}

}  // namespace gkeys
