#ifndef GKEYS_TESTS_PAIRING_REFERENCE_H_
#define GKEYS_TESTS_PAIRING_REFERENCE_H_

#include <unordered_set>
#include <vector>

#include "isomorph/pairing.h"

namespace gkeys {

/// The pre-dense-worklist ComputeMaxPairing, kept verbatim as a reference
/// oracle: per-pattern-node unordered_set pair tables, whole-table
/// rescans until no change. The pairing property tests assert the dense
/// engine agrees with it on every observable, and bench_micro_iso keeps
/// it timed next to the dense engine so the speedup stays measured per
/// commit. Never call this from production code.
inline PairingResult ReferenceMaxPairing(const Graph& g,
                                         const CompiledPattern& cp,
                                         NodeId e1, NodeId e2,
                                         const NodeSet& n1, const NodeSet& n2,
                                         bool collect_pairs = false) {
  using PairSet = std::unordered_set<uint64_t>;
  auto pack = [](NodeId a, NodeId b) {
    return (static_cast<uint64_t>(a) << 32) | b;
  };
  auto first = [](uint64_t p) { return static_cast<NodeId>(p >> 32); };
  auto second = [](uint64_t p) {
    return static_cast<NodeId>(p & 0xffffffffu);
  };

  PairingResult result;
  if (!cp.matchable) return result;

  const size_t num_nodes = cp.nodes.size();
  std::vector<PairSet> cand(num_nodes);

  // Initialization: all locally compatible pairs (condition 2a of §4.2).
  auto entities_of_type = [&](const NodeSet& side, Symbol type) {
    std::vector<NodeId> out;
    for (NodeId n : side) {
      if (g.IsEntity(n) && g.entity_type(n) == type) out.push_back(n);
    }
    return out;
  };
  for (size_t v = 0; v < num_nodes; ++v) {
    const CompiledNode& pn = cp.nodes[v];
    switch (pn.kind) {
      case VarKind::kDesignated:
      case VarKind::kEntityVar:
      case VarKind::kWildcard: {
        auto left = entities_of_type(n1, pn.type);
        auto right = entities_of_type(n2, pn.type);
        for (NodeId a : left) {
          for (NodeId b : right) cand[v].insert(pack(a, b));
        }
        break;
      }
      case VarKind::kValueVar:
        for (NodeId n : n1) {
          if (g.IsValue(n) && n2.Contains(n)) cand[v].insert(pack(n, n));
        }
        break;
      case VarKind::kConstant:
        if (pn.constant_node != kNoNode && n1.Contains(pn.constant_node) &&
            n2.Contains(pn.constant_node)) {
          cand[v].insert(pack(pn.constant_node, pn.constant_node));
        }
        break;
    }
  }

  // Fixpoint pruning (condition 2b): delete triples lacking a witness
  // along some incident pattern edge.
  auto has_witness = [&](NodeId s1, NodeId s2, const CompiledTriple& ct,
                         bool v_is_subject) -> bool {
    int other = v_is_subject ? ct.object : ct.subject;
    const auto edges1 = v_is_subject ? g.Out(s1) : g.In(s1);
    const auto edges2 = v_is_subject ? g.Out(s2) : g.In(s2);
    for (const Edge& a : edges1) {
      if (a.pred != ct.pred || !n1.Contains(a.dst)) continue;
      for (const Edge& b : edges2) {
        if (b.pred != ct.pred || !n2.Contains(b.dst)) continue;
        if (cand[other].count(pack(a.dst, b.dst)) > 0) return true;
      }
    }
    return false;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t v = 0; v < num_nodes; ++v) {
      for (auto it = cand[v].begin(); it != cand[v].end();) {
        NodeId s1 = first(*it), s2 = second(*it);
        bool ok = true;
        for (int t : cp.incident[v]) {
          const CompiledTriple& ct = cp.triples[t];
          if (ct.subject == static_cast<int>(v) &&
              !has_witness(s1, s2, ct, /*v_is_subject=*/true)) {
            ok = false;
            break;
          }
          if (ct.object == static_cast<int>(v) &&
              !has_witness(s1, s2, ct, /*v_is_subject=*/false)) {
            ok = false;
            break;
          }
        }
        if (!ok) {
          it = cand[v].erase(it);
          changed = true;
        } else {
          ++it;
        }
      }
    }
  }

  result.paired = cand[cp.designated].count(pack(e1, e2)) > 0;
  if (result.paired) {
    PairSet dedup;
    std::vector<NodeId> r1, r2;
    for (const PairSet& ps : cand) {
      result.relation_size += ps.size();
      for (uint64_t p : ps) {
        r1.push_back(first(p));
        r2.push_back(second(p));
        if (collect_pairs && dedup.insert(p).second) {
          result.pairs.push_back(p);
        }
      }
    }
    result.reduced1 = NodeSet(std::move(r1));
    result.reduced2 = NodeSet(std::move(r2));
  }
  return result;
}

}  // namespace gkeys

#endif  // GKEYS_TESTS_PAIRING_REFERENCE_H_
