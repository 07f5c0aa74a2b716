#include "isomorph/eval_search.h"

#include <utility>
#include <vector>

namespace gkeys {

namespace {

/// Shared state of one combined search.
struct SearchContext {
  const Graph& g;
  const CompiledPattern& cp;
  const EqView& eq;
  const NodeSet* n1;
  const NodeSet* n2;
  SearchStats* stats;
  // m: per pattern node, the instantiated pair; kNoNode == ⊥. References
  // a per-thread buffer: the engines call this once per candidate pair
  // per round, and the buffer (pattern-sized, so tiny and bounded) would
  // otherwise be reallocated on every call.
  std::vector<std::pair<NodeId, NodeId>>& m;

  bool InSide1(NodeId n) const { return n1 == nullptr || n1->Contains(n); }
  bool InSide2(NodeId n) const { return n2 == nullptr || n2->Contains(n); }

  /// Triple membership in the induced subgraph Gd (side-specific).
  bool TripleInSide1(NodeId s, Symbol p, NodeId o) const {
    return InSide1(s) && InSide1(o) && g.HasTriple(s, p, o);
  }
  bool TripleInSide2(NodeId s, Symbol p, NodeId o) const {
    return InSide2(s) && InSide2(o) && g.HasTriple(s, p, o);
  }

  /// Feasibility conditions (paper §4.1) for assigning (c1, c2) to pattern
  /// node v. Assumes v is currently ⊥.
  bool Feasible(int v, NodeId c1, NodeId c2) {
    if (stats != nullptr) ++stats->feasibility_checks;
    const CompiledNode& pn = cp.nodes[v];
    // (2) Equality / kind conditions.
    switch (pn.kind) {
      case VarKind::kDesignated:
        return false;  // x is pre-instantiated, never re-assigned
      case VarKind::kEntityVar:
        if (!g.IsEntity(c1) || !g.IsEntity(c2)) return false;
        if (g.entity_type(c1) != pn.type || g.entity_type(c2) != pn.type) {
          return false;
        }
        if (!eq.Same(c1, c2)) return false;
        break;
      case VarKind::kValueVar:
        // Equal values are one node, so value equality is id equality.
        if (!g.IsValue(c1) || c1 != c2) return false;
        break;
      case VarKind::kWildcard:
        if (!g.IsEntity(c1) || !g.IsEntity(c2)) return false;
        if (g.entity_type(c1) != pn.type || g.entity_type(c2) != pn.type) {
          return false;
        }
        break;
      case VarKind::kConstant:
        if (c1 != pn.constant_node || c2 != pn.constant_node) return false;
        break;
    }
    if (!InSide1(c1) || !InSide2(c2)) return false;
    // (1) Injective, per coordinate.
    for (const auto& [a, b] : m) {
      if (a == c1 && a != kNoNode) return false;
      if (b == c2 && b != kNoNode) return false;
    }
    // (3) Guided expansion: all triples between v and instantiated nodes
    // must be realized on both sides.
    for (int t : cp.incident[v]) {
      const CompiledTriple& ct = cp.triples[t];
      int other = ct.subject == v ? ct.object : ct.subject;
      NodeId o1, o2, s1, s2;
      if (other == v) {  // self-loop triple (v, p, v)
        s1 = c1; o1 = c1; s2 = c2; o2 = c2;
      } else if (ct.subject == v) {
        if (m[other].first == kNoNode) continue;
        s1 = c1; s2 = c2;
        o1 = m[other].first; o2 = m[other].second;
      } else {
        if (m[other].first == kNoNode) continue;
        s1 = m[other].first; s2 = m[other].second;
        o1 = c1; o2 = c2;
      }
      if (!TripleInSide1(s1, ct.pred, o1)) return false;
      if (!TripleInSide2(s2, ct.pred, o2)) return false;
    }
    return true;
  }

  /// Recursive guided expansion over cp.plan[step..]. Returns true on the
  /// first full instantiation (early termination).
  bool Expand(size_t step) {
    if (step == cp.plan.size()) {
      if (stats != nullptr) ++stats->full_instantiations;
      return true;
    }
    const SearchStep& ss = cp.plan[step];
    const CompiledTriple& ct = cp.triples[ss.via_triple];
    int anchor = ss.forward ? ct.subject : ct.object;
    auto [a1, a2] = m[anchor];
    // Candidates for the new node: neighbors of the anchor pair along the
    // plan triple, on each side.
    const auto edges1 = ss.forward ? g.Out(a1) : g.In(a1);
    const auto edges2 = ss.forward ? g.Out(a2) : g.In(a2);
    for (const Edge& e1 : edges1) {
      if (e1.pred != ct.pred) continue;
      for (const Edge& e2 : edges2) {
        if (e2.pred != ct.pred) continue;
        if (stats != nullptr) ++stats->expansions;
        if (!Feasible(ss.node, e1.dst, e2.dst)) continue;
        m[ss.node] = {e1.dst, e2.dst};
        if (Expand(step + 1)) return true;
        m[ss.node] = {kNoNode, kNoNode};  // backtrack
      }
    }
    return false;
  }
};

}  // namespace

bool KeyIdentifies(const Graph& g, const CompiledPattern& cp, NodeId e1,
                   NodeId e2, const EqView& eq, const NodeSet* n1,
                   const NodeSet* n2, SearchStats* stats) {
  return KeyIdentifiesWitness(g, cp, e1, e2, eq, n1, n2, nullptr, stats);
}

bool KeyIdentifiesWitness(const Graph& g, const CompiledPattern& cp,
                          NodeId e1, NodeId e2, const EqView& eq,
                          const NodeSet* n1, const NodeSet* n2,
                          Witness* witness, SearchStats* stats) {
  if (witness != nullptr) witness->clear();
  if (!cp.matchable) return false;
  const CompiledNode& x = cp.nodes[cp.designated];
  if (!g.IsEntity(e1) || !g.IsEntity(e2)) return false;
  if (g.entity_type(e1) != x.type || g.entity_type(e2) != x.type) return false;

  static thread_local std::vector<std::pair<NodeId, NodeId>> m_scratch;
  m_scratch.assign(cp.nodes.size(), {kNoNode, kNoNode});
  SearchContext ctx{g, cp, eq, n1, n2, stats, m_scratch};
  if (!ctx.InSide1(e1) || !ctx.InSide2(e2)) return false;
  ctx.m[cp.designated] = {e1, e2};
  // Self-loops on x must hold before expansion.
  for (int t : cp.incident[cp.designated]) {
    const CompiledTriple& ct = cp.triples[t];
    if (ct.subject == cp.designated && ct.object == cp.designated) {
      if (!ctx.TripleInSide1(e1, ct.pred, e1)) return false;
      if (!ctx.TripleInSide2(e2, ct.pred, e2)) return false;
    }
  }
  if (!ctx.Expand(0)) return false;
  if (witness != nullptr) *witness = ctx.m;
  return true;
}

}  // namespace gkeys
