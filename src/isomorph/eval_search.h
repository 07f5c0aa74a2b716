#ifndef GKEYS_ISOMORPH_EVAL_SEARCH_H_
#define GKEYS_ISOMORPH_EVAL_SEARCH_H_

#include <cstdint>

#include "eq/equivalence.h"
#include "graph/graph.h"
#include "graph/neighborhood.h"
#include "pattern/pattern.h"

namespace gkeys {

/// Counters reported by the matchers; the ablation benchmarks aggregate
/// these to reproduce the paper's "redundant checking reduced by N%" and
/// "EvalMR vs VF2" claims.
struct SearchStats {
  uint64_t expansions = 0;          // candidate pairs tried
  uint64_t feasibility_checks = 0;  // feasibility condition evaluations
  uint64_t full_instantiations = 0; // complete vectors found
};

/// Procedure EvalMR (paper §4.1): decides (Gd1 ∪ Gd2, Eq, {Q}) |= (e1, e2)
/// by a single combined backtracking search that instantiates each pattern
/// node with a *pair* (s1, s2), instead of enumerating the matches of Q at
/// e1 and e2 separately and intersecting. Terminates as soon as one fully
/// instantiated vector is found (early termination, Lemma 8).
///
/// Feasibility conditions for m[s_Q] = (s1, s2):
///   1. injective per side: s1 fresh among first coordinates, s2 among
///      second coordinates;
///   2. equality: entity variable ⇒ (s1, s2) ∈ Eq; value variable ⇒ equal
///      values; wildcard ⇒ same-type entities (identity NOT required);
///      constant d ⇒ s1 = s2 = d;
///   3. guided expansion: every pattern triple between instantiated nodes
///      is realized in Gd1 on the first coordinates and Gd2 on the second.
///
/// `n1` / `n2` optionally restrict the search to node subsets (d-neighbors,
/// possibly pairing-reduced, §4.2); nullptr means "all of G". The graph
/// must be finalized.
bool KeyIdentifies(const Graph& g, const CompiledPattern& cp, NodeId e1,
                   NodeId e2, const EqView& eq, const NodeSet* n1 = nullptr,
                   const NodeSet* n2 = nullptr, SearchStats* stats = nullptr);

/// The witness of one successful identification: the full instantiation
/// vector m (one (side1, side2) pair per pattern node). Witnesses chain
/// into the proof graphs of Theorem 2 — each entity-variable pair in a
/// witness is a fact the chase derived earlier (or node identity).
using Witness = std::vector<std::pair<NodeId, NodeId>>;

/// KeyIdentifies variant that returns the witness vector on success
/// (empty on failure). Used by the provenance-recording chase.
bool KeyIdentifiesWitness(const Graph& g, const CompiledPattern& cp,
                          NodeId e1, NodeId e2, const EqView& eq,
                          const NodeSet* n1, const NodeSet* n2,
                          Witness* witness, SearchStats* stats = nullptr);

}  // namespace gkeys

#endif  // GKEYS_ISOMORPH_EVAL_SEARCH_H_
