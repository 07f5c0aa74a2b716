#ifndef GKEYS_CORE_SATISFACTION_H_
#define GKEYS_CORE_SATISFACTION_H_

#include <string>
#include <vector>

#include "graph/graph.h"
#include "keys/key.h"

namespace gkeys {

/// One witness of G ⊭ Q(x): two distinct entities with coinciding matches
/// of the key under plain node identity (paper §2.2 / Example 5).
struct Violation {
  NodeId e1, e2;
  std::string key;  // name of the violated key
};

/// Finds key violations: pairs of distinct entities that a single key
/// application identifies under Eq0. These are exactly the first-round
/// chase steps — the direct evidence that G ⊭ Σ. Recursive keys are
/// evaluated under node identity only, so violations enabled purely by
/// other derivations are NOT listed (use the chase / provenance API for
/// the full closure). The chase derives a pair only if some first step
/// exists, so `violations.empty()` iff the chase derives nothing: that
/// is G |= Σ, and Satisfies (core/chase.h) is FindViolations(g, keys, 1)
/// (tested against the chase). `gkeys check` prints these.
///
/// `limit` caps the number of reported violations (0 = unlimited).
std::vector<Violation> FindViolations(const Graph& g, const KeySet& keys,
                                      size_t limit = 0);

/// Renders a violation like `Q2: album#3 == album#4`.
std::string FormatViolation(const Graph& g, const Violation& v);

}  // namespace gkeys

#endif  // GKEYS_CORE_SATISFACTION_H_
