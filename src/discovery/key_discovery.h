#ifndef GKEYS_DISCOVERY_KEY_DISCOVERY_H_
#define GKEYS_DISCOVERY_KEY_DISCOVERY_H_

#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "keys/key.h"

namespace gkeys {

/// Controls for key discovery.
struct DiscoveryConfig {
  /// Maximum number of attributes combined in one candidate key.
  int max_attributes = 2;
  /// Minimum fraction of the type's entities that must carry every
  /// attribute of a candidate for it to be reported (coverage).
  double min_coverage = 0.6;
  /// Also propose recursive candidates (value attribute + entity
  /// reference), checked under node identity.
  bool include_recursive = true;
};

/// A mined candidate key with its quality measures.
struct DiscoveredKey {
  Key key;
  /// Fraction of the type's entities matching the key's pattern.
  double coverage = 0.0;
  /// Number of attributes/references combined.
  int arity = 0;
};

/// Mines candidate keys for entities of `type` that HOLD on `g` (i.e.,
/// G |= Q(x)): combinations of up to max_attributes outgoing value
/// attributes — optionally plus one entity reference for recursive
/// candidates — such that no two distinct entities coincide on them.
///
/// This is a basic instantiation of the key-discovery problem the paper
/// defers to future work (§7): it searches the radius-1 fragment
/// exhaustively, preferring smaller keys (a superset of a holding key is
/// pruned). Candidates are checked under node identity, the sound
/// baseline: a key that holds under Eq0 can only gain violations as Eq
/// grows, so discovered keys should be re-validated after matching when
/// used for enforcement.
std::vector<DiscoveredKey> DiscoverKeys(const Graph& g,
                                        std::string_view type,
                                        const DiscoveryConfig& config = {});

}  // namespace gkeys

#endif  // GKEYS_DISCOVERY_KEY_DISCOVERY_H_
