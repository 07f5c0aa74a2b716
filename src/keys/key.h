#ifndef GKEYS_KEYS_KEY_H_
#define GKEYS_KEYS_KEY_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "pattern/parser.h"
#include "pattern/pattern.h"

namespace gkeys {

/// A key for entities of type τ: a graph pattern Q(x) whose designated
/// variable x has type τ (paper §2.2). Immutable after construction.
class Key {
 public:
  /// Builds a key from a validated pattern. Caches radius/recursiveness.
  Key(std::string name, Pattern pattern);

  const std::string& name() const { return name_; }
  const Pattern& pattern() const { return pattern_; }

  /// The entity type τ this key is defined on.
  const std::string& type() const { return pattern_.designated_type(); }

  /// |Q|: number of pattern triples.
  size_t size() const { return pattern_.size(); }

  /// d(Q, x): the pattern radius.
  int radius() const { return radius_; }

  /// True iff the key contains an entity variable other than x (§2.2).
  bool recursive() const { return recursive_; }

  /// Entity-variable types this key depends on (the types whose
  /// identification this key's firing may wait for). Sorted, deduplicated.
  const std::vector<std::string>& dependency_types() const {
    return dep_types_;
  }

 private:
  std::string name_;
  Pattern pattern_;
  int radius_;
  bool recursive_;
  std::vector<std::string> dep_types_;
};

/// A set Σ of keys with the derived structures the algorithms need:
/// keys grouped by the type they are defined on, per-type maximum radius
/// (the d used for d-neighbors, §4.1), and the type-dependency graph used
/// for the optimization strategies and the chain-length statistic c (§6).
class KeySet {
 public:
  KeySet() = default;

  /// Adds a key. The pattern must already be valid.
  void Add(Key key);
  void Add(std::string name, Pattern pattern) {
    Add(Key(std::move(name), std::move(pattern)));
  }

  /// Convenience: parse DSL text and add every key in it.
  Status AddFromDsl(std::string_view dsl);

  size_t count() const { return keys_.size(); }          // ||Σ||
  size_t TotalSize() const { return total_size_; }       // |Σ|
  bool empty() const { return keys_.empty(); }

  const Key& key(size_t i) const { return keys_[i]; }
  const std::vector<Key>& keys() const { return keys_; }

  /// All types some key is defined on.
  std::vector<std::string> KeyedTypes() const;

  /// Whether any key is defined on `type`. Heterogeneous lookup: no
  /// std::string is materialized per call.
  bool HasKeyForType(std::string_view type) const {
    return type_deps_.find(type) != type_deps_.end();
  }

  /// Maximum radius over all keys (the paper's parameter d).
  int MaxRadius() const;

  /// Length of the longest dependency chain (the paper's parameter c):
  /// the longest simple path in the directed type-dependency graph where
  /// τ → τ' iff some key on τ has an entity variable of type τ'. A single
  /// value-based key yields c = 1; mutual recursion (album ↔ artist)
  /// yields c = number of distinct types on the cycle.
  int LongestDependencyChain() const;

 private:
  std::vector<Key> keys_;
  /// τ → { τ' : some key on τ references an entity variable of type τ' },
  /// with one entry per keyed type τ.
  StringMap<std::vector<std::string>> type_deps_;
  size_t total_size_ = 0;
};

/// Renders a key back into the DSL accepted by ParseKeys (round-trip
/// safe; used to persist discovered keys and by the CLI).
std::string ToDsl(const Key& key);

/// Renders a whole key set, one block per key, in declaration order.
std::string ToDsl(const KeySet& keys);

}  // namespace gkeys

#endif  // GKEYS_KEYS_KEY_H_
