#include "keys/key.h"

#include <algorithm>
#include <functional>
#include <set>

namespace gkeys {

Key::Key(std::string name, Pattern pattern)
    : name_(std::move(name)), pattern_(std::move(pattern)) {
  radius_ = pattern_.Radius();
  recursive_ = pattern_.IsRecursive();
  std::set<std::string> dep_types;
  for (const PatternNode& n : pattern_.nodes()) {
    if (n.kind == VarKind::kEntityVar) dep_types.insert(n.type);
  }
  dep_types_.assign(dep_types.begin(), dep_types.end());
}

void KeySet::Add(Key key) {
  total_size_ += key.size();
  auto& deps = type_deps_[key.type()];
  for (const std::string& t : key.dependency_types()) {
    if (std::find(deps.begin(), deps.end(), t) == deps.end()) {
      deps.push_back(t);
    }
  }
  keys_.push_back(std::move(key));
}

Status KeySet::AddFromDsl(std::string_view dsl) {
  auto parsed = ParseKeys(dsl);
  if (!parsed.ok()) return parsed.status();
  for (auto& np : *parsed) Add(std::move(np.name), std::move(np.pattern));
  return Status::OK();
}

std::vector<std::string> KeySet::KeyedTypes() const {
  std::vector<std::string> types;
  types.reserve(type_deps_.size());
  for (const auto& [type, _] : type_deps_) types.push_back(type);
  std::sort(types.begin(), types.end());
  return types;
}

int KeySet::MaxRadius() const {
  int d = 0;
  for (const Key& k : keys_) d = std::max(d, k.radius());
  return d;
}

int KeySet::LongestDependencyChain() const {
  // Longest simple path in the type-dependency digraph, counted in nodes.
  // Key sets are small (||Σ|| ≤ a few hundred, far fewer distinct types in
  // a chain), so exhaustive DFS with a visited set is fine.
  int best = keys_.empty() ? 0 : 1;
  std::set<std::string> on_path;
  std::function<int(const std::string&)> dfs =
      [&](const std::string& type) -> int {
    on_path.insert(type);
    int longest = 1;
    auto it = type_deps_.find(type);
    if (it != type_deps_.end()) {
      for (const std::string& next : it->second) {
        if (on_path.count(next)) continue;
        // Only follow dependencies into types that themselves carry keys;
        // a dangling entity variable cannot extend the chase chain.
        if (!HasKeyForType(next)) continue;
        longest = std::max(longest, 1 + dfs(next));
      }
    }
    on_path.erase(type);
    return longest;
  };
  for (const auto& [type, _] : type_deps_) {
    best = std::max(best, dfs(type));
  }
  return best;
}

std::string ToDsl(const Key& key) {
  const Pattern& p = key.pattern();
  auto render = [&](int idx) -> std::string {
    const PatternNode& n = p.nodes()[idx];
    switch (n.kind) {
      case VarKind::kDesignated:
        return "x";
      case VarKind::kEntityVar:
        return n.name + ":" + n.type;
      case VarKind::kValueVar:
        return n.name + "*";
      case VarKind::kWildcard:
        // DSL wildcards need the leading underscore; builder-made ones
        // may lack it.
        return (n.name.empty() || n.name.front() != '_' ? "_" + n.name
                                                        : n.name) +
               ":" + n.type;
      case VarKind::kConstant:
        return "\"" + n.name + "\"";
    }
    return "?";
  };
  std::string out = "key " + key.name() + " for " + key.type() + " {\n";
  for (const PatternTriple& t : p.triples()) {
    out += "  " + render(t.subject) + " -[" + t.pred + "]-> " +
           render(t.object) + "\n";
  }
  out += "}\n";
  return out;
}

std::string ToDsl(const KeySet& keys) {
  std::string out;
  for (const Key& k : keys.keys()) out += ToDsl(k);
  return out;
}

}  // namespace gkeys
