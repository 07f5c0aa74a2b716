#include "discovery/key_discovery.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

namespace gkeys {

namespace {

/// Per-type attribute index: entity -> values per predicate, and
/// entity -> referenced entities per predicate.
struct TypeIndex {
  std::vector<NodeId> entities;
  // pred -> (entity -> sorted object nodes). Values and refs indexed
  // separately because they yield different pattern node kinds.
  std::map<Symbol, std::unordered_map<NodeId, std::vector<NodeId>>> values;
  std::map<Symbol, std::unordered_map<NodeId, std::vector<NodeId>>> refs;
  // Ref predicates homogeneous in target type (pred -> target type).
  std::map<Symbol, Symbol> ref_target_type;
};

TypeIndex BuildIndex(const Graph& g, Symbol type) {
  TypeIndex idx;
  auto entities = g.EntitiesOfType(type);
  idx.entities.assign(entities.begin(), entities.end());
  std::map<Symbol, bool> ref_homogeneous;
  for (NodeId e : idx.entities) {
    for (const Edge& edge : g.Out(e)) {
      if (g.IsValue(edge.dst)) {
        idx.values[edge.pred][e].push_back(edge.dst);
      } else {
        idx.refs[edge.pred][e].push_back(edge.dst);
        Symbol t = g.entity_type(edge.dst);
        auto it = idx.ref_target_type.find(edge.pred);
        if (it == idx.ref_target_type.end()) {
          idx.ref_target_type[edge.pred] = t;
          ref_homogeneous[edge.pred] = true;
        } else if (it->second != t) {
          ref_homogeneous[edge.pred] = false;
        }
      }
    }
  }
  // Drop heterogeneous ref predicates: they cannot type an entity var.
  for (auto it = idx.refs.begin(); it != idx.refs.end();) {
    if (!ref_homogeneous[it->first]) {
      idx.ref_target_type.erase(it->first);
      it = idx.refs.erase(it);
    } else {
      ++it;
    }
  }
  return idx;
}

/// Whether two entities share at least one object on predicate `pred`
/// (value equality for values, node identity for refs).
bool ShareObject(
    const std::unordered_map<NodeId, std::vector<NodeId>>& per_entity,
    NodeId a, NodeId b) {
  auto ia = per_entity.find(a);
  auto ib = per_entity.find(b);
  if (ia == per_entity.end() || ib == per_entity.end()) return false;
  for (NodeId va : ia->second) {
    for (NodeId vb : ib->second) {
      if (va == vb) return true;
    }
  }
  return false;
}

/// A candidate: a set of value predicates plus at most one ref predicate.
struct AttrSet {
  std::vector<Symbol> value_preds;
  Symbol ref_pred = kNoSymbol;

  int arity() const {
    return static_cast<int>(value_preds.size()) +
           (ref_pred == kNoSymbol ? 0 : 1);
  }
  bool Contains(const AttrSet& other) const {
    if (other.ref_pred != kNoSymbol && other.ref_pred != ref_pred) {
      return false;
    }
    for (Symbol p : other.value_preds) {
      if (!std::binary_search(value_preds.begin(), value_preds.end(), p)) {
        return false;
      }
    }
    return true;
  }
};

/// Does the candidate hold on the indexed type under node identity?
/// Violated iff two distinct entities coincide on every member attribute.
bool Holds(const TypeIndex& idx, const AttrSet& cand) {
  if (cand.value_preds.empty() && cand.ref_pred == kNoSymbol) return false;
  // Group entities by the first attribute's objects; only entities
  // sharing an object there can possibly coincide.
  const auto& first = cand.value_preds.empty()
                          ? idx.refs.at(cand.ref_pred)
                          : idx.values.at(cand.value_preds.front());
  std::unordered_map<NodeId, std::vector<NodeId>> by_object;
  for (const auto& [e, objs] : first) {
    for (NodeId o : objs) by_object[o].push_back(e);
  }
  for (const auto& [obj, members] : by_object) {
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        NodeId a = members[i], b = members[j];
        bool coincide = true;
        for (size_t k = 1; k < cand.value_preds.size() && coincide; ++k) {
          coincide = ShareObject(idx.values.at(cand.value_preds[k]), a, b);
        }
        if (coincide && cand.ref_pred != kNoSymbol &&
            !cand.value_preds.empty()) {
          coincide = ShareObject(idx.refs.at(cand.ref_pred), a, b);
        }
        if (coincide) return false;  // violation witness
      }
    }
  }
  return true;
}

/// Fraction of entities carrying every attribute of the candidate.
double Coverage(const TypeIndex& idx, const AttrSet& cand) {
  if (idx.entities.empty()) return 0.0;
  size_t covered = 0;
  for (NodeId e : idx.entities) {
    bool has_all = true;
    for (Symbol p : cand.value_preds) {
      if (idx.values.at(p).count(e) == 0) {
        has_all = false;
        break;
      }
    }
    if (has_all && cand.ref_pred != kNoSymbol &&
        idx.refs.at(cand.ref_pred).count(e) == 0) {
      has_all = false;
    }
    covered += has_all;
  }
  return static_cast<double>(covered) / idx.entities.size();
}

}  // namespace

std::vector<DiscoveredKey> DiscoverKeys(const Graph& g,
                                        std::string_view type,
                                        const DiscoveryConfig& config) {
  std::vector<DiscoveredKey> out;
  Symbol t = g.interner().Lookup(type);
  if (t == kNoSymbol) return out;
  TypeIndex idx = BuildIndex(g, t);
  if (idx.entities.size() < 2) return out;

  std::vector<Symbol> value_preds;
  for (const auto& [p, _] : idx.values) value_preds.push_back(p);

  std::vector<AttrSet> holding;  // minimal holding sets, for pruning

  auto consider = [&](AttrSet cand) {
    for (const AttrSet& h : holding) {
      if (cand.Contains(h)) return;  // superset of a holding key: prune
    }
    double cov = Coverage(idx, cand);
    if (cov < config.min_coverage) return;
    if (!Holds(idx, cand)) return;
    // Build the concrete pattern.
    Pattern p;
    int x = p.AddDesignated(type);
    std::string name = "disc_" + std::string(type);
    int vi = 0;
    for (Symbol pred : cand.value_preds) {
      const std::string& pname = g.interner().Resolve(pred);
      name += "_" + pname;
      p.AddTriple(x, pname, p.AddValueVar("v" + std::to_string(vi++))).IgnoreError();
    }
    if (cand.ref_pred != kNoSymbol) {
      const std::string& pname = g.interner().Resolve(cand.ref_pred);
      name += "_" + pname;
      int y = p.AddEntityVar(
          "y", g.interner().Resolve(idx.ref_target_type.at(cand.ref_pred)));
      p.AddTriple(x, pname, y).IgnoreError();
    }
    if (!p.Validate().ok()) return;
    DiscoveredKey dk{Key(name, std::move(p)), cov, cand.arity()};
    holding.push_back(cand);
    out.push_back(std::move(dk));
  };

  // Arity 1: single value attributes.
  for (Symbol p : value_preds) {
    consider(AttrSet{{p}, kNoSymbol});
  }
  // Arity 2+: value-attribute combinations (sets, ascending).
  if (config.max_attributes >= 2) {
    for (size_t i = 0; i < value_preds.size(); ++i) {
      for (size_t j = i + 1; j < value_preds.size(); ++j) {
        consider(AttrSet{{value_preds[i], value_preds[j]}, kNoSymbol});
      }
    }
  }
  if (config.max_attributes >= 3) {
    for (size_t i = 0; i < value_preds.size(); ++i) {
      for (size_t j = i + 1; j < value_preds.size(); ++j) {
        for (size_t k = j + 1; k < value_preds.size(); ++k) {
          consider(AttrSet{
              {value_preds[i], value_preds[j], value_preds[k]}, kNoSymbol});
        }
      }
    }
  }
  // Recursive candidates: one value attribute + one entity reference.
  if (config.include_recursive && config.max_attributes >= 2) {
    for (Symbol p : value_preds) {
      for (const auto& [r, _] : idx.refs) {
        consider(AttrSet{{p}, r});
      }
    }
  }

  std::sort(out.begin(), out.end(),
            [](const DiscoveredKey& a, const DiscoveredKey& b) {
              if (a.arity != b.arity) return a.arity < b.arity;
              return a.coverage > b.coverage;
            });
  return out;
}

}  // namespace gkeys
