#include "pattern/pattern.h"

#include <algorithm>
#include <deque>

namespace gkeys {

namespace {

bool IsEntityKinded(VarKind k) {
  return k == VarKind::kDesignated || k == VarKind::kEntityVar ||
         k == VarKind::kWildcard;
}

}  // namespace

int Pattern::AddNode(VarKind kind, std::string_view name,
                     std::string_view type) {
  int idx = static_cast<int>(nodes_.size());
  nodes_.push_back(PatternNode{kind, std::string(name), std::string(type)});
  incident_.clear();
  return idx;
}

int Pattern::AddDesignated(std::string_view type, std::string_view name) {
  int idx = AddNode(VarKind::kDesignated, name, type);
  designated_ = idx;
  return idx;
}

int Pattern::AddEntityVar(std::string_view name, std::string_view type) {
  return AddNode(VarKind::kEntityVar, name, type);
}

int Pattern::AddValueVar(std::string_view name) {
  return AddNode(VarKind::kValueVar, name, "");
}

int Pattern::AddWildcard(std::string_view name, std::string_view type) {
  return AddNode(VarKind::kWildcard, name, type);
}

int Pattern::AddConstant(std::string_view literal) {
  // Equal constants are one node (value equality).
  for (int i = 0; i < static_cast<int>(nodes_.size()); ++i) {
    if (nodes_[i].kind == VarKind::kConstant && nodes_[i].name == literal) {
      return i;
    }
  }
  return AddNode(VarKind::kConstant, literal, "");
}

Status Pattern::AddTriple(int subject, std::string_view pred, int object) {
  if (subject < 0 || subject >= static_cast<int>(nodes_.size()) ||
      object < 0 || object >= static_cast<int>(nodes_.size())) {
    return Status::InvalidArgument("pattern triple: node index out of range");
  }
  if (!IsEntityKinded(nodes_[subject].kind)) {
    return Status::InvalidArgument(
        "pattern triple: subject must be x, an entity variable, or a "
        "wildcard");
  }
  triples_.push_back(PatternTriple{subject, std::string(pred), object});
  incident_.clear();
  return Status::OK();
}

Status Pattern::Validate() const {
  if (designated_ < 0) {
    return Status::InvalidArgument("pattern has no designated variable x");
  }
  int num_designated = 0;
  for (const auto& n : nodes_) {
    if (n.kind == VarKind::kDesignated) ++num_designated;
    if (IsEntityKinded(n.kind) && n.type.empty()) {
      return Status::InvalidArgument("entity-kinded pattern node '" + n.name +
                                     "' has no type");
    }
  }
  if (num_designated != 1) {
    return Status::InvalidArgument(
        "pattern must have exactly one designated variable");
  }
  if (triples_.empty()) {
    return Status::InvalidArgument("pattern has no triples");
  }
  // Duplicate names denote distinct nodes only if the builder was misused;
  // reject them so name-based lookup is unambiguous.
  for (size_t i = 0; i < nodes_.size(); ++i) {
    for (size_t j = i + 1; j < nodes_.size(); ++j) {
      if (nodes_[i].kind != VarKind::kConstant &&
          nodes_[i].name == nodes_[j].name) {
        return Status::InvalidArgument("duplicate pattern node name '" +
                                       nodes_[i].name + "'");
      }
    }
  }
  // Connectivity + every node used: BFS from x over the undirected pattern.
  std::vector<bool> seen(nodes_.size(), false);
  std::deque<int> frontier{designated_};
  seen[designated_] = true;
  const auto& inc = IncidentTriples();
  while (!frontier.empty()) {
    int u = frontier.front();
    frontier.pop_front();
    for (int t : inc[u]) {
      int v = triples_[t].subject == u ? triples_[t].object
                                       : triples_[t].subject;
      if (!seen[v]) {
        seen[v] = true;
        frontier.push_back(v);
      }
    }
  }
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (!seen[i]) {
      return Status::InvalidArgument(
          "pattern is not connected: node '" + nodes_[i].name +
          "' is not reachable from x");
    }
  }
  return Status::OK();
}

int Pattern::Radius() const {
  std::vector<int> dist(nodes_.size(), -1);
  std::deque<int> frontier{designated_};
  dist[designated_] = 0;
  int radius = 0;
  const auto& inc = IncidentTriples();
  while (!frontier.empty()) {
    int u = frontier.front();
    frontier.pop_front();
    for (int t : inc[u]) {
      int v = triples_[t].subject == u ? triples_[t].object
                                       : triples_[t].subject;
      if (dist[v] < 0) {
        dist[v] = dist[u] + 1;
        radius = std::max(radius, dist[v]);
        frontier.push_back(v);
      }
    }
  }
  return radius;
}

bool Pattern::IsRecursive() const {
  return std::any_of(nodes_.begin(), nodes_.end(), [](const PatternNode& n) {
    return n.kind == VarKind::kEntityVar;
  });
}

const std::vector<std::vector<int>>& Pattern::IncidentTriples() const {
  if (incident_.size() != nodes_.size()) {
    incident_.assign(nodes_.size(), {});
    for (int t = 0; t < static_cast<int>(triples_.size()); ++t) {
      incident_[triples_[t].subject].push_back(t);
      if (triples_[t].object != triples_[t].subject) {
        incident_[triples_[t].object].push_back(t);
      }
    }
  }
  return incident_;
}

CompiledPattern Compile(const Pattern& p, const Graph& g) {
  CompiledPattern cp;
  cp.source = &p;
  cp.designated = p.designated();
  cp.nodes.reserve(p.nodes().size());
  for (const PatternNode& n : p.nodes()) {
    CompiledNode cn;
    cn.kind = n.kind;
    if (IsEntityKinded(n.kind)) {
      cn.type = g.interner().Lookup(n.type);
      if (cn.type == kNoSymbol) cp.matchable = false;
    } else if (n.kind == VarKind::kConstant) {
      cn.constant_node = g.FindValue(n.name);
      if (cn.constant_node == kNoNode) cp.matchable = false;
    }
    cp.nodes.push_back(cn);
  }
  cp.triples.reserve(p.triples().size());
  for (const PatternTriple& t : p.triples()) {
    Symbol pred = g.interner().Lookup(t.pred);
    if (pred == kNoSymbol) cp.matchable = false;
    cp.triples.push_back(CompiledTriple{t.subject, pred, t.object});
  }
  cp.incident = p.IncidentTriples();
  if (!cp.matchable) return cp;

  // Guided-expansion plan: BFS from x; each new node is reached via one
  // incident triple whose other endpoint is already instantiated.
  std::vector<bool> placed(cp.nodes.size(), false);
  placed[cp.designated] = true;
  std::deque<int> frontier{cp.designated};
  while (!frontier.empty()) {
    int u = frontier.front();
    frontier.pop_front();
    for (int t : cp.incident[u]) {
      const CompiledTriple& ct = cp.triples[t];
      int v = ct.subject == u ? ct.object : ct.subject;
      if (placed[v]) continue;
      placed[v] = true;
      cp.plan.push_back(SearchStep{v, t, /*forward=*/ct.object == v});
      frontier.push_back(v);
    }
  }
  return cp;
}

}  // namespace gkeys
