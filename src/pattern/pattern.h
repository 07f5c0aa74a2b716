#ifndef GKEYS_PATTERN_PATTERN_H_
#define GKEYS_PATTERN_PATTERN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace gkeys {

/// The kinds of nodes a graph pattern Q(x) may contain (paper §2.1):
///   * designated variable x       — the entity being identified;
///   * entity variable  y          — must map to entities identified as the
///                                   same (node identity / Eq); makes the
///                                   key recursively defined;
///   * value variable   y*         — must map to equal values;
///   * wildcard         ȳ          — must map to same-type entities, whose
///                                   identity is NOT checked;
///   * constant         d          — a literal value-binding condition.
enum class VarKind : uint8_t {
  kDesignated,
  kEntityVar,
  kValueVar,
  kWildcard,
  kConstant,
};

/// One node of a pattern. Nodes with the same name are the same node; the
/// builder below enforces unique names.
struct PatternNode {
  VarKind kind;
  std::string name;  // variable name, or the literal text for constants
  std::string type;  // entity type for designated/entity-var/wildcard
};

/// One pattern triple (s_Q, p_Q, o_Q): indices into the node list plus a
/// predicate name.
struct PatternTriple {
  int subject;
  std::string pred;
  int object;
};

/// A graph pattern Q(x): a connected set of pattern triples with one
/// designated entity variable x (paper §2.1). Build with the Add* methods,
/// then call Validate() once; all matchers require a valid pattern.
class Pattern {
 public:
  Pattern() = default;

  // ---- Builder ----

  /// Adds the designated variable x of entity type `type`. Must be called
  /// exactly once. Returns its node index.
  int AddDesignated(std::string_view type, std::string_view name = "x");

  /// Adds an entity variable (recursive reference) of entity type `type`.
  int AddEntityVar(std::string_view name, std::string_view type);

  /// Adds a value variable.
  int AddValueVar(std::string_view name);

  /// Adds a wildcard of entity type `type`.
  int AddWildcard(std::string_view name, std::string_view type);

  /// Adds a constant literal node. Equal literals share one node.
  int AddConstant(std::string_view literal);

  /// Adds pattern triple (nodes[subject], pred, nodes[object]).
  Status AddTriple(int subject, std::string_view pred, int object);

  /// Checks structural invariants: exactly one designated variable, all
  /// subjects entity-kinded, at least one triple, every node used by some
  /// triple, connectivity of the (undirected) pattern graph.
  Status Validate() const;

  // ---- Accessors ----

  const std::vector<PatternNode>& nodes() const { return nodes_; }
  const std::vector<PatternTriple>& triples() const { return triples_; }

  /// Index of the designated variable, or -1 if not added yet.
  int designated() const { return designated_; }

  /// Entity type of the designated variable (the type this key is for).
  const std::string& designated_type() const {
    return nodes_[designated_].type;
  }

  /// |Q|: the number of triples.
  size_t size() const { return triples_.size(); }

  /// d(Q, x): the longest undirected distance from x to any pattern node
  /// (paper Table 1). Requires a valid pattern.
  int Radius() const;

  /// A key is recursively defined iff it contains an entity variable other
  /// than x, and value-based otherwise (paper §2.2).
  bool IsRecursive() const;

  /// Triple indices incident to each node (both directions), in triple
  /// order. Computed on demand and cached.
  const std::vector<std::vector<int>>& IncidentTriples() const;

 private:
  int AddNode(VarKind kind, std::string_view name, std::string_view type);

  std::vector<PatternNode> nodes_;
  std::vector<PatternTriple> triples_;
  int designated_ = -1;
  mutable std::vector<std::vector<int>> incident_;  // lazy cache
};

// ---------------------------------------------------------------------------
// Compiled form: a pattern bound to a concrete graph's symbol table, plus a
// guided search plan. All matchers (EvalMR search, VF2, pairing, EMVC tour
// propagation) consume CompiledPattern.
// ---------------------------------------------------------------------------

/// A pattern node with graph-resolved symbols.
struct CompiledNode {
  VarKind kind;
  Symbol type = kNoSymbol;          // entity type symbol (entity-kinded nodes)
  NodeId constant_node = kNoNode;   // graph value node for constants
};

/// A pattern triple with the predicate resolved to a graph symbol.
struct CompiledTriple {
  int subject;
  Symbol pred;
  int object;
};

/// One step of the guided search plan: instantiate `node` by following
/// `via_triple` from its already-instantiated other endpoint. `forward`
/// is true when the new node is the triple's object.
struct SearchStep {
  int node;
  int via_triple;
  bool forward;
};

/// A pattern compiled against a specific graph.
struct CompiledPattern {
  const Pattern* source = nullptr;
  std::vector<CompiledNode> nodes;
  std::vector<CompiledTriple> triples;
  int designated = 0;
  /// False when some predicate / type / constant does not occur in the
  /// graph at all — the pattern can never match and matchers return early.
  bool matchable = true;
  /// Guided expansion order: every node except x, each anchored to an
  /// earlier-instantiated node (BFS from x). Empty iff !matchable.
  std::vector<SearchStep> plan;
  /// For each pattern node, incident triple indices (mirrors
  /// Pattern::IncidentTriples, kept here so matchers need only this struct).
  std::vector<std::vector<int>> incident;
};

/// Binds `p` (which must be valid) to `g`'s symbols and builds the search
/// plan. Cheap; called once per (key, graph) pair by the algorithms.
CompiledPattern Compile(const Pattern& p, const Graph& g);

}  // namespace gkeys

#endif  // GKEYS_PATTERN_PATTERN_H_
