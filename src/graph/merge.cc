#include "graph/merge.h"

#include "eq/equivalence.h"

namespace gkeys {

FusionResult FuseEntities(
    const Graph& g,
    const std::vector<std::pair<NodeId, NodeId>>& identified_pairs) {
  ConcurrentEquivalence classes(g.NumNodes());
  for (auto [a, b] : identified_pairs) classes.Union(a, b);

  FusionResult out;
  out.node_map.resize(g.NumNodes());
  // One pass in id order: a class's root is its smallest member, so it
  // is seen first and becomes the representative, and output ids are
  // stable.
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    const NodeId root = classes.Find(n);
    if (root != n) {
      out.node_map[n] = out.node_map[root];
      if (g.IsEntity(n)) ++out.entities_fused;
    } else if (g.IsEntity(n)) {
      out.node_map[n] =
          out.graph.AddEntity(g.interner().Resolve(g.entity_type(n)));
    } else {
      out.node_map[n] = out.graph.AddValue(g.value_str(n));
    }
  }
  g.ForEachTriple([&](const Triple& t) {
    out.graph.AddTriple(out.node_map[t.subject],
                              g.interner().Resolve(t.pred),
                              out.node_map[t.object]).IgnoreError();
  });
  out.graph.Finalize();  // deduplicates the parallel fused triples
  return out;
}

}  // namespace gkeys
