#ifndef GKEYS_IO_TRIPLES_H_
#define GKEYS_IO_TRIPLES_H_

#include <string>
#include <unordered_map>

#include "common/status.h"
#include "graph/graph.h"

namespace gkeys {

/// Text serialization of a graph, one triple per line in an N-Triples-like
/// format:
///
///     ent:<type>:<local-id> <predicate> ent:<type>:<local-id>
///     ent:<type>:<local-id> <predicate> val:"literal"
///
/// Local ids are per-type counters assigned at save time; loading assigns
/// fresh NodeIds but preserves structure, types, predicates, and values
/// (round-trip is isomorphism, verified by tests). Quotes and backslashes
/// inside literals are backslash-escaped. The parsers live in
/// io/fast_triples.h.
std::string SerializeGraph(const Graph& g);

/// A loaded graph together with the entity-reference table: every
/// `ent:<type>:<id>` token of the source text mapped to the NodeId it
/// was materialized as. Deltas resolve entity references through this
/// table (token identity — exactly how the graph text bound them),
/// never by re-deriving ids from the graph.
struct LoadedGraph {
  Graph graph;
  std::unordered_map<std::string, NodeId> entities;
};

/// Writes SerializeGraph(g) to `path`. IoError when the file cannot be
/// opened or any byte of it, the last flushed one included, fails to
/// write.
Status SaveGraph(const Graph& g, const std::string& path);

/// Slurps a whole file (graph text, keys DSL, delta files, …). IoError
/// naming the path when it cannot be opened or read, or is a directory.
StatusOr<std::string> ReadFile(const std::string& path);

}  // namespace gkeys

#endif  // GKEYS_IO_TRIPLES_H_
