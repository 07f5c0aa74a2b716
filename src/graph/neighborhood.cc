#include "graph/neighborhood.h"

namespace gkeys {

namespace {

// Reusable visited map for the BFS below, thread-local because Phase A of
// plan compilation runs DNeighbor on several threads (ParallelFor).
// Below this capacity the buffer is never shrunk (reallocation churn would
// cost more than it frees).
constexpr size_t kScratchShrinkMinBytes = size_t{1} << 16;
thread_local std::vector<uint8_t> tl_visited;

}  // namespace

namespace internal {
size_t DNeighborScratchBytes() { return tl_visited.capacity(); }
}  // namespace internal

NodeSet DNeighbor(const Graph& g, NodeId center, int d) {
  // Level-order BFS over the CSR adjacency with a reusable visited map,
  // wiped by unmarking only the nodes actually reached, so a call costs
  // O(|Gd| + edges scanned), not O(|G|).
  std::vector<uint8_t>& visited = tl_visited;
  const size_t need = g.NumNodes();
  if (visited.size() < need) {
    visited.resize(need, 0);
  } else if (visited.capacity() >= kScratchShrinkMinBytes &&
             visited.capacity() / 4 >= need) {
    // The scratch was sized for a much larger graph than the current one;
    // without this it would pin the largest graph ever seen on this
    // thread for the thread's whole lifetime.
    std::vector<uint8_t>(need, 0).swap(visited);
  }

  std::vector<NodeId> found;
  found.push_back(center);
  visited[center] = 1;
  size_t level_begin = 0;
  size_t level_end = 1;
  for (int dist = 0; dist < d && level_begin < level_end; ++dist) {
    for (size_t i = level_begin; i < level_end; ++i) {
      NodeId n = found[i];
      for (const Edge& e : g.Out(n)) {
        if (!visited[e.dst]) {
          visited[e.dst] = 1;
          found.push_back(e.dst);
        }
      }
      for (const Edge& e : g.In(n)) {
        if (!visited[e.dst]) {
          visited[e.dst] = 1;
          found.push_back(e.dst);
        }
      }
    }
    level_begin = level_end;
    level_end = found.size();
  }
  for (NodeId n : found) visited[n] = 0;
  std::sort(found.begin(), found.end());
  return NodeSet::FromSorted(std::move(found));
}

}  // namespace gkeys
