#include "graph/neighborhood.h"

namespace gkeys {

namespace {

// Below this capacity a NodeMarks array is never shrunk (reallocation
// churn would cost more than it frees).
constexpr size_t kScratchShrinkMinBytes = size_t{1} << 16;

// Visited map of the BFS below, thread-local because Phase A of plan
// compilation runs DNeighbor on several threads (ParallelFor).
thread_local NodeMarks tl_visited;

}  // namespace

void NodeMarks::Reserve(size_t num_nodes) {
  if (bytes_.size() < num_nodes) {
    bytes_.resize(num_nodes, 0);
  } else if (bytes_.capacity() >= kScratchShrinkMinBytes &&
             bytes_.capacity() / 4 >= num_nodes) {
    std::vector<uint8_t>(num_nodes, 0).swap(bytes_);
  }
}

namespace internal {
size_t DNeighborScratchBytes() { return tl_visited.capacity_bytes(); }
}  // namespace internal

NodeSet DNeighbor(const Graph& g, NodeId center, int d) {
  // Level-order BFS over the CSR adjacency with a reusable visited map,
  // wiped by unmarking only the nodes actually reached, so a call costs
  // O(|Gd| + edges scanned), not O(|G|).
  // (The loop marks and clears the bytes itself: `found` already lists
  // every node it marks.)
  tl_visited.Reserve(g.NumNodes());
  std::vector<uint8_t>& visited = tl_visited.bytes_;

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
