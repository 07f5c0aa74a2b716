#include "eq/equivalence.h"

#include <algorithm>

namespace gkeys {

ConcurrentEquivalence::ConcurrentEquivalence(size_t num_nodes)
    : parent_(num_nodes) {
  for (size_t i = 0; i < num_nodes; ++i) {
    parent_[i].store(static_cast<NodeId>(i), std::memory_order_relaxed);
  }
}

NodeId ConcurrentEquivalence::Find(NodeId n) const {
  // Path halving with relaxed CAS; safe because parents only ever move
  // toward roots.
  for (;;) {
    NodeId p = parent_[n].load(std::memory_order_acquire);
    if (p == n) return n;
    NodeId gp = parent_[p].load(std::memory_order_acquire);
    if (gp == p) return p;
    parent_[n].compare_exchange_weak(p, gp, std::memory_order_release,
                                     std::memory_order_relaxed);
    n = gp;
  }
}

bool ConcurrentEquivalence::Same(NodeId a, NodeId b) const {
  for (;;) {
    NodeId ra = Find(a), rb = Find(b);
    if (ra == rb) return true;
    // ra might have been merged under rb (or elsewhere) between the two
    // Finds; it is still a root iff its parent is itself.
    if (parent_[ra].load(std::memory_order_acquire) == ra) return false;
  }
}

bool ConcurrentEquivalence::Union(NodeId a, NodeId b) {
  for (;;) {
    NodeId ra = Find(a), rb = Find(b);
    if (ra == rb) return false;
    // Deterministic tie-break: larger root id points at smaller, which
    // keeps the structure acyclic under concurrency.
    if (ra < rb) std::swap(ra, rb);
    NodeId expected = ra;
    if (parent_[ra].compare_exchange_strong(expected, rb,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
      merges_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    // Lost the race; retry from the new roots.
  }
}

std::vector<std::pair<NodeId, NodeId>> ClassPairs(
    std::vector<uint64_t> members) {
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  auto root = [&members](size_t i) { return members[i] >> 32; };
  auto member = [&members](size_t i) {
    return static_cast<NodeId>(members[i]);
  };
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (size_t begin = 0, end = 0; begin < members.size(); begin = end) {
    while (end < members.size() && root(end) == root(begin)) ++end;
    for (size_t i = begin; i < end; ++i) {
      for (size_t j = i + 1; j < end; ++j) {
        pairs.emplace_back(member(i), member(j));
      }
    }
  }
  // Classes come out in root order, each one's pairs ascending: sorted
  // already unless some class's members reach past the next class's
  // first member.
  if (!std::is_sorted(pairs.begin(), pairs.end())) {
    std::sort(pairs.begin(), pairs.end());
  }
  return pairs;
}

std::vector<std::pair<NodeId, NodeId>> PairsOfMergedClasses(
    const ConcurrentEquivalence& eq,
    std::span<const std::pair<NodeId, NodeId>> merges) {
  std::vector<uint64_t> members;
  members.reserve(2 * merges.size());
  for (const auto& [a, b] : merges) {
    members.push_back(ClassEntry(eq.Find(a), a));
    members.push_back(ClassEntry(eq.Find(b), b));
  }
  return ClassPairs(std::move(members));
}

}  // namespace gkeys
