#ifndef GKEYS_TESTS_DEPENDENCY_REFERENCE_H_
#define GKEYS_TESTS_DEPENDENCY_REFERENCE_H_

#include <algorithm>
#include <cstdint>
#include <set>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/em_common.h"
#include "isomorph/pairing.h"

namespace gkeys {
namespace testing {

/// The §4.2 dependency scan of candidate `c` from its definition, over
/// the public plan: every same-type pair of keyed entities lying in c's
/// neighbor sets (one per side, either orientation) whose type is that of
/// an entity variable of one of c's keys, packed (min, max), ascending.
/// Only candidates with a recursive key are scanned.
inline std::vector<uint64_t> ReferenceDependencyScan(const EmContext& ctx,
                                                     const Candidate& c) {
  std::vector<uint64_t> out;
  if (!c.has_recursive_key) return out;
  const Graph& g = ctx.graph();
  std::set<Symbol> keyed, dep_types;
  for (const CompiledKey& ck : ctx.compiled_keys()) {
    const Symbol t = ck.cp.nodes[ck.cp.designated].type;
    if (t != kNoSymbol) keyed.insert(t);
  }
  for (int ki : *c.keys) {
    for (const CompiledNode& n : ctx.compiled_keys()[ki].cp.nodes) {
      if (n.kind == VarKind::kEntityVar) dep_types.insert(n.type);
    }
  }
  auto wanted = [&](NodeId n) {
    return g.IsEntity(n) && dep_types.contains(g.entity_type(n));
  };
  for (const auto& [near, far] : {std::pair(c.nbr1, c.nbr2),
                                  std::pair(c.nbr2, c.nbr1)}) {
    for (NodeId n : *near) {
      if (!wanted(n)) continue;
      for (NodeId m : *far) {
        if (m == n || !wanted(m) || g.entity_type(m) != g.entity_type(n) ||
            !keyed.contains(g.entity_type(m))) {
          continue;
        }
        out.push_back(PackPair(std::min(n, m), std::max(n, m)));
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// A dependency index as the engines read it: dependents per candidate,
/// ghosts and the ghosts' dependents.
struct ReferenceDependencies {
  std::vector<std::vector<uint32_t>> dependents;
  std::vector<std::pair<NodeId, NodeId>> ghosts;
  std::vector<std::vector<uint32_t>> ghost_dependents;
};

/// The whole-L inversion the plan once ran on every patch, kept as the
/// oracle of EmContext::IndexDependencies: each scanned pair of
/// candidate j that is a candidate i != j makes j a dependent of i; a
/// scanned pair outside L is a ghost with dependent j. Rows ascend.
inline ReferenceDependencies InvertDependencyScans(
    std::span<const Candidate> candidates,
    const std::vector<std::vector<uint64_t>>& scans) {
  constexpr uint32_t kNotInL = UINT32_MAX;
  auto index_in_l = [&](uint64_t packed) -> uint32_t {
    auto it = std::lower_bound(
        candidates.begin(), candidates.end(), packed,
        [](const Candidate& c, uint64_t v) {
          return PackPair(c.e1, c.e2) < v;
        });
    if (it == candidates.end() || PackPair(it->e1, it->e2) != packed) {
      return kNotInL;
    }
    return static_cast<uint32_t>(it - candidates.begin());
  };
  ReferenceDependencies out;
  out.dependents.resize(candidates.size());
  std::vector<std::pair<uint64_t, uint32_t>> ghost_entries;
  for (uint32_t j = 0; j < scans.size(); ++j) {
    for (uint64_t packed : scans[j]) {
      const uint32_t i = index_in_l(packed);
      if (i == kNotInL) {
        ghost_entries.emplace_back(packed, j);
      } else if (i != j) {
        out.dependents[i].push_back(j);
      }
    }
  }
  std::sort(ghost_entries.begin(), ghost_entries.end());
  for (size_t e = 0; e < ghost_entries.size(); ++e) {
    const uint64_t packed = ghost_entries[e].first;
    if (e == 0 || packed != ghost_entries[e - 1].first) {
      out.ghosts.emplace_back(static_cast<NodeId>(packed >> 32),
                              static_cast<NodeId>(packed & 0xffffffffu));
      out.ghost_dependents.emplace_back();
    }
    out.ghost_dependents.back().push_back(ghost_entries[e].second);
  }
  return out;
}

/// The whole-L inversion of every candidate's scan, each scan taken from
/// its definition.
inline ReferenceDependencies ReferenceDependencyIndex(const EmContext& ctx) {
  const std::vector<Candidate>& cands = ctx.candidates();
  std::vector<std::vector<uint64_t>> scans;
  scans.reserve(cands.size());
  for (const Candidate& c : cands) {
    scans.push_back(ReferenceDependencyScan(ctx, c));
  }
  return InvertDependencyScans(cands, scans);
}

/// Fails unless `ctx`'s dependency index equals `want`.
inline void ExpectDependencyIndexEquals(const EmContext& ctx,
                                        const ReferenceDependencies& want) {
  const std::vector<Candidate>& cands = ctx.candidates();
  ASSERT_EQ(cands.size(), want.dependents.size());
  for (uint32_t i = 0; i < cands.size(); ++i) {
    const std::span<const uint32_t> got = ctx.dependents(i);
    ASSERT_EQ(std::vector<uint32_t>(got.begin(), got.end()),
              want.dependents[i])
        << "dependents of candidate " << i << " (" << cands[i].e1 << ", "
        << cands[i].e2 << ")";
  }
  ASSERT_EQ(ctx.ghosts().size(), want.ghosts.size());
  for (uint32_t g = 0; g < want.ghosts.size(); ++g) {
    ASSERT_EQ(ctx.ghosts()[g].e1, want.ghosts[g].first) << "ghost " << g;
    ASSERT_EQ(ctx.ghosts()[g].e2, want.ghosts[g].second) << "ghost " << g;
    const std::span<const uint32_t> got = ctx.ghost_dependents(g);
    ASSERT_EQ(std::vector<uint32_t>(got.begin(), got.end()),
              want.ghost_dependents[g])
        << "dependents of ghost " << g;
  }
}

/// Fails unless `ctx`'s dependency index equals the whole-L inversion of
/// every candidate's scan, each scan taken from its definition.
inline void ExpectDependencyIndexMatchesReference(const EmContext& ctx) {
  ExpectDependencyIndexEquals(ctx, ReferenceDependencyIndex(ctx));
}

}  // namespace testing
}  // namespace gkeys

#endif  // GKEYS_TESTS_DEPENDENCY_REFERENCE_H_
