#ifndef GKEYS_CORE_ENTITY_MATCHER_H_
#define GKEYS_CORE_ENTITY_MATCHER_H_

#include "core/chase.h"
#include "core/em_common.h"
#include "core/em_mapreduce.h"
#include "core/em_vertexcentric.h"
#include "core/matcher.h"
#include "keys/key.h"

namespace gkeys {

/// Entity matching computes chase(G, Σ) — all entity pairs of `g`
/// identified by the keys (paper §3). The primary API is the session
/// pair in core/matcher.h:
///
///     gkeys::Graph g = ...;                 // build and Finalize()
///     gkeys::KeySet keys;
///     keys.AddFromDsl(R"(
///       key AlbumByNameYear for album {
///         x -[name_of]-> n*
///         x -[release_year]-> y*
///       })");
///
///     // Compile once: keys compiled against the graph, candidate list,
///     // d-neighbors, dependency index, product-graph skeleton.
///     auto plan = gkeys::Matcher::Compile(g, keys);
///     if (!plan.ok()) { /* inspect plan.status() */ }
///
///     // Run many: any algorithm, any configuration, no recompilation.
///     gkeys::Matcher matcher(gkeys::Algorithm::kEmOptVc);
///     auto r = matcher.processors(8).Run(*plan);
///     for (auto [a, b] : r->pairs) { ... }  // duplicates to fuse
///
/// All algorithms return exactly the same `pairs` (Proposition 1); they
/// differ in execution strategy and therefore in `stats`. Streaming
/// consumers pass a MatchSink: `matcher.Run(*plan, sink)` emits each
/// confirmed pair exactly once plus per-round progress, with cooperative
/// cancellation. Errors surface as Status/StatusOr, never asserts.
///
/// This header is the umbrella: it pulls in the session API and every
/// engine family.

}  // namespace gkeys

#endif  // GKEYS_CORE_ENTITY_MATCHER_H_
