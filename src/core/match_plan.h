#ifndef GKEYS_CORE_MATCH_PLAN_H_
#define GKEYS_CORE_MATCH_PLAN_H_

#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "common/status.h"
#include "core/em_common.h"
#include "core/product_graph.h"
#include "graph/delta.h"
#include "graph/graph.h"
#include "keys/key.h"

namespace gkeys {

/// An immutable, reusable matching plan: the key set compiled against a
/// graph. Holds the CompiledKeys (pattern + EMVC tour), per-type d-neighbor
/// bounds, the candidate list L (optionally pairing-reduced, with ghost
/// tracking), the entity-dependency index, and — by default — the product
/// graph skeleton. Produced by Matcher::Compile; executed by Matcher::Run
/// any number of times, by any algorithm, without recompilation.
///
/// A MatchPlan is a cheap, thread-safe handle (shared immutable state);
/// copies share one compiled representation, and concurrent Runs over
/// one plan are safe because runs never mutate it. The source Graph and
/// KeySet are referenced, not copied — they must outlive every plan
/// compiled from them, and mutating the graph (Graph::Apply) invalidates
/// every plan compiled against its pre-mutation state for RUNNING (patch
/// the plan and run the patched one; the stale plan remains safe as the
/// Patch source and for accessor reads).
///
/// Error contract: compilation and patching return Status instead of
/// asserting — FailedPrecondition for sequencing mistakes (unfinalized
/// graph; Patch before Apply), InvalidArgument for bad inputs (empty
/// plan/key set, foreign delta, nonsensical options).
class MatchPlan {
 public:
  /// An empty plan; running it yields InvalidArgument. Compile makes
  /// valid ones.
  MatchPlan() = default;

  bool valid() const { return rep_ != nullptr; }

  /// The graph and key set this plan was compiled against. These
  /// reference-returning accessors (and context()/product_graph())
  /// require valid(); the value-returning ones below are safe on an
  /// empty plan.
  const Graph& graph() const { return rep_->ctx.graph(); }
  const KeySet& keys() const { return *rep_->keys; }

  /// The options the plan was compiled with (PlanOptions{} when empty).
  PlanOptions options() const {
    return valid() ? rep_->ctx.options() : PlanOptions{};
  }

  /// The shared preparation product (compiled keys, candidates, neighbor
  /// sets, dependency index) the execution engines run over.
  const EmContext& context() const { return rep_->ctx; }

  bool has_product_graph() const { return valid() && rep_->pg.has_value(); }
  const ProductGraph& product_graph() const { return *rep_->pg; }

  /// |L| after compilation (post-pairing when enabled). 0 on an empty plan.
  size_t num_candidates() const {
    return valid() ? rep_->ctx.candidates().size() : 0;
  }

  /// Wall-clock seconds compilation took; Matcher::Run reports it as
  /// EmStats::prep_seconds so amortization stays visible.
  double compile_seconds() const {
    return valid() ? rep_->compile_seconds : 0.0;
  }

  /// Approximate heap footprint of the compiled structures in bytes
  /// (candidates, neighbor sets, dependency index, signature tables,
  /// product graph); the workload and bench rows report this plus the
  /// result's provenance index (ProvenanceIndexBytes) as `plan_bytes`.
  /// It sums array capacities (see EmContext::MemoryBytes), so the heap
  /// is somewhat larger, and walks the whole plan, so no run or patch
  /// calls it. 0 on an empty plan. This IN-MEMORY figure is distinct
  /// from the serialized snapshot size (MmapStore::file_bytes): the
  /// snapshot varint-packs payloads, carries no capacity slack, and
  /// stores COW-shared sections once, so it is typically much smaller.
  size_t memory_bytes() const {
    if (!valid()) return 0;
    return rep_->ctx.MemoryBytes() +
           (rep_->pg.has_value() ? rep_->pg->MemoryBytes() : 0);
  }

  /// Incremental recompilation: given a delta that has ALREADY been
  /// applied to this plan's graph (Graph::Apply re-finalizes it), builds
  /// the plan for the post-delta graph by recompiling only the affected
  /// region and sharing every untouched section (d-neighbor sets, pairing
  /// reductions, surviving candidates of clean types) with this plan,
  /// copy-on-write. An entity is affected when the delta may have changed
  /// the subgraph its d-ball induces: when it lies closer than its type's
  /// radius d to a touched node, or at exactly d with both ends of one
  /// added or removed triple in its stored d-neighbor set (see the
  /// EmContext patch constructor, which gets the touched nodes and each
  /// triple's subject and object). A spoke added to a hub thus recompiles
  /// the spoke and the hub, not every entity next to the hub. The patched
  /// plan records which candidates are dirty so Matcher::Rematch can
  /// re-run exactly those.
  ///
  /// After Graph::Apply this source plan's graph has changed underneath
  /// it: do not Run the source plan again — run the patched one.
  ///
  /// compile_seconds() of the patched plan is the PATCH cost, so
  /// EmStats::prep_seconds keeps reporting what the plan in hand actually
  /// cost. Errors: InvalidArgument on an empty plan or a delta staged
  /// against a different graph; FailedPrecondition when the delta has not
  /// been applied (graph unfinalized or node count mismatch).
  StatusOr<MatchPlan> Patch(const GraphDelta& delta) const;

  /// Whether this plan came from Patch (then dirty_candidates() is the
  /// re-check set for a seeded rematch).
  bool patched() const { return valid() && rep_->patched; }

  /// Indices into context().candidates() whose check outcome may differ
  /// from the pre-delta plan. Empty on a non-patched plan (Rematch then
  /// re-checks everything).
  std::span<const uint32_t> dirty_candidates() const {
    return valid() ? std::span<const uint32_t>(rep_->dirty_candidates)
                   : std::span<const uint32_t>();
  }

  /// Patch cost breakdown and reuse accounting; nullptr unless patched().
  const ContextPatchInfo* patch_info() const {
    return patched() ? &rep_->patch_info : nullptr;
  }

  /// Keyed entities whose signatures / d-neighbors / pairing domains the
  /// patch recompiled (0 on empty or non-patched plans). Compare against
  /// context().neighbor_entities().
  size_t num_affected_entities() const {
    return patched() ? rep_->patch_info.affected_entities.size() : 0;
  }

 private:
  friend StatusOr<MatchPlan> CompileMatchPlan(const Graph& g,
                                              const KeySet& keys,
                                              const PlanOptions& opts);
  // Snapshot (de)serialization constructs Reps via the shell constructor
  // below and fills the context from storage records.
  friend class storage::PlanCodec;

  struct Rep {
    // Patch: incremental rebuild sharing untouched state (and the plan
    // options) with `prev`. A compile passes the empty deserialization
    // shell with every node dirty and no delta triple. A plan that builds
    // Gp keeps each candidate's pairing relation in its pairing output,
    // which PatchProductGraph reads.
    Rep(const EmContext& prev, const KeySet& k,
        std::span<const NodeId> dirty_nodes,
        std::span<const std::pair<NodeId, NodeId>> delta_triples,
        ContextPatchInfo* info)
        : keys(&k),
          ctx(prev, dirty_nodes, delta_triples, info,
              prev.options().build_product_graph) {}

    // Deserialization shell (storage::PlanCodec): the context binds
    // graph/keys/options and compiles the keys; the codec restores the
    // rest.
    Rep(EmContext::DeserializeShell shell, const Graph& g, const KeySet& k,
        const PlanOptions& popts)
        : keys(&k), ctx(shell, g, k, popts) {}

    const KeySet* keys;
    EmContext ctx;
    std::optional<ProductGraph> pg;
    double compile_seconds = 0.0;
    bool patched = false;
    std::vector<uint32_t> dirty_candidates;
    ContextPatchInfo patch_info;
  };

  explicit MatchPlan(std::shared_ptr<const Rep> rep) : rep_(std::move(rep)) {}

  std::shared_ptr<const Rep> rep_;
};

/// Compiles `keys` against `g`. Errors surface as Status rather than
/// asserts: FailedPrecondition for an unfinalized graph, InvalidArgument
/// for an empty key set or nonsensical options.
StatusOr<MatchPlan> CompileMatchPlan(const Graph& g, const KeySet& keys,
                                     const PlanOptions& opts = {});

}  // namespace gkeys

#endif  // GKEYS_CORE_MATCH_PLAN_H_
