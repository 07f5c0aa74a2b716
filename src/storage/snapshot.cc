#include "storage/snapshot.h"

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/endian.h"
#include "storage/plan_codec.h"

namespace gkeys {
namespace storage {

Status Snapshot::Save(
    Store& store, const Graph& g, const KeySet& keys, const MatchPlan& plan,
    const MatchResult& result, Algorithm algorithm,
    const std::unordered_map<std::string, NodeId>* entity_names) {
  if (!plan.valid())
    return Status::InvalidArgument("Snapshot::Save: empty plan");
  if (&plan.graph() != &g || &plan.keys() != &keys) {
    return Status::InvalidArgument(
        "Snapshot::Save: plan was compiled against a different graph/keys");
  }
  if (!g.finalized()) {
    return Status::FailedPrecondition(
        "Snapshot::Save: graph has unapplied mutations (Finalize first)");
  }

  SnapshotMeta meta;
  meta.algorithm = algorithm;
  GKEYS_RETURN_IF_ERROR(PlanCodec::EncodeGraph(g, store, &meta));
  GKEYS_RETURN_IF_ERROR(store.Put("K", ToDsl(keys)));
  if (entity_names != nullptr && !entity_names->empty()) {
    // Sorted by node, then name, so the record is deterministic across
    // runs.
    std::vector<std::pair<NodeId, std::string_view>> sorted;
    sorted.reserve(entity_names->size());
    for (const auto& [name, node] : *entity_names) {
      sorted.emplace_back(node, name);
    }
    std::sort(sorted.begin(), sorted.end());
    std::string t;
    PutVarint(t, sorted.size());
    for (const auto& [node, name] : sorted) {
      PutVarint(t, name.size());
      t.append(name);
      PutVarint(t, node);
    }
    GKEYS_RETURN_IF_ERROR(store.Put("T", std::move(t)));
    meta.has_entity_names = true;
  }
  GKEYS_RETURN_IF_ERROR(PlanCodec::EncodePlan(plan, store, &meta));
  GKEYS_RETURN_IF_ERROR(PlanCodec::EncodeResult(result, store, &meta));
  return PlanCodec::EncodeMeta(meta, store);
}

StatusOr<Snapshot> Snapshot::Load(const Store& store) {
  auto meta = PlanCodec::DecodeMeta(store);
  if (!meta.ok()) return meta.status();

  Snapshot snap;
  snap.algorithm_ = meta->algorithm;

  auto graph = PlanCodec::DecodeGraph(store, *meta);
  if (!graph.ok()) return graph.status();
  snap.graph_ = std::make_unique<Graph>(std::move(graph).value());

  auto dsl = store.Get("K");
  if (!dsl.ok())
    return Status::ParseError("corrupt snapshot: missing key-set record");
  snap.keys_ = std::make_unique<KeySet>();
  Status st = snap.keys_->AddFromDsl(*dsl);
  if (!st.ok())
    return Status::ParseError("corrupt snapshot: bad key set: " +
                              st.message());

  if (meta->has_entity_names) {
    auto t = store.Get("T");
    if (!t.ok())
      return Status::ParseError(
          "corrupt snapshot: missing entity-name record");
    ByteReader r(*t);
    uint64_t count = 0;
    if (!r.ReadVarint(&count) || count > t->size())
      return Status::ParseError("corrupt snapshot: bad entity-name count");
    snap.entity_names_.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t len = 0;
      std::string_view name;
      uint32_t node = 0;
      if (!r.ReadVarint(&len) || !r.ReadBytes(len, &name) ||
          !r.ReadVarint32(&node) || node >= snap.graph_->NumNodes()) {
        return Status::ParseError("corrupt snapshot: bad entity-name entry");
      }
      if (!snap.graph_->IsEntity(node))
        return Status::ParseError("corrupt snapshot: entity name " +
                                  std::string(name) + " names a value node");
      if (!snap.entity_names_.emplace(std::string(name), node).second)
        return Status::ParseError("corrupt snapshot: entity name " +
                                  std::string(name) + " bound twice");
    }
    if (!r.AtEnd())
      return Status::ParseError(
          "corrupt snapshot: trailing bytes in entity-name record");
  }

  auto plan = PlanCodec::DecodePlan(store, *meta, *snap.graph_, *snap.keys_);
  if (!plan.ok()) return plan.status();
  snap.plan_ = std::move(plan).value();

  auto result = PlanCodec::DecodeResult(store, *meta);
  if (!result.ok()) return result.status();
  snap.result_ = std::move(result).value();

  return snap;
}

IngestSession Snapshot::session(
    std::unordered_map<std::string, NodeId>& entity_names) {
  return IngestSession{graph_.get(), &plan_, &result_, &entity_names};
}

}  // namespace storage
}  // namespace gkeys
