#include "storage/durable_dir.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "storage/mmap_store.h"
#include "storage/snapshot.h"

namespace gkeys {
namespace storage {

namespace {

std::string GenName(const char* prefix, uint64_t generation,
                    const char* suffix) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%06llu%s", prefix,
                static_cast<unsigned long long>(generation), suffix);
  return buf;
}

/// Parses "<prefix>NNNNNN<suffix>" back to a generation; false otherwise.
bool ParseGenName(const std::string& name, const char* prefix,
                  const char* suffix, uint64_t* generation) {
  size_t plen = std::strlen(prefix), slen = std::strlen(suffix);
  if (name.size() <= plen + slen) return false;
  if (name.compare(0, plen, prefix) != 0) return false;
  if (name.compare(name.size() - slen, slen, suffix) != 0) return false;
  uint64_t g = 0;
  for (size_t i = plen; i < name.size() - slen; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    g = g * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  *generation = g;
  return true;
}

bool FileExists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

}  // namespace

std::string DurableDir::SnapshotPath(uint64_t generation) const {
  return dir_ + "/" + GenName("snap.", generation, ".gks");
}

std::string DurableDir::WalPath(uint64_t generation) const {
  return dir_ + "/" + GenName("wal.", generation, ".log");
}

StatusOr<std::vector<uint64_t>> DurableDir::ListGenerations(
    const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr)
    return Status::IoError("cannot open directory " + dir + ": " +
                           std::strerror(errno));
  std::vector<uint64_t> gens;
  while (struct dirent* ent = ::readdir(d)) {
    uint64_t g = 0;
    if (ParseGenName(ent->d_name, "snap.", ".gks", &g)) gens.push_back(g);
  }
  ::closedir(d);
  std::sort(gens.rbegin(), gens.rend());
  return gens;
}

StatusOr<DurableDir> DurableDir::Open(std::string dir) {
  if (dir.empty()) return Status::InvalidArgument("DurableDir: empty path");
  while (dir.size() > 1 && dir.back() == '/') dir.pop_back();
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST)
    return Status::IoError("cannot create directory " + dir + ": " +
                           std::strerror(errno));

  DurableDir out(std::move(dir));
  auto gens = ListGenerations(out.dir_);
  if (!gens.ok()) return gens.status();
  if (!gens->empty()) {
    out.generation_ = gens->front();
    // Re-attach to the current generation's log so ingestion can resume
    // right where the last process stopped; a torn tail (crash mid-
    // append) is truncated away here. A missing or unusable log leaves
    // wal_ null: AppendDeltaText then demands a fresh SaveSnapshot, and
    // recovery still works from the snapshot alone.
    std::string wal_path = out.WalPath(out.generation_);
    if (FileExists(wal_path)) {
      auto wal = DeltaLog::OpenForAppend(wal_path, nullptr);
      if (wal.ok() && (*wal)->generation() == out.generation_) {
        out.wal_ = std::move(*wal);
      }
    }
  }
  return out;
}

Status DurableDir::SaveSnapshot(
    const Graph& g, const KeySet& keys, const MatchPlan& plan,
    const MatchResult& result, Algorithm algorithm,
    const std::unordered_map<std::string, NodeId>* entity_names,
    int keep_last) {
  if (keep_last < 1)
    return Status::InvalidArgument("DurableDir: keep_last must be >= 1");
  const uint64_t next = generation_ + 1;

  // Snapshot first. MmapStore::Flush is the atomic install point
  // (write-temp → fsync → rename → dir-fsync); any failure before the
  // rename leaves snap.<generation_> as the newest valid snapshot.
  auto store = MmapStore::Create(SnapshotPath(next));
  if (!store.ok()) return store.status();
  GKEYS_RETURN_IF_ERROR(Snapshot::Save(**store, g, keys, plan, result,
                                       algorithm, entity_names));
  // From here on the install may land even if we return an error (the
  // rename can be durable while a later step fails), and recovery would
  // then pick snap.<next> and never read the old log again. Stop
  // acknowledging appends into it NOW: until a SaveSnapshot succeeds,
  // AppendDeltaText fails FailedPrecondition instead of acking batches that
  // recovery could not see.
  wal_.reset();
  GKEYS_RETURN_IF_ERROR((*store)->Flush());

  // Fresh log tied to the new snapshot. If THIS fails (ENOSPC after the
  // rename landed), the new snapshot is already valid and log-less —
  // recovery reads it as "generation next, zero pending batches", which
  // is exactly the durable state; we still report the error and keep
  // generation_ unbumped so a retry re-installs cleanly.
  auto wal = DeltaLog::Create(WalPath(next), next);
  if (!wal.ok()) return wal.status();
  wal_ = std::move(*wal);
  generation_ = next;

  // Prune beyond keep-last-N, oldest first; best-effort (a leftover old
  // generation is dead weight, never a correctness problem).
  if (next > static_cast<uint64_t>(keep_last)) {
    uint64_t last_kept = next - static_cast<uint64_t>(keep_last);
    auto gens = ListGenerations(dir_);
    if (gens.ok()) {
      for (uint64_t g_old : *gens) {
        if (g_old > last_kept) continue;
        std::remove(SnapshotPath(g_old).c_str());
        std::remove(WalPath(g_old).c_str());
      }
    }
  }
  return Status::OK();
}

Status DurableDir::AppendDeltaText(std::string_view text) {
  if (wal_ == nullptr)
    return Status::FailedPrecondition(
        "DurableDir " + dir_ +
        ": no writable log for the current generation; SaveSnapshot first");
  std::string payload;
  payload.reserve(1 + text.size());
  payload.push_back(kTextDeltaTag);
  payload.append(text);
  return wal_->Append(payload);
}

}  // namespace storage
}  // namespace gkeys
