#include "io/triples.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_map>

namespace gkeys {

namespace {

std::string EscapeLiteral(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// Renders a node reference. Entities carry a per-type local id so the
/// format is stable under NodeId renumbering.
std::string NodeRef(const Graph& g, NodeId n,
                    const std::unordered_map<NodeId, size_t>& local_ids) {
  if (g.IsValue(n)) return "val:\"" + EscapeLiteral(g.value_str(n)) + "\"";
  return "ent:" + g.interner().Resolve(g.entity_type(n)) + ":" +
         std::to_string(local_ids.at(n));
}

}  // namespace

std::string SerializeGraph(const Graph& g) {
  // Assign per-type local ids in NodeId order for determinism.
  std::unordered_map<NodeId, size_t> local_ids;
  std::unordered_map<Symbol, size_t> counters;
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    if (g.IsEntity(n)) local_ids[n] = counters[g.entity_type(n)]++;
  }
  std::ostringstream out;
  g.ForEachTriple([&](const Triple& t) {
    out << NodeRef(g, t.subject, local_ids) << ' '
        << g.interner().Resolve(t.pred) << ' '
        << NodeRef(g, t.object, local_ids) << '\n';
  });
  // Isolated entities (no triples) still need a line to survive the
  // round-trip; emit them with the reserved predicate `@exists`.
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    if (g.IsEntity(n) && g.OutDegree(n) == 0 && g.InDegree(n) == 0) {
      out << NodeRef(g, n, local_ids) << " @exists val:\"\"\n";
    }
  }
  return out.str();
}

Status SaveGraph(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for write: " + path);
  out << SerializeGraph(g);
  // A text that fits the stream buffer is written only here, so a write
  // error may surface only at the flush.
  out.close();
  return out.fail() ? Status::IoError("write failed: " + path)
                    : Status::OK();
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for read: " + path);
  // A directory opens, then reads as an empty file.
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    return Status::IoError("cannot read a directory: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return Status::IoError("read failed: " + path);
  return buf.str();
}

}  // namespace gkeys
