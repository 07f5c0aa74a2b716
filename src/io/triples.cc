#include "io/triples.h"

#include <fstream>
#include <sstream>
#include <unordered_map>

namespace gkeys {

namespace {

/// Extracts the line starting at `pos` and advances `pos` past its
/// newline. A trailing '\r' is stripped so CRLF files parse identically
/// to LF files, and the final line needs no trailing newline — both
/// guaranteed to match the chunked fast path (io/fast_triples.cc), which
/// splits lines the same way.
std::string_view NextLine(std::string_view text, size_t& pos) {
  size_t nl = text.find('\n', pos);
  std::string_view line = text.substr(
      pos, nl == std::string_view::npos ? text.size() - pos : nl - pos);
  pos = nl == std::string_view::npos ? text.size() : nl + 1;
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

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

/// Parses a node reference, creating the node on first sight.
StatusOr<NodeId> ParseRef(std::string_view token, Graph& g,
                          std::unordered_map<std::string, NodeId>& entities,
                          int line_no) {
  auto err = [line_no](std::string msg) {
    return Status::ParseError("line " + std::to_string(line_no) + ": " +
                              std::move(msg));
  };
  if (token.rfind("val:\"", 0) == 0) {
    if (token.size() < 6 || token.back() != '"') {
      return err("malformed value literal");
    }
    std::string_view body = token.substr(5, token.size() - 6);
    std::string literal;
    for (size_t i = 0; i < body.size(); ++i) {
      if (body[i] == '\\' && i + 1 < body.size()) ++i;
      literal.push_back(body[i]);
    }
    return g.AddValue(literal);
  }
  if (token.rfind("ent:", 0) == 0) {
    size_t colon = token.rfind(':');
    if (colon == 3) return err("entity reference needs a type and an id");
    std::string key(token);
    auto it = entities.find(key);
    if (it != entities.end()) return it->second;
    std::string type(token.substr(4, colon - 4));
    if (type.empty()) return err("empty entity type");
    NodeId id = g.AddEntity(type);
    entities.emplace(std::move(key), id);
    return id;
  }
  return err("node reference must start with ent: or val:");
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

StatusOr<Graph> DeserializeGraph(std::string_view text) {
  auto loaded = DeserializeGraphWithNames(text);
  if (!loaded.ok()) return loaded.status();
  return std::move(loaded->graph);
}

StatusOr<LoadedGraph> DeserializeGraphWithNames(std::string_view text) {
  Graph g;
  std::unordered_map<std::string, NodeId> entities;
  int line_no = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    std::string_view line = NextLine(text, pos);
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    // Split into exactly 3 space-separated fields; the literal may contain
    // spaces, so split on the first two spaces only.
    size_t sp1 = line.find(' ');
    if (sp1 == std::string_view::npos) {
      return Status::ParseError("line " + std::to_string(line_no) +
                                ": expected 3 fields");
    }
    size_t sp2 = line.find(' ', sp1 + 1);
    if (sp2 == std::string_view::npos) {
      return Status::ParseError("line " + std::to_string(line_no) +
                                ": expected 3 fields");
    }
    std::string_view subj = line.substr(0, sp1);
    std::string_view pred = line.substr(sp1 + 1, sp2 - sp1 - 1);
    std::string_view obj = line.substr(sp2 + 1);
    auto s = ParseRef(subj, g, entities, line_no);
    if (!s.ok()) return s.status();
    if (pred == "@exists") continue;  // node-existence marker only
    auto o = ParseRef(obj, g, entities, line_no);
    if (!o.ok()) return o.status();
    if (!g.IsEntity(*s)) {
      return Status::ParseError("line " + std::to_string(line_no) +
                                ": subject must be an entity");
    }
    GKEYS_RETURN_IF_ERROR(g.AddTriple(*s, pred, *o));
  }
  g.Finalize();
  return LoadedGraph{std::move(g), std::move(entities)};
}

Status SaveGraph(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for write: " + path);
  out << SerializeGraph(g);
  return out.good() ? Status::OK()
                    : Status::IoError("write failed: " + path);
}

StatusOr<Graph> LoadGraph(const std::string& path) {
  auto loaded = LoadGraphWithNames(path);
  if (!loaded.ok()) return loaded.status();
  return std::move(loaded->graph);
}

StatusOr<LoadedGraph> LoadGraphWithNames(const std::string& path) {
  auto text = ReadFile(path);
  if (!text.ok()) return text.status();
  return DeserializeGraphWithNames(*text);
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for read: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return Status::IoError("read failed: " + path);
  return buf.str();
}

StatusOr<GraphDelta> ParseDelta(std::string_view text,
                                const LoadedGraph& lg) {
  return ParseDelta(text, lg.graph, lg.entities);
}

StatusOr<GraphDelta> ParseDelta(
    std::string_view text, const Graph& g,
    const std::unordered_map<std::string, NodeId>& base_entities,
    std::unordered_map<std::string, NodeId>* new_bindings) {
  GraphDelta delta(g);
  // Entity tokens resolve by identity against the loader's table, plus
  // whatever this delta stages — NEVER by re-deriving ids from the
  // graph, which would re-bind tokens differently than the graph file
  // they came from.
  std::unordered_map<std::string, NodeId> entities = base_entities;

  int line_no = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    std::string_view line = NextLine(text, pos);
    ++line_no;
    auto err = [line_no](std::string msg) {
      return Status::InvalidArgument("delta line " + std::to_string(line_no) +
                                     ": " + std::move(msg));
    };
    if (line.empty() || line[0] == '#') continue;
    if (line.size() < 2 || (line[0] != '+' && line[0] != '-') ||
        line[1] != ' ') {
      return err("expected '+ <triple>' or '- <triple>'");
    }
    bool adding = line[0] == '+';
    std::string_view body = line.substr(2);
    size_t sp1 = body.find(' ');
    size_t sp2 = sp1 == std::string_view::npos ? std::string_view::npos
                                               : body.find(' ', sp1 + 1);
    if (sp2 == std::string_view::npos) {
      return err("expected 3 fields: subject predicate object");
    }
    std::string_view subj = body.substr(0, sp1);
    std::string_view pred = body.substr(sp1 + 1, sp2 - sp1 - 1);
    std::string_view obj = body.substr(sp2 + 1);
    if (pred.empty()) return err("empty predicate");

    auto resolve = [&](std::string_view token,
                       bool allow_new) -> StatusOr<NodeId> {
      if (token.rfind("val:\"", 0) == 0) {
        if (token.size() < 6 || token.back() != '"') {
          return err("malformed value literal '" + std::string(token) + "'");
        }
        std::string_view raw = token.substr(5, token.size() - 6);
        std::string literal;
        for (size_t i = 0; i < raw.size(); ++i) {
          if (raw[i] == '\\' && i + 1 < raw.size()) ++i;
          literal.push_back(raw[i]);
        }
        if (!allow_new) {
          NodeId v = g.FindValue(literal);
          if (v == kNoNode) {
            return err("removal references unknown value \"" + literal +
                       "\"");
          }
          return v;
        }
        return delta.AddValue(literal);
      }
      if (token.rfind("ent:", 0) != 0) {
        return err("node reference must start with ent: or val:, got '" +
                   std::string(token) + "'");
      }
      size_t colon = token.rfind(':');
      if (colon <= 4 || colon + 1 >= token.size()) {
        return err("entity reference needs a type and an id");
      }
      std::string key(token);
      auto it = entities.find(key);
      if (it != entities.end()) return it->second;
      if (!allow_new) {
        return err("removal references unknown entity " + key);
      }
      std::string type(token.substr(4, colon - 4));
      NodeId id = delta.AddEntity(type);
      if (new_bindings != nullptr) (*new_bindings)[key] = id;
      entities.emplace(std::move(key), id);
      return id;
    };

    auto s = resolve(subj, adding);
    if (!s.ok()) return s.status();
    auto o = resolve(obj, adding);
    if (!o.ok()) return o.status();
    Status st = adding ? delta.AddTriple(*s, pred, *o)
                       : delta.RemoveTriple(*s, pred, *o);
    if (!st.ok()) {
      return Status::InvalidArgument("delta line " + std::to_string(line_no) +
                                     ": " + st.message());
    }
  }
  return delta;
}

}  // namespace gkeys
