#ifndef GKEYS_TESTS_TRIPLES_REFERENCE_H_
#define GKEYS_TESTS_TRIPLES_REFERENCE_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/status.h"
#include "graph/delta.h"
#include "graph/graph.h"
#include "io/triples.h"

namespace gkeys {

/// The original scalar triple and delta parsers, kept verbatim as the
/// reference oracle for io/fast_triples.h: a plain line-by-line loop
/// that resolves each field as it reads it, with a std::string binding
/// table copied per delta. ingest_test and parser_fuzz_test assert the
/// production parsers agree with them on every accepted text, and on the
/// failing line of every rejected one. Never call these from production
/// code.
namespace reference {

/// Extracts the line starting at `pos` and advances `pos` past its
/// newline. A trailing '\r' is stripped so CRLF files parse identically
/// to LF files, and the final line needs no trailing newline.
inline std::string_view NextLine(std::string_view text, size_t& pos) {
  size_t nl = text.find('\n', pos);
  std::string_view line = text.substr(
      pos, nl == std::string_view::npos ? text.size() - pos : nl - pos);
  pos = nl == std::string_view::npos ? text.size() : nl + 1;
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

/// Parses a node reference, creating the node on first sight.
inline StatusOr<NodeId> ParseRef(
    std::string_view token, Graph& g,
    std::unordered_map<std::string, NodeId>& entities, int line_no) {
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

/// Graph text (SerializeGraph's format) into a finalized graph plus its
/// entity-reference table.
inline StatusOr<LoadedGraph> DeserializeGraphWithNames(std::string_view text) {
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

/// Delta text (`+ s p o` / `- s p o` lines) against a graph and its
/// entity-reference table. When `new_bindings` is non-null, every ent:
/// token this delta introduced is recorded there.
inline StatusOr<GraphDelta> ParseDelta(
    std::string_view text, const Graph& g,
    const std::unordered_map<std::string, NodeId>& base_entities,
    std::unordered_map<std::string, NodeId>* new_bindings = nullptr) {
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

}  // namespace reference
}  // namespace gkeys

#endif  // GKEYS_TESTS_TRIPLES_REFERENCE_H_
