#include "io/fast_triples.h"

#include <utility>

namespace gkeys {

namespace {

/// Tokenizes one node reference. The formats differ in two quirks: the
/// graph format rejects an empty entity type but accepts an empty id,
/// while the delta format rejects both and quotes the offending token in
/// its messages.
bool TokenizeRef(std::string_view token, bool delta_format, TokenRef* out,
                 std::string* msg) {
  if (token.size() >= 5 && token.compare(0, 5, "val:\"") == 0) {
    if (token.size() < 6 || token.back() != '"') {
      *msg = delta_format
                 ? "malformed value literal '" + std::string(token) + "'"
                 : "malformed value literal";
      return false;
    }
    out->kind = TokenRef::Kind::kValue;
    std::string_view body = token.substr(5, token.size() - 6);
    out->body = body;
    out->escaped = body.find('\\') != std::string_view::npos;
    if (out->escaped) {
      out->unescaped.clear();
      out->unescaped.reserve(body.size());
      for (size_t i = 0; i < body.size(); ++i) {
        if (body[i] == '\\' && i + 1 < body.size()) ++i;
        out->unescaped.push_back(body[i]);
      }
    }
    return true;
  }
  if (token.size() >= 4 && token.compare(0, 4, "ent:") == 0) {
    size_t colon = token.rfind(':');
    bool bad = delta_format ? (colon <= 4 || colon + 1 >= token.size())
                            : (colon == 3);
    if (bad) {
      *msg = "entity reference needs a type and an id";
      return false;
    }
    std::string_view type = token.substr(4, colon - 4);
    if (!delta_format && type.empty()) {
      *msg = "empty entity type";
      return false;
    }
    out->kind = TokenRef::Kind::kEntity;
    out->body = token;
    out->type = type;
    return true;
  }
  *msg = delta_format ? "node reference must start with ent: or val:, got '" +
                            std::string(token) + "'"
                      : "node reference must start with ent: or val:";
  return false;
}

/// Tokenizes each line of `text` that is neither blank nor a comment and
/// hands it to `fn`, in document order. Stops at the first line that
/// fails to tokenize, or that `fn` fails, and returns that status.
template <typename Fn>
Status ForEachLine(std::string_view text, bool delta_format, Fn&& fn) {
  int line_no = 0;
  size_t pos = 0;
  std::string msg;
  TokenizedLine ln;
  auto fail = [&](std::string_view what) {
    return delta_format
               ? Status::InvalidArgument("delta line " +
                                         std::to_string(line_no) + ": " +
                                         std::string(what))
               : Status::ParseError("line " + std::to_string(line_no) +
                                    ": " + std::string(what));
  };
  while (pos < text.size()) {
    ++line_no;
    size_t nl = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, nl == std::string_view::npos ? text.size() - pos : nl - pos);
    pos = nl == std::string_view::npos ? text.size() : nl + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty() || line[0] == '#') continue;

    ln.line_no = line_no;
    if (delta_format) {
      if (line.size() < 2 || (line[0] != '+' && line[0] != '-') ||
          line[1] != ' ') {
        return fail("expected '+ <triple>' or '- <triple>'");
      }
      ln.op = line[0] == '+' ? 1 : -1;
      line = line.substr(2);
    }
    // The literal may contain spaces: split on the first two only.
    size_t sp1 = line.find(' ');
    size_t sp2 = sp1 == std::string_view::npos ? std::string_view::npos
                                               : line.find(' ', sp1 + 1);
    if (sp2 == std::string_view::npos) {
      return fail(delta_format ? "expected 3 fields: subject predicate object"
                               : "expected 3 fields");
    }
    ln.pred = line.substr(sp1 + 1, sp2 - sp1 - 1);
    if (delta_format && ln.pred.empty()) return fail("empty predicate");
    if (!TokenizeRef(line.substr(0, sp1), delta_format, &ln.subj, &msg)) {
      return fail(msg);
    }
    // The object of an @exists marker is never read.
    ln.exists_only = !delta_format && ln.pred == "@exists";
    if (!ln.exists_only &&
        !TokenizeRef(line.substr(sp2 + 1), delta_format, &ln.obj, &msg)) {
      return fail(msg);
    }
    GKEYS_RETURN_IF_ERROR(fn(ln));
  }
  return Status::OK();
}

}  // namespace

TokenizedText TokenizeDeltaText(std::string_view text) {
  TokenizedText out;
  out.error = ForEachLine(text, /*delta_format=*/true, [&](TokenizedLine& ln) {
    out.lines.push_back(std::move(ln));
    return Status::OK();
  });
  return out;
}

DeltaBinder::DeltaBinder(
    const Graph& g,
    const std::unordered_map<std::string, NodeId>& base_entities)
    : g_(g), base_(base_entities), delta_(g) {}

Status DeltaBinder::Append(const TokenizedText& tokens) {
  // overlay_ holds the tokens this group of batches introduced, so one
  // batch costs O(batch), not a copy of base_entities. Overlay and base
  // are disjoint (a token found in base never enters the overlay), so
  // lookup order is unobservable.
  for (const TokenizedLine& ln : tokens.lines) {
    const bool adding = ln.op > 0;
    auto err = [&ln](std::string msg) {
      return Status::InvalidArgument("delta line " +
                                     std::to_string(ln.line_no) + ": " +
                                     std::move(msg));
    };
    auto resolve = [&](const TokenRef& r) -> StatusOr<NodeId> {
      if (r.kind == TokenRef::Kind::kValue) {
        if (!adding) {
          NodeId v = g_.FindValue(r.literal());
          if (v == kNoNode) {
            return err("removal references unknown value \"" +
                       std::string(r.literal()) + "\"");
          }
          return v;
        }
        return delta_.AddValue(r.literal());
      }
      auto it = overlay_.find(r.body);
      if (it != overlay_.end()) return it->second;
      // Reused base-lookup key: std::hash<std::string> maps need a
      // std::string, but one warm buffer means no per-token allocation.
      key_buf_.assign(r.body.data(), r.body.size());
      auto base = base_.find(key_buf_);
      if (base != base_.end()) return base->second;
      if (!adding) {
        return err("removal references unknown entity " +
                   std::string(r.body));
      }
      NodeId id = delta_.AddEntity(r.type);
      overlay_.emplace(r.body, id);
      introduced_.emplace_back(r.body, id);
      return id;
    };
    auto s = resolve(ln.subj);
    if (!s.ok()) return s.status();
    auto o = resolve(ln.obj);
    if (!o.ok()) return o.status();
    Status st = adding ? delta_.AddTriple(*s, ln.pred, *o)
                       : delta_.RemoveTriple(*s, ln.pred, *o);
    if (!st.ok()) {
      return Status::InvalidArgument("delta line " +
                                     std::to_string(ln.line_no) + ": " +
                                     st.message());
    }
    // The group rules of the class comment. Removals are recorded from
    // every batch but checked only from the second batch on.
    auto conflict = [&ln](const char* what) {
      return Status::FailedPrecondition(
          "delta line " + std::to_string(ln.line_no) + ": " + what +
          ", so the batch cannot join the group");
    };
    const GraphDelta::TripleRef ref{*s, ln.pred, *o};
    if (adding) {
      if (!removed_.empty()) {
        auto it = removed_.find(ref);
        if (it != removed_.end() && it->second < batches_) {
          return conflict("re-adds a triple an earlier batch removes");
        }
      }
    } else {
      const bool fresh = removed_.emplace(ref, batches_).second;
      if (batches_ > 0) {
        if (!fresh) return conflict("removes a triple already removed");
        const Symbol p = g_.interner().Lookup(ln.pred);
        if (p == kNoSymbol || !g_.HasTriple(*s, p, *o)) {
          return conflict("removes a triple the base graph lacks");
        }
      }
    }
  }
  GKEYS_RETURN_IF_ERROR(tokens.error);
  ++batches_;
  return Status::OK();
}

size_t DeltaBinder::ops() const {
  return delta_.num_added_triples() + delta_.num_removed_triples();
}

GraphDelta DeltaBinder::Take(
    std::unordered_map<std::string, NodeId>* new_bindings) {
  if (new_bindings != nullptr) {
    for (const auto& [token, id] : introduced_) {
      (*new_bindings)[std::string(token)] = id;
    }
  }
  return std::move(delta_);
}

StatusOr<LoadedGraph> FastDeserializeGraphWithNames(std::string_view text) {
  Graph g;
  // Keys view the text, alive for the whole parse; the std::string table
  // the caller keeps is materialized once at the end.
  std::unordered_map<std::string_view, NodeId> entities;
  auto resolve = [&](const TokenRef& r) {
    if (r.kind == TokenRef::Kind::kValue) return g.AddValue(r.literal());
    auto it = entities.find(r.body);
    if (it != entities.end()) return it->second;
    NodeId id = g.AddEntity(r.type);
    entities.emplace(r.body, id);
    return id;
  };
  GKEYS_RETURN_IF_ERROR(ForEachLine(
      text, /*delta_format=*/false, [&](const TokenizedLine& ln) -> Status {
        NodeId s = resolve(ln.subj);
        if (ln.exists_only) return Status::OK();
        if (ln.subj.kind == TokenRef::Kind::kValue) {
          return Status::ParseError("line " + std::to_string(ln.line_no) +
                                    ": subject must be an entity");
        }
        NodeId o = resolve(ln.obj);
        return g.AddTriple(s, ln.pred, o);
      }));
  g.Finalize();
  LoadedGraph out{std::move(g), {}};
  out.entities.reserve(entities.size());
  for (const auto& [token, id] : entities) {
    out.entities.emplace(std::string(token), id);
  }
  return out;
}

StatusOr<GraphDelta> FastParseDelta(
    std::string_view text, const Graph& g,
    const std::unordered_map<std::string, NodeId>& base_entities,
    std::unordered_map<std::string, NodeId>* new_bindings) {
  const TokenizedText tokens = TokenizeDeltaText(text);
  DeltaBinder binder(g, base_entities);
  GKEYS_RETURN_IF_ERROR(binder.Append(tokens));
  return binder.Take(new_bindings);
}

}  // namespace gkeys
