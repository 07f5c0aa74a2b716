#include "io/fast_triples.h"

#include <utility>

#include "common/simd_scan.h"
#include "common/thread_pool.h"

namespace gkeys {

namespace {

/// Below this size the chunked path tokenizes inline: thread handoff
/// costs more than scanning a small delta batch.
constexpr size_t kParallelThreshold = size_t{1} << 16;

struct ChunkResult {
  std::vector<TokenizedLine> lines;
  Status error;
  int error_line = 0;
};

/// Tokenizes one node reference, replicating the scalar parsers' shape
/// checks and error strings (io/triples.cc ParseRef / resolve) exactly —
/// including the format quirks: the graph format rejects an empty entity
/// type but accepts an empty id, the delta format rejects both and
/// quotes the offending token in its messages.
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
    out->escaped =
        simd::FindByte(body.data(), body.size(), '\\') != simd::npos;
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

/// Tokenizes the chunk [begin, end) of `text`. `start_line` is the
/// number of lines strictly before `begin` (so absolute line numbers
/// come out exactly as a whole-text scan would produce). Stops at the
/// chunk's first invalid line, recording its scalar-compatible error.
void TokenizeChunk(std::string_view text, size_t begin, size_t end,
                   int start_line, bool delta_format, ChunkResult* out) {
  std::string_view sv = text.substr(begin, end - begin);
  int line_no = start_line;
  size_t pos = 0;
  std::string msg;
  auto fail = [&](std::string_view what) {
    out->error_line = line_no;
    out->error =
        delta_format
            ? Status::InvalidArgument("delta line " + std::to_string(line_no) +
                                      ": " + std::string(what))
            : Status::ParseError("line " + std::to_string(line_no) + ": " +
                                 std::string(what));
  };
  while (pos < sv.size()) {
    ++line_no;
    size_t nl = simd::FindByte(sv, '\n', pos);
    std::string_view line =
        sv.substr(pos, nl == simd::npos ? sv.size() - pos : nl - pos);
    pos = nl == simd::npos ? sv.size() : nl + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty() || line[0] == '#') continue;

    TokenizedLine ln;
    ln.line_no = line_no;
    if (delta_format) {
      if (line.size() < 2 || (line[0] != '+' && line[0] != '-') ||
          line[1] != ' ') {
        fail("expected '+ <triple>' or '- <triple>'");
        return;
      }
      ln.op = line[0] == '+' ? 1 : -1;
      line = line.substr(2);
    }
    size_t sp1 = simd::FindByte(line, ' ');
    size_t sp2 = sp1 == simd::npos ? simd::npos
                                   : simd::FindByte(line, ' ', sp1 + 1);
    if (sp2 == simd::npos) {
      fail(delta_format ? "expected 3 fields: subject predicate object"
                        : "expected 3 fields");
      return;
    }
    ln.pred = line.substr(sp1 + 1, sp2 - sp1 - 1);
    if (delta_format && ln.pred.empty()) {
      fail("empty predicate");
      return;
    }
    if (!TokenizeRef(line.substr(0, sp1), delta_format, &ln.subj, &msg)) {
      fail(msg);
      return;
    }
    if (!delta_format && ln.pred == "@exists") {
      // Scalar parity: the object of an @exists marker is never
      // validated (DeserializeGraphWithNames skips it entirely).
      ln.exists_only = true;
    } else if (!TokenizeRef(line.substr(sp2 + 1), delta_format, &ln.obj,
                            &msg)) {
      fail(msg);
      return;
    }
    out->lines.push_back(std::move(ln));
  }
}

TokenizedText TokenizeImpl(std::string_view text, int num_threads,
                           bool delta_format) {
  TokenizedText out;
  if (num_threads <= 1 || text.size() < kParallelThreshold) {
    ChunkResult r;
    TokenizeChunk(text, 0, text.size(), 0, delta_format, &r);
    out.lines = std::move(r.lines);
    out.error = std::move(r.error);
    out.error_line = r.error_line;
    return out;
  }

  // Line-aligned chunk boundaries: each target offset advances to just
  // past the next newline, so no line straddles two chunks.
  std::vector<size_t> bounds{0};
  for (int i = 1; i < num_threads; ++i) {
    size_t target = text.size() / static_cast<size_t>(num_threads) *
                    static_cast<size_t>(i);
    if (target <= bounds.back()) continue;
    size_t nl = simd::FindByte(text, '\n', target);
    if (nl == simd::npos || nl + 1 >= text.size()) break;
    bounds.push_back(nl + 1);
  }
  bounds.push_back(text.size());
  const size_t chunks = bounds.size() - 1;

  // Pin each chunk's absolute starting line before any chunk parses;
  // this is what keeps malformed-line errors exact under chunking.
  std::vector<int> start_line(chunks, 0);
  for (size_t c = 1; c < chunks; ++c) {
    start_line[c] =
        start_line[c - 1] +
        static_cast<int>(simd::CountByte(
            text.substr(bounds[c - 1], bounds[c] - bounds[c - 1]), '\n'));
  }

  std::vector<ChunkResult> results(chunks);
  ParallelShards(num_threads, chunks, [&](int, size_t b, size_t e) {
    for (size_t c = b; c < e; ++c) {
      TokenizeChunk(text, bounds[c], bounds[c + 1], start_line[c],
                    delta_format, &results[c]);
    }
  });

  size_t total = 0;
  for (const ChunkResult& r : results) total += r.lines.size();
  out.lines.reserve(total);
  for (ChunkResult& r : results) {
    for (TokenizedLine& ln : r.lines) out.lines.push_back(std::move(ln));
  }
  // Line numbers ascend across chunks, so the first erroring chunk holds
  // the first erroring line of the document.
  for (ChunkResult& r : results) {
    if (r.error_line != 0) {
      out.error = std::move(r.error);
      out.error_line = r.error_line;
      break;
    }
  }
  return out;
}

}  // namespace

TokenizedText TokenizeTriples(std::string_view text, int num_threads) {
  return TokenizeImpl(text, num_threads, /*delta_format=*/false);
}

TokenizedText TokenizeDeltaText(std::string_view text, int num_threads) {
  return TokenizeImpl(text, num_threads, /*delta_format=*/true);
}

StatusOr<LoadedGraph> BindTriples(const TokenizedText& tokens) {
  Graph g;
  // Keys are views into the token text, alive for the whole bind; the
  // std::string table the caller keeps is materialized once at the end.
  std::unordered_map<std::string_view, NodeId> entities;
  auto resolve = [&](const TokenRef& r) {
    if (r.kind == TokenRef::Kind::kValue) return g.AddValue(r.literal());
    auto it = entities.find(r.body);
    if (it != entities.end()) return it->second;
    NodeId id = g.AddEntity(r.type);
    entities.emplace(r.body, id);
    return id;
  };
  for (const TokenizedLine& ln : tokens.lines) {
    if (tokens.error_line != 0 && ln.line_no >= tokens.error_line) break;
    NodeId s = resolve(ln.subj);
    if (ln.exists_only) continue;
    if (ln.subj.kind == TokenRef::Kind::kValue) {
      return Status::ParseError("line " + std::to_string(ln.line_no) +
                                ": subject must be an entity");
    }
    NodeId o = resolve(ln.obj);
    GKEYS_RETURN_IF_ERROR(g.AddTriple(s, ln.pred, o));
  }
  if (tokens.error_line != 0) return tokens.error;
  g.Finalize();
  LoadedGraph out{std::move(g), {}};
  out.entities.reserve(entities.size());
  for (const auto& [token, id] : entities) {
    out.entities.emplace(std::string(token), id);
  }
  return out;
}

DeltaBinder::DeltaBinder(
    const Graph& g,
    const std::unordered_map<std::string, NodeId>& base_entities)
    : g_(g), base_(base_entities), delta_(g) {}

Status DeltaBinder::Append(const TokenizedText& tokens) {
  // overlay_ holds the tokens this group of batches introduced: an
  // overlay instead of the scalar path's full copy of base_entities, so
  // one batch costs O(batch). Overlay and base are disjoint (a token
  // found in base never enters the overlay), so lookup order is
  // unobservable.
  for (const TokenizedLine& ln : tokens.lines) {
    if (tokens.error_line != 0 && ln.line_no >= tokens.error_line) break;
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
  if (tokens.error_line != 0) return tokens.error;
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

StatusOr<GraphDelta> BindDeltaText(
    const TokenizedText& tokens, const Graph& g,
    const std::unordered_map<std::string, NodeId>& base_entities,
    std::unordered_map<std::string, NodeId>* new_bindings) {
  DeltaBinder binder(g, base_entities);
  GKEYS_RETURN_IF_ERROR(binder.Append(tokens));
  return binder.Take(new_bindings);
}

StatusOr<LoadedGraph> FastDeserializeGraphWithNames(std::string_view text,
                                                    int num_threads) {
  return BindTriples(TokenizeTriples(text, num_threads));
}

StatusOr<Graph> FastDeserializeGraph(std::string_view text, int num_threads) {
  auto loaded = FastDeserializeGraphWithNames(text, num_threads);
  if (!loaded.ok()) return loaded.status();
  return std::move(loaded->graph);
}

StatusOr<GraphDelta> FastParseDelta(
    std::string_view text, const Graph& g,
    const std::unordered_map<std::string, NodeId>& base_entities,
    std::unordered_map<std::string, NodeId>* new_bindings, int num_threads) {
  return BindDeltaText(TokenizeDeltaText(text, num_threads), g, base_entities,
                       new_bindings);
}

}  // namespace gkeys
