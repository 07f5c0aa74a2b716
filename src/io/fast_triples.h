#ifndef GKEYS_IO_FAST_TRIPLES_H_
#define GKEYS_IO_FAST_TRIPLES_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "graph/delta.h"
#include "graph/graph.h"
#include "io/triples.h"

namespace gkeys {

/// Chunked fast-path parsers for the `ent:/val:` triple and delta
/// formats: drop-in replacements for the scalar DeserializeGraphWithNames
/// / ParseDelta (io/triples.h), which stay in-tree as the oracles the
/// equivalence tests in tests/ingest_test.cc compare against.
///
/// The fast path runs in two phases:
///
///   Phase A — tokenize (parallelizable). The text is split into
///   line-aligned chunks; each chunk is scanned with the SWAR/SIMD
///   helpers of common/simd_scan.h, validating line shapes, splitting
///   fields, and unescaping value literals. This phase touches no graph
///   or binding table, so chunks are independent; each chunk knows its
///   absolute starting line number (one CountByte pass pins them before
///   any chunk parses), so malformed-line errors carry exactly the line
///   number the scalar parser would report.
///
///   Phase B — bind (serial). Tokenized lines replay into the Graph /
///   GraphDelta in document order, so interner symbols, NodeIds, and
///   entity-table bindings are assigned in exactly the order the scalar
///   parser assigns them: the output is byte-identical (serialization,
///   NodeIds, entity tables) to the oracle on every accepted input.
///
/// Error equivalence on rejected inputs is deliberately looser: both
/// paths fail on exactly the same inputs, with the same line number up
/// to the first failing line, but when one line mixes a shape error with
/// a binding error the two paths may name a different field of that
/// line. On success the results are identical, full stop.
///
/// The split is exposed (TokenizeTriples/TokenizeDeltaText + Bind*)
/// because the ingest pipeline (core/ingest_pipeline.h) runs phase A of
/// batch N+1 concurrently with the engine stages of batch N; phase B
/// must wait for the evolving graph and binding table.

/// One tokenized node reference. Entity references keep string_views
/// into the source text (valid while it lives); value literals are
/// unescaped eagerly, copying only when an escape was present.
struct TokenRef {
  enum class Kind : uint8_t { kValue, kEntity };
  Kind kind = Kind::kValue;
  /// kValue: raw literal body (no escapes present); kEntity: the full
  /// `ent:<type>:<id>` token, which is the binding-table key.
  std::string_view body;
  /// kEntity only: the `<type>` slice of `body`.
  std::string_view type;
  /// kValue with escapes only (escaped == true): the decoded literal.
  std::string unescaped;
  bool escaped = false;

  std::string_view literal() const {
    return escaped ? std::string_view(unescaped) : body;
  }
};

/// One validated line, ready to bind.
struct TokenizedLine {
  int line_no = 0;
  /// Delta format: +1 for `+ ...`, -1 for `- ...`. Graph format: 0.
  int8_t op = 0;
  /// Graph format only: an `@exists` marker line — the subject was
  /// validated, the object (like the scalar parser) never was.
  bool exists_only = false;
  TokenRef subj;
  std::string_view pred;
  TokenRef obj;
};

/// Phase-A output. When a line failed validation, `error` holds the
/// scalar-compatible Status and `error_line` its 1-based line number;
/// `lines` then contains every valid line strictly before it (later
/// chunks may have tokenized further, but binders must stop at
/// `error_line`). error_line == 0 means the whole text tokenized.
struct TokenizedText {
  std::vector<TokenizedLine> lines;
  Status error;
  int error_line = 0;
};

/// Tokenizes graph-format triple text (`SerializeGraph` output). With
/// `num_threads` > 1 and a large enough text, chunks tokenize on a
/// thread pool; the result is identical either way.
TokenizedText TokenizeTriples(std::string_view text, int num_threads = 1);

/// Tokenizes delta-format text (`+ s p o` / `- s p o` lines).
TokenizedText TokenizeDeltaText(std::string_view text, int num_threads = 1);

/// Phase B for graph text: replays tokens into a fresh Graph in document
/// order. Byte-identical to DeserializeGraphWithNames.
StatusOr<LoadedGraph> BindTriples(const TokenizedText& tokens);

/// Phase B for delta text: binds against `g` + `base_entities` exactly
/// like the scalar ParseDelta, but WITHOUT copying the base table —
/// tokens introduced by this delta live in a small overlay, so a batch
/// costs O(batch), not O(session entities). `new_bindings` (optional)
/// receives every ent: token this delta introduced, as in ParseDelta —
/// on success; unlike the scalar path it is never touched on failure.
StatusOr<GraphDelta> BindDeltaText(
    const TokenizedText& tokens, const Graph& g,
    const std::unordered_map<std::string, NodeId>& base_entities,
    std::unordered_map<std::string, NodeId>* new_bindings = nullptr);

/// Incremental phase B: accumulates SEVERAL tokenized delta batches into
/// ONE GraphDelta, sharing a single overlay across Append calls. This is
/// the group-commit primitive of the ingest pipeline: when parsed batches
/// queue up behind a slow engine stage, binding them together lets one
/// Apply→Patch→Rematch pass commit the whole group, amortizing the
/// per-commit costs that do not shrink with batch size.
///
/// Binding batches B1..Bk through one binder is equivalent to binding
/// their concatenation as a single delta text, except that error messages
/// keep each batch's own line numbers. That concatenation is NOT always
/// equivalent to committing the batches one by one, so Append rejects a
/// batch (after the first) that the group cannot absorb:
///
///   - it removes a triple or value an earlier batch introduced
///     (GraphDelta removals must reference base-graph nodes);
///   - it adds a triple an earlier batch removes (Graph::Apply runs adds
///     before removals, so the group would lose the re-added triple);
///   - it removes a triple that is not in the base graph, or that an
///     earlier batch (or an earlier line) already removes: committed
///     alone it fails Apply, and in the group it would fail the batches
///     before it too.
///
/// The first batch is never rejected for these: alone, it is exactly the
/// serial commit. CommitBatches (core/ingest_pipeline.h) commits the
/// batches before a rejected one as a group and starts the next group at
/// it, which keeps committed prefixes and error positions serial.
class DeltaBinder {
 public:
  /// The graph and base table must outlive the binder; so must every
  /// token text passed to Append (the overlay keeps views into them).
  DeltaBinder(const Graph& g,
              const std::unordered_map<std::string, NodeId>& base_entities);

  DeltaBinder(const DeltaBinder&) = delete;
  DeltaBinder& operator=(const DeltaBinder&) = delete;

  /// Binds one tokenized batch into the accumulated delta, exactly as
  /// BindDeltaText would bind it after the preceding appends. Fails with
  /// the parse or bind error BindDeltaText reports, or FailedPrecondition
  /// for a batch the group cannot absorb (see above). On failure the
  /// accumulated delta may hold part of the failing batch: discard the
  /// binder and rebind from scratch.
  Status Append(const TokenizedText& tokens);

  /// Triple operations (adds + removes) accumulated so far. Comparing
  /// before/after an Append tells whether that batch contributed.
  size_t ops() const;

  /// Moves the accumulated delta out (the binder is spent afterwards).
  /// `new_bindings` (optional) receives every ent: token the whole group
  /// introduced, as BindDeltaText would report for the concatenation.
  GraphDelta Take(std::unordered_map<std::string, NodeId>* new_bindings);

 private:
  const Graph& g_;
  const std::unordered_map<std::string, NodeId>& base_;
  GraphDelta delta_;
  std::unordered_map<std::string_view, NodeId> overlay_;
  std::vector<std::pair<std::string_view, NodeId>> introduced_;
  std::string key_buf_;
  /// Batches appended so far.
  size_t batches_ = 0;
  /// Every triple the group removes → the batch that removes it first.
  /// Predicates view the token texts, which outlive the binder.
  std::unordered_map<GraphDelta::TripleRef, size_t, GraphDelta::TripleRefHash>
      removed_;
};

/// TokenizeTriples + BindTriples: the fast DeserializeGraphWithNames.
StatusOr<LoadedGraph> FastDeserializeGraphWithNames(std::string_view text,
                                                    int num_threads = 1);

/// Graph-only convenience, mirroring DeserializeGraph.
StatusOr<Graph> FastDeserializeGraph(std::string_view text,
                                     int num_threads = 1);

/// TokenizeDeltaText + BindDeltaText: the fast ParseDelta.
StatusOr<GraphDelta> FastParseDelta(
    std::string_view text, const Graph& g,
    const std::unordered_map<std::string, NodeId>& base_entities,
    std::unordered_map<std::string, NodeId>* new_bindings = nullptr,
    int num_threads = 1);

}  // namespace gkeys

#endif  // GKEYS_IO_FAST_TRIPLES_H_
