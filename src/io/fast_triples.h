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

/// The parsers for the `ent:/val:` triple format (SerializeGraph output,
/// io/triples.h) and for delta text, one op per line:
///
///     + ent:<type>:<id> <predicate> ent:<type>:<id>
///     + ent:<type>:<id> <predicate> val:"literal"
///     - ent:<type>:<id> <predicate> val:"literal"
///
/// In both formats blank lines and `#` comments are skipped, a trailing
/// '\r' is stripped (CRLF text parses like LF text) and the last line
/// needs no newline. A rejected text names its first failing line:
/// ParseError "line N: ..." for graph text, InvalidArgument "delta line
/// N: ..." for delta text.
///
/// Graph text loads in one pass: each line is split off, validated and
/// bound into the graph before the next is read.
///
/// Delta text is parsed in two steps, because the ingest pipeline
/// (core/ingest_pipeline.h) runs them on different threads:
///
///   tokenize (TokenizeDeltaText) validates line shapes, splits fields
///   and unescapes literals. It touches no graph or binding table, so
///   the pipeline tokenizes batch N+1 while the engine commits batch N.
///
///   bind (DeltaBinder) resolves the tokens against the session's graph
///   and binding table in document order, so it waits for the session to
///   reach the batch. One binder can bind several batches into one delta
///   (group commit).
///
/// Tokenizing a delta line checks both of its references before binding
/// either. So when a reference that fails to bind precedes a malformed
/// one on the same line, the error names the malformed one.
///
/// tests/triples_reference.h keeps the original line-by-line parsers as
/// the oracle: ingest_test and parser_fuzz_test hold these to identical
/// results on accepted text, to the identical status on rejected graph
/// text, and to the same code and failing line on rejected delta text.

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
  /// Graph format only: an `@exists` marker line. Its subject was
  /// validated; its object is never read.
  bool exists_only = false;
  TokenRef subj;
  std::string_view pred;
  TokenRef obj;
};

/// Tokenized delta text. When a line failed validation, `error` holds
/// its status and `lines` every valid line before it.
struct TokenizedText {
  std::vector<TokenizedLine> lines;
  Status error;
};

/// Tokenizes delta text. The tokens view `text`, which must outlive them.
TokenizedText TokenizeDeltaText(std::string_view text);

/// Binds tokenized delta batches into ONE GraphDelta against a graph and
/// its entity-reference table, without copying the table: tokens the
/// batches introduce live in a small overlay, so a batch costs
/// O(batch), not O(session entities). This is the group-commit primitive
/// of the ingest pipeline: when parsed batches queue up behind a slow
/// engine stage, binding them together lets one Apply→Patch→Rematch pass
/// commit the whole group, amortizing the per-commit costs that do not
/// shrink with batch size.
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
  /// FastParseDelta would bind its text after the preceding appends.
  /// Fails with the parse or bind error FastParseDelta reports, or
  /// FailedPrecondition for a batch the group cannot absorb (see above).
  /// On failure the accumulated delta may hold part of the failing batch:
  /// discard the binder and rebind from scratch.
  Status Append(const TokenizedText& tokens);

  /// Triple operations (adds + removes) accumulated so far. Comparing
  /// before/after an Append tells whether that batch contributed.
  size_t ops() const;

  /// Moves the accumulated delta out (the binder is spent afterwards).
  /// `new_bindings` (optional) receives every ent: token the whole group
  /// introduced, as FastParseDelta would report for the concatenation.
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

/// Parses graph text into a finalized graph plus its entity-reference
/// table, in one pass.
StatusOr<LoadedGraph> FastDeserializeGraphWithNames(std::string_view text);

/// Parses delta text against a graph and its entity-reference table
/// (LoadedGraph::entities, or a restored session's table). Entity
/// references resolve by token identity against `base_entities`, the same
/// binding the graph text was loaded with. An addition that references
/// an unseen `ent:` token stages a fresh entity of that type (ids are
/// free-form strings, as in graph files); removals must reference known
/// nodes. `new_bindings` (optional) receives, on success, every ent:
/// token this delta introduced (token → staged NodeId), so a caller can
/// extend its table and parse later deltas against the evolving session.
StatusOr<GraphDelta> FastParseDelta(
    std::string_view text, const Graph& g,
    const std::unordered_map<std::string, NodeId>& base_entities,
    std::unordered_map<std::string, NodeId>* new_bindings = nullptr);

}  // namespace gkeys

#endif  // GKEYS_IO_FAST_TRIPLES_H_
