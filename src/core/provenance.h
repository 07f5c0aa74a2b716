#ifndef GKEYS_CORE_PROVENANCE_H_
#define GKEYS_CORE_PROVENANCE_H_

#include <string>
#include <utility>
#include <vector>

#include "core/em_common.h"
#include "keys/key.h"

namespace gkeys {

// Provenance has two faces here. Derivation (core/em_common.h) is the
// MACHINE-facing one: compiled-key indices, premises, and witness
// triples, recorded by all three engine families on every run, kept
// flat in a ProvenanceIndex, and replayed by RetractDerivations to
// maintain results under removal deltas. ChaseStep (below) is the HUMAN-facing view of the same record:
// key names, rounds, formatted explanations, read off the sequential
// chase's derivations by ChaseWithProvenance. Both encode the same §3.1
// proof graphs. All functions in this header are pure and
// thread-compatible (no shared mutable state).

/// One recorded chase step Eq ⇒_(e1,e2) Eq' (paper §3.1): which key fired
/// for which pair, and which previously derived facts it consumed. The
/// steps of a run assemble into the DAG-shaped proof graphs that witness
/// (G, Σ) |= (e1, e2) in the Theorem 2 upper-bound argument.
struct ChaseStep {
  NodeId e1, e2;
  /// Name of the key that identified the pair.
  std::string key;
  /// 1-based chase round in which the step fired.
  size_t round = 0;
  /// The non-reflexive entity-variable facts the witness used, sorted
  /// and deduplicated (Derivation::premises) — each one was derived by an
  /// earlier step (the proof-graph edges). Reflexive facts (e, e) are
  /// node identity and are omitted.
  std::vector<std::pair<NodeId, NodeId>> premises;
};

/// chase(G, Σ) together with its derivation.
struct ProvenanceResult {
  MatchResult result;
  /// Steps in firing order. Note |steps| counts *direct* identifications;
  /// result.pairs additionally contains transitive consequences.
  std::vector<ChaseStep> steps;
};

/// Runs the sequential chase (RunChase, with provenance on) and reads its
/// derivations as steps. The result equals Chase(g, keys) (Church–Rosser);
/// steps record one witness per direct identification.
ProvenanceResult ChaseWithProvenance(const Graph& g, const KeySet& keys);

/// Renders a step like
///   `album#3 == album#4  by Q2  [round 1]` or
///   `artist#0 == artist#1  by Q3  [round 2]  because album#3 == album#4`.
std::string FormatChaseStep(const Graph& g, const ChaseStep& step);

/// The outcome of replaying a provenance index (MatchResult::derivations)
/// against a mutated graph: the derivations still valid, the seed they
/// imply, and how many were over-deleted.
struct RetractionResult {
  /// Derivations whose witness triples all still exist in the graph and
  /// whose premises are supported by earlier surviving derivations, in
  /// the original (replayable) order. Every one is a valid chase step on
  /// the mutated graph, so their merges are a sound rematch seed.
  ProvenanceIndex surviving;
  /// The Eq-closure of the surviving derivations' merges: all pairs
  /// (a, b), a < b, sorted — RematchSeed::prev_pairs for a seeded re-run,
  /// and what Matcher::Rematch binary-searches for the retracted
  /// candidates. Listed from the merges' classes (PairsOfMergedClasses).
  std::vector<std::pair<NodeId, NodeId>> seed_pairs;
  /// Derivations dropped. DRed-style over-deletion: a dropped derivation
  /// may still hold through another witness — Matcher::Rematch re-checks
  /// every retracted candidate, re-deriving exactly the survivors.
  size_t retracted = 0;
};

/// DRed over-deletion for removal deltas (Theorem 2's proof graphs put to
/// work): replays `derivations` in recorded order against `g` — the graph
/// AFTER the delta was applied — keeping a derivation iff every witness
/// triple still exists (one HasTriple probe each; removals are the only
/// way a recorded triple can vanish, since nodes are never deleted) and
/// every premise is Same under the replay union-find of the derivations
/// kept so far. Dropping is transitive over premises by construction: if
/// a derivation's support was retracted, its premise check fails and it is
/// retracted too. `g` must be finalized. The engines' record-before-Union
/// discipline guarantees every entry's premises precede it in the log
/// (see internal::DerivationLog), so an unchanged graph retracts nothing;
/// the replay is additionally robust to unsupported entries (they are
/// over-deleted and re-derived by the seeded run — wasted work, never
/// wrong answers), which future engines may lean on.
/// Every node an entry names must be below g.NumNodes();
/// Matcher::Rematch checks that before it calls this.
RetractionResult RetractDerivations(const Graph& g,
                                    const ProvenanceIndex& derivations);

}  // namespace gkeys

#endif  // GKEYS_CORE_PROVENANCE_H_
