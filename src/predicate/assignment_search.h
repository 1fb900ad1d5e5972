#ifndef NONSERIAL_PREDICATE_ASSIGNMENT_SEARCH_H_
#define NONSERIAL_PREDICATE_ASSIGNMENT_SEARCH_H_

#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "predicate/candidate_buffer.h"
#include "predicate/predicate.h"
#include "predicate/value.h"

namespace nonserial {

/// Strategy for the version-selection search. Section 5.1 of the paper notes
/// that exhaustive search over version combinations is exponential and
/// recommends "a heuristic based scheme"; we provide both so that the
/// validation-cost experiment (E8) can quantify the difference.
enum class SearchMode {
  kExhaustive,  ///< Plain cartesian-product scan with leaf evaluation.
  kPruned,      ///< MRV-ordered backtracking with batched clause pruning:
                ///< at each depth, every clause decided by the pending
                ///< assignment is evaluated over the entity's whole
                ///< candidate stripe at once (predicate/batch_eval.h).
  kIndexed      ///< kPruned after index-style candidate filtering: unit
                ///< clauses (single-atom, entity-vs-constant) are applied
                ///< to each entity's candidate list up front — the paper's
                ///< "treat the version selection process as a query …
                ///< typical database optimizations, like indices".
};

/// Counters reported by the search.
struct SearchStats {
  int64_t nodes_visited = 0;   ///< Assignments (partial or full) explored.
  int64_t evaluations = 0;     ///< Clause evaluations (batched ones count
                               ///< once per candidate in the stripe).
};

/// The core of the paper's transaction-validation phase: given, for each
/// entity, the list of candidate values (one per allowable version), find a
/// choice of one candidate per entity such that `predicate` holds.
///
/// `candidates[e]` views the values of the allowable versions of entity e;
/// every entity mentioned by the predicate must have at least one candidate.
/// Entities not mentioned by the predicate keep choice 0.
///
/// Returns the per-entity choice indices (into `candidates[e]`), or nullopt
/// if no combination satisfies the predicate. Deciding this is NP-complete
/// in general (Lemma 1 of the paper).
///
/// This view-based overload is the zero-copy core; the vector<vector> and
/// CandidateBuffer overloads below adapt to it without copying values. The
/// viewed storage must stay alive and unchanged for the duration of the
/// call.
std::optional<std::vector<int>> FindSatisfyingAssignment(
    const Predicate& predicate, const std::vector<CandidateView>& candidates,
    SearchMode mode = SearchMode::kPruned, SearchStats* stats = nullptr);

/// Legacy nested-vector shape (adapts each inner vector to a view).
std::optional<std::vector<int>> FindSatisfyingAssignment(
    const Predicate& predicate,
    const std::vector<std::vector<Value>>& candidates,
    SearchMode mode = SearchMode::kPruned, SearchStats* stats = nullptr);

/// Columnar candidate arena (the validation hot path's native shape).
std::optional<std::vector<int>> FindSatisfyingAssignment(
    const Predicate& predicate, const CandidateBuffer& candidates,
    SearchMode mode = SearchMode::kPruned, SearchStats* stats = nullptr);

/// Counters reported by DeltaRevalidate.
struct DeltaStats {
  int64_t delta_solves = 0;     ///< Rounds solved under the pins.
  int64_t delta_fallbacks = 0;  ///< Rounds that re-ran the full search.
};

/// Delta-revalidation: re-solves `predicate` over `candidates` given the
/// previous satisfying choice `prev_choice` and the set of entities whose
/// candidate lists `changed` since that choice was found.
///
/// Unchanged entities are pinned to their previously chosen value, which
/// collapses the search space to the changed entities' candidates — the
/// incremental counterpart of a CEP validation rescan, where a concurrent
/// write typically touches one entity of the input constraint. The pinned
/// problem is expressed as one-element views into the original candidate
/// storage, so a delta round allocates no value copies at all. If the
/// pinned problem is unsatisfiable the full search runs from scratch
/// (counted in `delta_stats->delta_fallbacks`), so the result is found/
/// not-found equivalent to FindSatisfyingAssignment over `candidates`.
///
/// `prev_choice` entries of changed entities are ignored; an out-of-range
/// previous index demotes its entity to changed.
std::optional<std::vector<int>> DeltaRevalidate(
    const Predicate& predicate, const std::vector<CandidateView>& candidates,
    const std::vector<int>& prev_choice, const std::set<EntityId>& changed,
    SearchMode mode = SearchMode::kPruned, SearchStats* stats = nullptr,
    DeltaStats* delta_stats = nullptr);

/// Legacy nested-vector shape.
std::optional<std::vector<int>> DeltaRevalidate(
    const Predicate& predicate,
    const std::vector<std::vector<Value>>& candidates,
    const std::vector<int>& prev_choice, const std::set<EntityId>& changed,
    SearchMode mode = SearchMode::kPruned, SearchStats* stats = nullptr,
    DeltaStats* delta_stats = nullptr);

/// Columnar candidate arena.
std::optional<std::vector<int>> DeltaRevalidate(
    const Predicate& predicate, const CandidateBuffer& candidates,
    const std::vector<int>& prev_choice, const std::set<EntityId>& changed,
    SearchMode mode = SearchMode::kPruned, SearchStats* stats = nullptr,
    DeltaStats* delta_stats = nullptr);

}  // namespace nonserial

#endif  // NONSERIAL_PREDICATE_ASSIGNMENT_SEARCH_H_
