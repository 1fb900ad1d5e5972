#include "predicate/assignment_search.h"

#include <algorithm>

#include "common/logging.h"
#include "predicate/batch_eval.h"

namespace nonserial {
namespace {

/// Shared search context. Works over the entities that the predicate
/// mentions ("constrained" entities); all others keep candidate 0.
struct SearchContext {
  const Predicate* predicate;
  const std::vector<CandidateView>* candidates;
  SearchStats* stats;

  std::vector<EntityId> constrained;        // Search variable order.
  std::vector<int> choice;                  // entity -> candidate index.
  std::vector<bool> assigned;               // entity -> assigned?
  ValueVector values;                       // entity -> current value.
  // clauses_of[e]: indices of clauses mentioning entity e.
  std::vector<std::vector<int>> clauses_of;
  // clause_entities[c]: entities mentioned by clause c (ascending), for
  // detecting clauses decided by the entity being assigned.
  std::vector<std::vector<EntityId>> clause_entities;
  // Per-depth scratch for the batched pruning masks (sized once, reused
  // across the whole search — no per-node allocation).
  std::vector<std::vector<uint8_t>> depth_mask;
  std::vector<std::vector<uint8_t>> depth_scratch;
};

/// Batched pruning at one node of the search tree: every clause over
/// `entity` whose OTHER entities are already assigned becomes fully
/// determined the moment `entity` receives a value — so instead of
/// re-walking its atoms once per candidate, it is evaluated over the whole
/// contiguous candidate stripe in one pass (auto-vectorized compares; see
/// predicate/batch_eval.h).
/// Clauses with an unassigned other entity can never prune here (some atom
/// is undetermined, so the disjunction stays viable) and are skipped
/// entirely. The result is a per-candidate viability mask.
bool PrunedSearch(SearchContext* ctx, size_t depth) {
  ++ctx->stats->nodes_visited;
  if (depth == ctx->constrained.size()) return true;
  EntityId entity = ctx->constrained[depth];
  const CandidateView& options = (*ctx->candidates)[entity];
  int32_t n = options.size();

  std::vector<uint8_t>& mask = ctx->depth_mask[depth];
  std::vector<uint8_t>& scratch = ctx->depth_scratch[depth];
  mask.assign(n, 1);
  for (int clause_index : ctx->clauses_of[entity]) {
    bool decided = true;
    for (EntityId e : ctx->clause_entities[clause_index]) {
      if (e != entity && !ctx->assigned[e]) {
        decided = false;
        break;
      }
    }
    if (!decided) continue;
    ctx->stats->evaluations += n;
    EvalClauseOverStripe(ctx->predicate->clauses()[clause_index],
                         ctx->values, entity, options.data, n, scratch.data());
    for (int32_t i = 0; i < n; ++i) mask[i] &= scratch[i];
  }

  ctx->assigned[entity] = true;
  for (int32_t i = 0; i < n; ++i) {
    if (!mask[i]) continue;
    ctx->choice[entity] = i;
    ctx->values[entity] = options[i];
    if (PrunedSearch(ctx, depth + 1)) return true;
  }
  ctx->assigned[entity] = false;
  return false;
}

bool ExhaustiveSearch(SearchContext* ctx, size_t depth) {
  if (depth == ctx->constrained.size()) {
    ++ctx->stats->nodes_visited;
    ++ctx->stats->evaluations;
    return ctx->predicate->Eval(ctx->values);
  }
  EntityId entity = ctx->constrained[depth];
  const CandidateView& options = (*ctx->candidates)[entity];
  for (int32_t i = 0; i < options.size(); ++i) {
    ctx->choice[entity] = i;
    ctx->values[entity] = options[i];
    if (ExhaustiveSearch(ctx, depth + 1)) return true;
  }
  return false;
}

/// Index-style pre-filter: for every unit clause `e θ c`, drop candidates
/// of `e` that fail the comparison. Returns per-entity surviving candidate
/// *indices* into the original lists (nullopt when some constrained entity
/// is left without candidates — the predicate is unsatisfiable).
std::optional<std::vector<std::vector<int>>> IndexFilter(
    const Predicate& predicate, const std::vector<CandidateView>& candidates) {
  int n = static_cast<int>(candidates.size());
  std::vector<std::vector<int>> surviving(n);
  for (int e = 0; e < n; ++e) {
    surviving[e].resize(candidates[e].size());
    for (int32_t i = 0; i < candidates[e].size(); ++i) {
      surviving[e][i] = i;
    }
  }
  for (const Clause& clause : predicate.clauses()) {
    const std::vector<Atom>& atoms = clause.atoms();
    if (atoms.size() != 1) continue;
    const Atom& atom = atoms[0];
    // Normalize to entity-vs-constant.
    EntityId entity = kInvalidEntity;
    bool entity_on_left = true;
    if (atom.lhs.is_entity && !atom.rhs.is_entity) {
      entity = atom.lhs.entity;
    } else if (!atom.lhs.is_entity && atom.rhs.is_entity) {
      entity = atom.rhs.entity;
      entity_on_left = false;
    } else {
      continue;
    }
    if (entity < 0 || entity >= n) return std::nullopt;
    std::vector<int> kept;
    for (int index : surviving[entity]) {
      Value v = candidates[entity][index];
      bool holds = entity_on_left
                       ? EvalCompare(v, atom.op, atom.rhs.constant)
                       : EvalCompare(atom.lhs.constant, atom.op, v);
      if (holds) kept.push_back(index);
    }
    if (kept.empty()) return std::nullopt;
    surviving[entity] = std::move(kept);
  }
  return surviving;
}

}  // namespace

std::optional<std::vector<int>> FindSatisfyingAssignment(
    const Predicate& predicate, const std::vector<CandidateView>& candidates,
    SearchMode mode, SearchStats* stats) {
  if (mode == SearchMode::kIndexed) {
    // Filter candidate lists through the unit-clause "indices", run the
    // pruned search on the reduced lists, then map choices back. The
    // reduced lists are rebuilt contiguous (a CandidateBuffer) so the
    // batched pruning still sees dense stripes.
    std::optional<std::vector<std::vector<int>>> surviving =
        IndexFilter(predicate, candidates);
    if (!surviving.has_value()) return std::nullopt;
    CandidateBuffer reduced;
    for (size_t e = 0; e < candidates.size(); ++e) {
      for (int index : (*surviving)[e]) {
        reduced.Push(candidates[e][index]);
      }
      reduced.FinishEntity();
    }
    std::optional<std::vector<int>> choice = FindSatisfyingAssignment(
        predicate, reduced, SearchMode::kPruned, stats);
    if (!choice.has_value()) return std::nullopt;
    for (size_t e = 0; e < candidates.size(); ++e) {
      (*choice)[e] = (*surviving)[e][(*choice)[e]];
    }
    return choice;
  }

  SearchStats local_stats;
  SearchContext ctx;
  ctx.predicate = &predicate;
  ctx.candidates = &candidates;
  ctx.stats = stats != nullptr ? stats : &local_stats;

  int num_entities = static_cast<int>(candidates.size());
  ctx.choice.assign(num_entities, 0);
  ctx.assigned.assign(num_entities, false);
  ctx.values.assign(num_entities, 0);
  // Unconstrained entities (and constrained ones, before assignment) default
  // to their first candidate where one exists.
  for (int e = 0; e < num_entities; ++e) {
    if (!candidates[e].empty()) ctx.values[e] = candidates[e][0];
  }

  std::set<EntityId> mentioned = predicate.Entities();
  for (EntityId e : mentioned) {
    if (e < 0 || e >= num_entities) {
      return std::nullopt;  // Predicate mentions an unknown entity.
    }
    if (candidates[e].empty()) return std::nullopt;  // No version available.
    ctx.constrained.push_back(e);
  }
  // MRV static ordering: fewest candidates first (ties by id for
  // determinism).
  std::sort(ctx.constrained.begin(), ctx.constrained.end(),
            [&](EntityId a, EntityId b) {
              int32_t ca = candidates[a].size(), cb = candidates[b].size();
              if (ca != cb) return ca < cb;
              return a < b;
            });

  ctx.clauses_of.assign(num_entities, {});
  const std::vector<Clause>& clauses = predicate.clauses();
  ctx.clause_entities.resize(clauses.size());
  for (size_t c = 0; c < clauses.size(); ++c) {
    std::set<EntityId> object = clauses[c].Object();
    ctx.clause_entities[c].assign(object.begin(), object.end());
    for (EntityId e : object) {
      ctx.clauses_of[e].push_back(static_cast<int>(c));
    }
  }

  if (mode == SearchMode::kPruned) {
    // Per-depth mask buffers, sized to each depth's stripe once up front.
    ctx.depth_mask.resize(ctx.constrained.size());
    ctx.depth_scratch.resize(ctx.constrained.size());
    for (size_t d = 0; d < ctx.constrained.size(); ++d) {
      size_t width = candidates[ctx.constrained[d]].size();
      ctx.depth_mask[d].reserve(width);
      ctx.depth_scratch[d].resize(width);
    }
  }

  bool found = mode == SearchMode::kPruned ? PrunedSearch(&ctx, 0)
                                           : ExhaustiveSearch(&ctx, 0);
  if (!found) return std::nullopt;
  // Re-resolve values from choices and double-check the full predicate.
  for (EntityId e : ctx.constrained) {
    ctx.values[e] = candidates[e][ctx.choice[e]];
  }
  NONSERIAL_CHECK(predicate.Eval(ctx.values));
  return ctx.choice;
}

std::optional<std::vector<int>> FindSatisfyingAssignment(
    const Predicate& predicate,
    const std::vector<std::vector<Value>>& candidates, SearchMode mode,
    SearchStats* stats) {
  return FindSatisfyingAssignment(predicate, ViewsOfLists(candidates), mode,
                                  stats);
}

std::optional<std::vector<int>> FindSatisfyingAssignment(
    const Predicate& predicate, const CandidateBuffer& candidates,
    SearchMode mode, SearchStats* stats) {
  return FindSatisfyingAssignment(predicate, candidates.Views(), mode, stats);
}

std::optional<std::vector<int>> DeltaRevalidate(
    const Predicate& predicate, const std::vector<CandidateView>& candidates,
    const std::vector<int>& prev_choice, const std::set<EntityId>& changed,
    SearchMode mode, SearchStats* stats, DeltaStats* delta_stats) {
  DeltaStats local_delta;
  if (delta_stats == nullptr) delta_stats = &local_delta;

  int num_entities = static_cast<int>(candidates.size());
  bool pins_usable = prev_choice.size() == candidates.size();
  std::vector<bool> pinned;
  std::vector<CandidateView> reduced;
  if (pins_usable) {
    pinned.assign(num_entities, false);
    reduced.resize(num_entities);
    for (int e = 0; e < num_entities; ++e) {
      int prev = prev_choice[e];
      bool pin = !changed.contains(e) && prev >= 0 &&
                 prev < candidates[e].size();
      if (pin) {
        // Unchanged entity: its candidate list is as it was when
        // prev_choice was found, so the single previously chosen value is
        // enough — a one-element view into the original storage; the
        // search space collapses to the changed entities with zero copies.
        pinned[e] = true;
        reduced[e] = CandidateView{candidates[e].data + prev, 1};
      } else {
        reduced[e] = candidates[e];
      }
    }
  }

  if (pins_usable) {
    std::optional<std::vector<int>> choice =
        FindSatisfyingAssignment(predicate, reduced, mode, stats);
    if (choice.has_value()) {
      ++delta_stats->delta_solves;
      for (int e = 0; e < num_entities; ++e) {
        if (pinned[e]) (*choice)[e] = prev_choice[e];
      }
      return choice;
    }
  }

  // The pinned problem was unsatisfiable (or the pins were unusable):
  // re-solve from scratch so the overall answer matches the from-scratch
  // search — pinning only ever narrows the space, never the answer.
  ++delta_stats->delta_fallbacks;
  return FindSatisfyingAssignment(predicate, candidates, mode, stats);
}

std::optional<std::vector<int>> DeltaRevalidate(
    const Predicate& predicate,
    const std::vector<std::vector<Value>>& candidates,
    const std::vector<int>& prev_choice, const std::set<EntityId>& changed,
    SearchMode mode, SearchStats* stats, DeltaStats* delta_stats) {
  return DeltaRevalidate(predicate, ViewsOfLists(candidates), prev_choice,
                         changed, mode, stats, delta_stats);
}

std::optional<std::vector<int>> DeltaRevalidate(
    const Predicate& predicate, const CandidateBuffer& candidates,
    const std::vector<int>& prev_choice, const std::set<EntityId>& changed,
    SearchMode mode, SearchStats* stats, DeltaStats* delta_stats) {
  return DeltaRevalidate(predicate, candidates.Views(), prev_choice, changed,
                         mode, stats, delta_stats);
}

}  // namespace nonserial
