#include <gtest/gtest.h>

#include "common/random.h"
#include "predicate/assignment_search.h"

namespace nonserial {
namespace {

TEST(AssignmentSearchTest, TruePredicateTrivial) {
  std::vector<std::vector<Value>> candidates = {{1, 2}, {3}};
  auto choice = FindSatisfyingAssignment(Predicate::True(), candidates);
  ASSERT_TRUE(choice.has_value());
  EXPECT_EQ((*choice)[0], 0);  // Unconstrained entities keep choice 0.
  EXPECT_EQ((*choice)[1], 0);
}

TEST(AssignmentSearchTest, PicksSatisfyingVersion) {
  std::vector<std::vector<Value>> candidates = {{5, 50, 500}};
  auto choice = FindSatisfyingAssignment(Range(0, 10, 100),
                                         candidates);
  ASSERT_TRUE(choice.has_value());
  EXPECT_EQ((*choice)[0], 1);  // Value 50.
}

TEST(AssignmentSearchTest, UnsatisfiableReturnsNullopt) {
  std::vector<std::vector<Value>> candidates = {{5, 500}};
  EXPECT_FALSE(
      FindSatisfyingAssignment(Range(0, 10, 100), candidates)
          .has_value());
}

TEST(AssignmentSearchTest, CrossEntityConstraint) {
  // Need x < y; versions x in {9, 3}, y in {2, 5}.
  Predicate p;
  p.AddClause(Clause({EntityVsEntity(0, CompareOp::kLt, 1)}));
  std::vector<std::vector<Value>> candidates = {{9, 3}, {2, 5}};
  auto choice = FindSatisfyingAssignment(p, candidates);
  ASSERT_TRUE(choice.has_value());
  EXPECT_EQ(candidates[0][(*choice)[0]], 3);
  EXPECT_EQ(candidates[1][(*choice)[1]], 5);
}

TEST(AssignmentSearchTest, EmptyCandidateListFails) {
  std::vector<std::vector<Value>> candidates = {{}};
  EXPECT_FALSE(FindSatisfyingAssignment(Range(0, 0, 10), candidates)
                   .has_value());
}

TEST(AssignmentSearchTest, PredicateMentionsUnknownEntityFails) {
  std::vector<std::vector<Value>> candidates = {{1}};
  EXPECT_FALSE(FindSatisfyingAssignment(Range(3, 0, 10), candidates)
                   .has_value());
}

TEST(AssignmentSearchTest, ExhaustiveAndPrunedAgree) {
  Rng rng(42);
  for (int trial = 0; trial < 100; ++trial) {
    int n = 2 + static_cast<int>(rng.Uniform(4));
    std::vector<std::vector<Value>> candidates(n);
    for (int e = 0; e < n; ++e) {
      int k = 1 + static_cast<int>(rng.Uniform(4));
      for (int i = 0; i < k; ++i) {
        candidates[e].push_back(rng.UniformInt(0, 9));
      }
    }
    Predicate p;
    int num_clauses = 1 + static_cast<int>(rng.Uniform(4));
    for (int c = 0; c < num_clauses; ++c) {
      Clause clause;
      int atoms = 1 + static_cast<int>(rng.Uniform(3));
      for (int a = 0; a < atoms; ++a) {
        EntityId lhs = static_cast<EntityId>(rng.Uniform(n));
        CompareOp op = static_cast<CompareOp>(rng.Uniform(6));
        if (rng.Bernoulli(0.5)) {
          clause.AddAtom(
              EntityVsEntity(lhs, op, static_cast<EntityId>(rng.Uniform(n))));
        } else {
          clause.AddAtom(EntityVsConst(lhs, op, rng.UniformInt(0, 9)));
        }
      }
      p.AddClause(std::move(clause));
    }
    auto pruned =
        FindSatisfyingAssignment(p, candidates, SearchMode::kPruned);
    auto exhaustive =
        FindSatisfyingAssignment(p, candidates, SearchMode::kExhaustive);
    EXPECT_EQ(pruned.has_value(), exhaustive.has_value())
        << "trial " << trial << " predicate " << p.ToString();
  }
}

TEST(AssignmentSearchTest, PruningVisitsFewerNodes) {
  // A predicate falsified early: pruning should cut the cartesian space.
  Predicate p;
  p.AddClause(Clause({EntityVsConst(0, CompareOp::kEq, -1)}));  // Impossible.
  for (EntityId e = 1; e < 8; ++e) {
    p.AddClause(Clause({EntityVsConst(e, CompareOp::kGe, 0)}));
  }
  std::vector<std::vector<Value>> candidates(8, std::vector<Value>{0, 1, 2});
  SearchStats pruned_stats, exhaustive_stats;
  EXPECT_FALSE(FindSatisfyingAssignment(p, candidates, SearchMode::kPruned,
                                        &pruned_stats)
                   .has_value());
  EXPECT_FALSE(FindSatisfyingAssignment(
                   p, candidates, SearchMode::kExhaustive, &exhaustive_stats)
                   .has_value());
  EXPECT_LT(pruned_stats.nodes_visited, exhaustive_stats.nodes_visited);
  EXPECT_EQ(exhaustive_stats.nodes_visited, 6561);  // 3^8 leaves.
}

TEST(IndexedSearchTest, AgreesWithPrunedOnRandomInstances) {
  Rng rng(271828);
  for (int trial = 0; trial < 100; ++trial) {
    int n = 2 + static_cast<int>(rng.Uniform(4));
    std::vector<std::vector<Value>> candidates(n);
    for (int e = 0; e < n; ++e) {
      int k = 1 + static_cast<int>(rng.Uniform(5));
      for (int i = 0; i < k; ++i) candidates[e].push_back(rng.UniformInt(0, 9));
    }
    Predicate p;
    int num_clauses = 1 + static_cast<int>(rng.Uniform(5));
    for (int c = 0; c < num_clauses; ++c) {
      Clause clause;
      int atoms = 1 + static_cast<int>(rng.Uniform(2));  // Many unit clauses.
      for (int a = 0; a < atoms; ++a) {
        EntityId lhs = static_cast<EntityId>(rng.Uniform(n));
        CompareOp op = static_cast<CompareOp>(rng.Uniform(6));
        clause.AddAtom(EntityVsConst(lhs, op, rng.UniformInt(0, 9)));
      }
      p.AddClause(std::move(clause));
    }
    auto indexed =
        FindSatisfyingAssignment(p, candidates, SearchMode::kIndexed);
    auto pruned =
        FindSatisfyingAssignment(p, candidates, SearchMode::kPruned);
    ASSERT_EQ(indexed.has_value(), pruned.has_value()) << p.ToString();
    if (indexed.has_value()) {
      // The mapped-back choice satisfies the predicate on original lists.
      ValueVector values(n);
      for (int e = 0; e < n; ++e) values[e] = candidates[e][(*indexed)[e]];
      EXPECT_TRUE(p.Eval(values)) << p.ToString();
    }
  }
}

TEST(IndexedSearchTest, FilterPrunesBeforeSearching) {
  // A predicate that is unit-refutable: index filtering alone detects the
  // contradiction, with zero search nodes.
  Predicate p;
  p.AddClause(Clause({EntityVsConst(0, CompareOp::kGe, 5)}));
  p.AddClause(Clause({EntityVsConst(0, CompareOp::kLe, 3)}));
  std::vector<std::vector<Value>> candidates = {{0, 2, 4, 6, 8}};
  SearchStats stats;
  EXPECT_FALSE(FindSatisfyingAssignment(p, candidates, SearchMode::kIndexed,
                                        &stats)
                   .has_value());
  EXPECT_EQ(stats.nodes_visited, 0);
}

TEST(IndexedSearchTest, ConstantOnLeftHandled) {
  // 5 <= e0 filters just like e0 >= 5.
  Predicate p;
  p.AddClause(Clause({MakeAtom(Term::Constant(5), CompareOp::kLe,
                               Term::Entity(0))}));
  std::vector<std::vector<Value>> candidates = {{1, 7}};
  auto choice = FindSatisfyingAssignment(p, candidates, SearchMode::kIndexed);
  ASSERT_TRUE(choice.has_value());
  EXPECT_EQ(candidates[0][(*choice)[0]], 7);
}

TEST(AssignmentSearchTest, StatsCountNodes) {
  std::vector<std::vector<Value>> candidates = {{1, 2}, {3, 4}};
  Predicate p;
  p.AddClause(Clause({EntityVsConst(0, CompareOp::kGe, 0)}));
  p.AddClause(Clause({EntityVsConst(1, CompareOp::kGe, 0)}));
  SearchStats stats;
  ASSERT_TRUE(FindSatisfyingAssignment(p, candidates, SearchMode::kPruned,
                                       &stats)
                  .has_value());
  EXPECT_GT(stats.nodes_visited, 0);
}

}  // namespace
}  // namespace nonserial
