#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/status.h"
#include "predicate/predicate.h"

namespace nonserial {
namespace {

// Resolver for tests: names "a".."e" map to 0..4.
StatusOr<EntityId> TestResolve(const std::string& name) {
  if (name.size() == 1 && name[0] >= 'a' && name[0] <= 'e') {
    return static_cast<EntityId>(name[0] - 'a');
  }
  return Status::NotFound("unknown " + name);
}

TEST(CompareOpTest, AllOperatorsEvaluate) {
  EXPECT_TRUE(EvalCompare(1, CompareOp::kEq, 1));
  EXPECT_TRUE(EvalCompare(1, CompareOp::kNe, 2));
  EXPECT_TRUE(EvalCompare(1, CompareOp::kLt, 2));
  EXPECT_TRUE(EvalCompare(2, CompareOp::kLe, 2));
  EXPECT_TRUE(EvalCompare(3, CompareOp::kGt, 2));
  EXPECT_TRUE(EvalCompare(2, CompareOp::kGe, 2));
  EXPECT_FALSE(EvalCompare(1, CompareOp::kEq, 2));
  EXPECT_FALSE(EvalCompare(2, CompareOp::kLt, 2));
}

TEST(CompareOpTest, Names) {
  EXPECT_STREQ(CompareOpName(CompareOp::kEq), "=");
  EXPECT_STREQ(CompareOpName(CompareOp::kNe), "!=");
  EXPECT_STREQ(CompareOpName(CompareOp::kLe), "<=");
}

TEST(AtomTest, EntityVsConst) {
  Atom atom = EntityVsConst(0, CompareOp::kGt, 5);
  EXPECT_TRUE(atom.Eval({6, 0}));
  EXPECT_FALSE(atom.Eval({5, 0}));
}

TEST(AtomTest, EntityVsEntity) {
  Atom atom = EntityVsEntity(0, CompareOp::kLe, 1);
  EXPECT_TRUE(atom.Eval({3, 3}));
  EXPECT_TRUE(atom.Eval({2, 3}));
  EXPECT_FALSE(atom.Eval({4, 3}));
}

TEST(AtomTest, CollectEntities) {
  std::set<EntityId> out;
  EntityVsEntity(2, CompareOp::kEq, 4).CollectEntities(&out);
  EXPECT_EQ(out, (std::set<EntityId>{2, 4}));
  out.clear();
  EntityVsConst(1, CompareOp::kEq, 9).CollectEntities(&out);
  EXPECT_EQ(out, (std::set<EntityId>{1}));
}

TEST(ClauseTest, DisjunctionSemantics) {
  Clause clause({EntityVsConst(0, CompareOp::kEq, 1),
                 EntityVsConst(1, CompareOp::kEq, 2)});
  EXPECT_TRUE(clause.Eval({1, 0}));
  EXPECT_TRUE(clause.Eval({0, 2}));
  EXPECT_FALSE(clause.Eval({0, 0}));
}

TEST(ClauseTest, EmptyClauseIsFalse) {
  Clause clause;
  EXPECT_FALSE(clause.Eval({1, 2}));
}

TEST(ClauseTest, ObjectIsEntitySet) {
  Clause clause({EntityVsEntity(0, CompareOp::kLt, 2),
                 EntityVsConst(2, CompareOp::kGe, 0)});
  EXPECT_EQ(clause.Object(), (std::set<EntityId>{0, 2}));
}

TEST(PredicateTest, TrueWhenEmpty) {
  EXPECT_TRUE(Predicate::True().Eval({}));
  EXPECT_TRUE(Predicate::True().IsTrue());
}

TEST(PredicateTest, ConjunctionSemantics) {
  Predicate p;
  p.AddClause(Clause({EntityVsConst(0, CompareOp::kGe, 0)}));
  p.AddClause(Clause({EntityVsConst(0, CompareOp::kLe, 10)}));
  EXPECT_TRUE(p.Eval({5}));
  EXPECT_FALSE(p.Eval({-1}));
  EXPECT_FALSE(p.Eval({11}));
}

TEST(PredicateTest, EntitiesUnion) {
  Predicate p;
  p.AddClause(Clause({EntityVsEntity(0, CompareOp::kLt, 1)}));
  p.AddClause(Clause({EntityVsConst(3, CompareOp::kEq, 0)}));
  EXPECT_EQ(p.Entities(), (std::set<EntityId>{0, 1, 3}));
}

TEST(PredicateTest, ObjectsDeduplicated) {
  Predicate p;
  p.AddClause(Clause({EntityVsConst(0, CompareOp::kGe, 0)}));
  p.AddClause(Clause({EntityVsConst(0, CompareOp::kLe, 9)}));  // Same object.
  p.AddClause(Clause({EntityVsEntity(0, CompareOp::kLt, 1)}));
  ObjectSetList objects = p.Objects();
  ASSERT_EQ(objects.size(), 2u);
  EXPECT_EQ(objects[0], (std::set<EntityId>{0}));
  EXPECT_EQ(objects[1], (std::set<EntityId>{0, 1}));
}

TEST(PredicateTest, AndConcatenatesClauses) {
  Predicate a, b;
  a.AddClause(Clause({EntityVsConst(0, CompareOp::kGe, 0)}));
  b.AddClause(Clause({EntityVsConst(1, CompareOp::kGe, 0)}));
  Predicate both = Predicate::And(a, b);
  EXPECT_EQ(both.clauses().size(), 2u);
  EXPECT_TRUE(both.Eval({0, 0}));
  EXPECT_FALSE(both.Eval({-1, 0}));
}

TEST(PredicateTest, CopiesShareClausesUntilOneSideMutates) {
  Predicate a;
  a.AddClause(Clause({EntityVsConst(0, CompareOp::kGe, 0)}));
  Predicate b = a;
  EXPECT_EQ(&a.clauses(), &b.clauses());
  b.AddClause(Clause({EntityVsConst(1, CompareOp::kLt, 5)}));
  EXPECT_NE(&a.clauses(), &b.clauses());
  // The original is unchanged.
  EXPECT_EQ(a.clauses().size(), 1u);
  EXPECT_EQ(a.ToString(), "(e0 >= 0)");
  EXPECT_TRUE(a.Eval({0, 9}));
  EXPECT_EQ(b.ToString(), "(e0 >= 0) & (e1 < 5)");
  EXPECT_FALSE(b.Eval({0, 9}));
  // Mutating the original leaves the copy alone too.
  Predicate c = a;
  a.AddClause(Clause({EntityVsConst(0, CompareOp::kEq, 3)}));
  EXPECT_EQ(c.ToString(), "(e0 >= 0)");
  EXPECT_TRUE(c.Eval({0, 0}));
  EXPECT_FALSE(a.Eval({0, 0}));
}

TEST(PredicateTest, TrueAndAndOfSharedPredicates) {
  EXPECT_TRUE(Predicate().IsTrue());
  EXPECT_TRUE(Predicate::True().IsTrue());
  EXPECT_TRUE(Predicate::True().clauses().empty());
  EXPECT_TRUE(Predicate(std::vector<Clause>{}).IsTrue());
  Predicate a;
  a.AddClause(Clause({EntityVsConst(0, CompareOp::kGe, 0)}));
  Predicate shared = a;
  Predicate both = Predicate::And(a, shared);
  EXPECT_EQ(both.ToString(), "(e0 >= 0) & (e0 >= 0)");
  EXPECT_EQ(Predicate::And(a, Predicate::True()).ToString(), "(e0 >= 0)");
  EXPECT_EQ(Predicate::And(Predicate::True(), a).ToString(), "(e0 >= 0)");
  EXPECT_TRUE(Predicate::And(Predicate(), Predicate()).IsTrue());
  both.AddClause(Clause({EntityVsConst(0, CompareOp::kLt, 1)}));
  EXPECT_EQ(a.ToString(), "(e0 >= 0)");
  EXPECT_EQ(shared.clauses().size(), 1u);
}

TEST(PredicateTest, ConcurrentCopiesAndEvaluationsOfOnePredicate) {
  Predicate p;
  p.AddClause(Clause({EntityVsConst(0, CompareOp::kGe, 0)}));
  p.AddClause(Clause({EntityVsEntity(0, CompareOp::kLt, 1)}));
  std::vector<int> holds(4, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&p, &holds, t] {
      for (int k = 0; k < 2000; ++k) {
        Predicate copy = p;
        if (k % 100 == 0) {
          copy.AddClause(Clause({EntityVsConst(1, CompareOp::kEq, k)}));
        }
        if (copy.Eval({t, t + 1}) && p.Eval({t, t + 1})) ++holds[t];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  // A thread's 20 copies that add e1 = k (k a multiple of 100, never
  // t + 1) fail; its other 1,980 copies hold.
  for (int t = 0; t < 4; ++t) EXPECT_EQ(holds[t], 1980) << "thread " << t;
  EXPECT_EQ(p.clauses().size(), 2u);
  // The threads dropped their copies; extending the original now writes
  // fresh storage, never the clauses those copies read.
  p.AddClause(Clause({EntityVsConst(1, CompareOp::kGe, 0)}));
  EXPECT_EQ(p.ToString(), "(e0 >= 0) & (e0 < e1) & (e1 >= 0)");
}

TEST(PredicateTest, ToStringReadable) {
  Predicate p;
  p.AddClause(Clause({EntityVsConst(0, CompareOp::kLt, 5),
                      EntityVsEntity(0, CompareOp::kEq, 1)}));
  EXPECT_EQ(p.ToString(), "(e0 < 5 | e0 = e1)");
  EXPECT_EQ(Predicate::True().ToString(), "true");
}

TEST(ParsePredicateTest, SingleAtom) {
  auto p = ParsePredicate("a < 5", TestResolve);
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->Eval({4, 0, 0, 0, 0}));
  EXPECT_FALSE(p->Eval({5, 0, 0, 0, 0}));
}

TEST(ParsePredicateTest, FullGrammar) {
  auto p = ParsePredicate("(a <= b | c != 0) & (d >= -2)", TestResolve);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->clauses().size(), 2u);
  EXPECT_TRUE(p->Eval({1, 2, 0, 0, 0}));   // a<=b, d>=-2.
  EXPECT_TRUE(p->Eval({3, 2, 7, 0, 0}));   // c!=0, d>=-2.
  EXPECT_FALSE(p->Eval({3, 2, 0, 0, 0}));  // First clause fails.
  EXPECT_FALSE(p->Eval({1, 2, 0, -3, 0}));
}

TEST(ParsePredicateTest, TrueAndEmptyTexts) {
  EXPECT_TRUE(ParsePredicate("true", TestResolve)->IsTrue());
  EXPECT_TRUE(ParsePredicate("", TestResolve)->IsTrue());
  EXPECT_TRUE(ParsePredicate("  ", TestResolve)->IsTrue());
}

TEST(ParsePredicateTest, AllOperators) {
  for (const char* text :
       {"a = 1", "a != 1", "a < 1", "a <= 1", "a > 1", "a >= 1"}) {
    EXPECT_TRUE(ParsePredicate(text, TestResolve).ok()) << text;
  }
}

TEST(ParsePredicateTest, NegativeConstants) {
  auto p = ParsePredicate("a > -10", TestResolve);
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->Eval({-9, 0, 0, 0, 0}));
  EXPECT_FALSE(p->Eval({-10, 0, 0, 0, 0}));
}

TEST(ParsePredicateTest, UnknownEntityRejected) {
  EXPECT_EQ(ParsePredicate("zz < 5", TestResolve).status().code(),
            StatusCode::kNotFound);
}

TEST(ParsePredicateTest, SyntaxErrorsRejected) {
  EXPECT_FALSE(ParsePredicate("a <", TestResolve).ok());
  EXPECT_FALSE(ParsePredicate("(a < 5", TestResolve).ok());
  EXPECT_FALSE(ParsePredicate("a 5", TestResolve).ok());
  EXPECT_FALSE(ParsePredicate("a < 5 garbage", TestResolve).ok());
  EXPECT_FALSE(ParsePredicate("& a < 5", TestResolve).ok());
}

TEST(ParsePredicateTest, RoundTripThroughToString) {
  auto p = ParsePredicate("(a <= b | c != 0) & (d >= -2)", TestResolve);
  ASSERT_TRUE(p.ok());
  std::string rendered = p->ToString([](EntityId e) {
    return std::string(1, static_cast<char>('a' + e));
  });
  auto reparsed = ParsePredicate(rendered, TestResolve);
  ASSERT_TRUE(reparsed.ok());
  // Same truth table on a few points.
  for (ValueVector v : {ValueVector{1, 2, 0, 0, 0}, ValueVector{3, 2, 0, 0, 0},
                        ValueVector{3, 2, 7, -5, 0}}) {
    EXPECT_EQ(p->Eval(v), reparsed->Eval(v));
  }
}

}  // namespace
}  // namespace nonserial
