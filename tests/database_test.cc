#include <gtest/gtest.h>

#include "core/database.h"

namespace nonserial {
namespace {

// The quickstart scenario: two designers cooperating on a small design.
Database MakeQuickstartDb() {
  Database db;
  EXPECT_TRUE(db.AddEntity("x", 50).ok());
  EXPECT_TRUE(db.AddEntity("y", 50).ok());
  EXPECT_TRUE(db.SetConstraint(
                    "(x >= 0) & (x <= 100) & (y >= 0) & (y <= 100)")
                  .ok());
  return db;
}

TEST(DatabaseTest, EntityRegistration) {
  Database db;
  ASSERT_TRUE(db.AddEntity("x", 1).ok());
  EXPECT_FALSE(db.AddEntity("x", 2).ok());
  EXPECT_EQ(db.catalog().size(), 1);
}

TEST(DatabaseTest, ConstraintParsingAndObjects) {
  Database db = MakeQuickstartDb();
  EXPECT_EQ(db.constraint().clauses().size(), 4u);
  EXPECT_FALSE(db.SetConstraint("zz > 0").ok());
}

TEST(DatabaseTest, ScriptBuildingValidatesNames) {
  Database db = MakeQuickstartDb();
  int t = db.NewTransaction("t");
  EXPECT_TRUE(db.Read(t, "x").ok());
  EXPECT_FALSE(db.Read(t, "nope").ok());
  auto x = db.Var("x");
  ASSERT_TRUE(x.ok());
  EXPECT_TRUE(db.Write(t, "x", Expr::Add(*x, Expr::Const(1))).ok());
  EXPECT_FALSE(db.Var("nope").ok());
}

TEST(DatabaseTest, WriteFromUnreadEntityRejected) {
  Database db = MakeQuickstartDb();
  int t = db.NewTransaction("t");
  auto y = db.Var("y");
  ASSERT_TRUE(y.ok());
  EXPECT_EQ(db.Write(t, "x", *y).code(), StatusCode::kFailedPrecondition);
}

TEST(DatabaseTest, DerivedSpecificationsMentionTouchedEntities) {
  Database db = MakeQuickstartDb();
  int t = db.NewTransaction("t");
  ASSERT_TRUE(db.Read(t, "x").ok());
  auto workload = db.BuildWorkload();
  ASSERT_TRUE(workload.ok());
  std::set<EntityId> inputs = workload->txs[0].input.Entities();
  EXPECT_TRUE(inputs.contains(0));  // x in N_t.
  EXPECT_FALSE(inputs.contains(1));
}

TEST(DatabaseTest, ExplicitSpecificationsOverrideDerived) {
  Database db = MakeQuickstartDb();
  int t = db.NewTransaction("t");
  ASSERT_TRUE(db.Read(t, "x").ok());
  ASSERT_TRUE(db.SetInput(t, "(x >= 10) & (x <= 90)").ok());
  ASSERT_TRUE(db.SetOutput(t, "x >= 10").ok());
  auto workload = db.BuildWorkload();
  ASSERT_TRUE(workload.ok());
  EXPECT_EQ(workload->txs[0].input.clauses().size(), 2u);
  EXPECT_EQ(workload->txs[0].output.clauses().size(), 1u);
}

TEST(DatabaseTest, AfterBuildsPartialOrder) {
  Database db = MakeQuickstartDb();
  int t0 = db.NewTransaction("first");
  int t1 = db.NewTransaction("second");
  EXPECT_TRUE(db.After(t1, t0).ok());
  EXPECT_FALSE(db.After(t1, t1).ok());
  EXPECT_FALSE(db.After(t1, 99).ok());
  auto workload = db.BuildWorkload();
  ASSERT_TRUE(workload.ok());
  EXPECT_EQ(workload->txs[1].predecessors, (std::vector<int>{0}));
}

TEST(DatabaseTest, EmptyDatabaseCannotBuild) {
  Database db;
  EXPECT_FALSE(db.BuildWorkload().ok());
}

class DatabaseRunTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(DatabaseRunTest, CooperatingTransactionsCommit) {
  Database db = MakeQuickstartDb();
  int t0 = db.NewTransaction("alice", /*arrival=*/0, /*think_time=*/20);
  ASSERT_TRUE(db.Read(t0, "x").ok());
  ASSERT_TRUE(db.Write(t0, "x", Expr::Add(*db.Var("x"), Expr::Const(5))).ok());
  int t1 = db.NewTransaction("bob", /*arrival=*/3, /*think_time=*/20);
  ASSERT_TRUE(db.Read(t1, "y").ok());
  ASSERT_TRUE(db.Write(t1, "y", Expr::Sub(*db.Var("y"), Expr::Const(5))).ok());
  auto report = db.Run(GetParam());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->result.all_committed);
  EXPECT_EQ(report->result.final_state, (ValueVector{55, 45}));
  EXPECT_TRUE(report->verification.ok()) << report->verification;
  EXPECT_FALSE(report->stats_summary.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, DatabaseRunTest,
    ::testing::Values(ProtocolKind::kCep, ProtocolKind::kStrict2pl,
                      ProtocolKind::kPredicatewise2pl, ProtocolKind::kMvto,
                      ProtocolKind::kPwMvto),
    [](const ::testing::TestParamInfo<ProtocolKind>& info) {
      std::string name = ProtocolKindName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(DatabaseRunTest, NonSerializableButCorrectUnderCep) {
  // The paper's motivating shape: two long transactions each read the
  // other's entity before the other writes it. A serializable system
  // orders them; CEP lets both use old versions and still commits a
  // correct execution.
  Database db = MakeQuickstartDb();
  int t0 = db.NewTransaction("alice", 0, 50);
  ASSERT_TRUE(db.Read(t0, "x").ok());
  ASSERT_TRUE(db.Read(t0, "y").ok());
  ASSERT_TRUE(db.Write(t0, "x", Expr::Add(*db.Var("y"), Expr::Const(1))).ok());
  int t1 = db.NewTransaction("bob", 1, 50);
  ASSERT_TRUE(db.Read(t1, "x").ok());
  ASSERT_TRUE(db.Read(t1, "y").ok());
  ASSERT_TRUE(db.Write(t1, "y", Expr::Add(*db.Var("x"), Expr::Const(1))).ok());
  auto report = db.Run(ProtocolKind::kCep);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->result.all_committed);
  EXPECT_TRUE(report->verification.ok()) << report->verification;
  // Both read the original values: x = y = 51 — a version-state mix no
  // serial execution produces (serial gives 51 and 52).
  EXPECT_EQ(report->result.final_state, (ValueVector{51, 51}));
}

}  // namespace
}  // namespace nonserial
