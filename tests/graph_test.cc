#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "graph/digraph.h"

namespace nonserial {
namespace {

TEST(DigraphTest, EmptyGraphIsAcyclic) {
  Digraph g;
  EXPECT_FALSE(g.HasCycle());
  EXPECT_EQ(g.num_nodes(), 0);
  ASSERT_TRUE(g.TopologicalOrder().has_value());
}

TEST(DigraphTest, AddEdgeGrowsNodes) {
  Digraph g;
  g.AddEdge(2, 5);
  EXPECT_EQ(g.num_nodes(), 6);
  EXPECT_TRUE(g.HasEdge(2, 5));
  EXPECT_FALSE(g.HasEdge(5, 2));
}

TEST(DigraphTest, ParallelEdgesCollapse) {
  Digraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(0, 1);
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(DigraphTest, SelfLoopIsCycle) {
  Digraph g(2);
  g.AddEdge(1, 1);
  EXPECT_TRUE(g.HasCycle());
}

TEST(DigraphTest, ChainIsAcyclic) {
  Digraph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  EXPECT_FALSE(g.HasCycle());
  auto topo = g.TopologicalOrder();
  ASSERT_TRUE(topo.has_value());
  EXPECT_EQ(*topo, (std::vector<int>{0, 1, 2, 3}));
}

TEST(DigraphTest, TriangleCycleDetected) {
  Digraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 0);
  EXPECT_TRUE(g.HasCycle());
  EXPECT_FALSE(g.TopologicalOrder().has_value());
  std::vector<int> cycle = g.FindCycle();
  EXPECT_EQ(cycle.size(), 3u);
  std::set<int> members(cycle.begin(), cycle.end());
  EXPECT_EQ(members, (std::set<int>{0, 1, 2}));
}

TEST(DigraphTest, CycleInLargerGraphFound) {
  Digraph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(3, 4);
  g.AddEdge(4, 3);  // 2-cycle off to the side.
  std::vector<int> cycle = g.FindCycle();
  std::set<int> members(cycle.begin(), cycle.end());
  EXPECT_EQ(members, (std::set<int>{3, 4}));
}

TEST(DigraphTest, ReachesFollowsPaths) {
  Digraph g(5);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(3, 4);
  EXPECT_TRUE(g.Reaches(0, 2));
  EXPECT_TRUE(g.Reaches(0, 0));  // Trivially.
  EXPECT_FALSE(g.Reaches(2, 0));
  EXPECT_FALSE(g.Reaches(0, 4));
}

TEST(DigraphTest, StronglyConnectedComponents) {
  Digraph g(5);
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);  // {0,1}
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 2);  // {2,3}
  int count = 0;
  std::vector<int> comp = g.StronglyConnectedComponents(&count);
  EXPECT_EQ(count, 3);  // {0,1}, {2,3}, {4}.
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_NE(comp[4], comp[0]);
}

TEST(CompactDigraphTest, EdgeListRowsReverseAndParallelEdges) {
  std::vector<std::pair<int, int>> edges = {{0, 2}, {1, 2}, {0, 1}, {0, 2}};
  CompactDigraph g(3, edges);
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(std::vector<int>(g.OutEdges(0).begin(), g.OutEdges(0).end()),
            (std::vector<int>{2, 1, 2}));
  EXPECT_TRUE(g.OutEdges(2).empty());
  EXPECT_EQ(g.TopologicalOrder(), (std::vector<int>{0, 1, 2}));
  CompactDigraph in(3, edges, /*reverse=*/true);
  EXPECT_EQ(std::vector<int>(in.OutEdges(2).begin(), in.OutEdges(2).end()),
            (std::vector<int>{0, 1, 0}));
  EXPECT_FALSE(CompactDigraph(2, {{0, 1}, {1, 0}}).TopologicalOrder());
}

TEST(CompactDigraphTest, ComponentsOfADeepCycleNeedNoDeepCallStack) {
  // A 200,000-node cycle: one component, found without recursing per node.
  int n = 200'000;
  std::vector<std::pair<int, int>> edges;
  for (int v = 0; v < n; ++v) edges.push_back({v, (v + 1) % n});
  edges.push_back({n - 1, n - 1});
  int count = 0;
  std::vector<int> comp =
      CompactDigraph(n + 1, edges).StronglyConnectedComponents(&count);
  EXPECT_EQ(count, 2);  // The cycle, then the isolated node n.
  EXPECT_TRUE(std::all_of(comp.begin(), comp.end() - 1,
                          [&](int c) { return c == comp[0]; }));
  EXPECT_NE(comp[n], comp[0]);
}

TEST(DigraphTest, ToStringListsEdges) {
  Digraph g(2);
  g.AddEdge(0, 1);
  EXPECT_NE(g.ToString().find("0->1"), std::string::npos);
}

TEST(DigraphTest, ToDotRendersNodesAndEdges) {
  Digraph g(2);
  g.AddEdge(0, 1);
  std::string dot = g.ToDot([](int n) { return "t" + std::to_string(n); });
  EXPECT_NE(dot.find("digraph G"), std::string::npos);
  EXPECT_NE(dot.find("label=\"t0\""), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  // Default labels are indices.
  EXPECT_NE(g.ToDot().find("label=\"1\""), std::string::npos);
}

TEST(PermutationTest, VisitsAllPermutations) {
  int count = 0;
  bool found = ForEachPermutation(4, [&](const std::vector<int>&) {
    ++count;
    return false;
  });
  EXPECT_FALSE(found);
  EXPECT_EQ(count, 24);
}

TEST(PermutationTest, StopsEarlyWhenAccepted) {
  int count = 0;
  bool found = ForEachPermutation(5, [&](const std::vector<int>& p) {
    ++count;
    return p[0] == 1;  // Found once 1 leads.
  });
  EXPECT_TRUE(found);
  EXPECT_LT(count, 120);
}

TEST(PermutationTest, ZeroElementsRunsOnce) {
  int count = 0;
  ForEachPermutation(0, [&](const std::vector<int>& p) {
    EXPECT_TRUE(p.empty());
    ++count;
    return false;
  });
  EXPECT_EQ(count, 1);
}

}  // namespace
}  // namespace nonserial
