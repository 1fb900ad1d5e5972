#ifndef NONSERIAL_GRAPH_DIGRAPH_H_
#define NONSERIAL_GRAPH_DIGRAPH_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace nonserial {

/// A simple directed graph over dense node ids [0, num_nodes). Used for
/// conflict graphs, partial orders, waits-for graphs, and the per-conjunct
/// read-before-write graphs of the CPC recognizer.
///
/// Parallel edges are collapsed; self-loops are representable (and count as
/// cycles).
class Digraph {
 public:
  Digraph() = default;
  explicit Digraph(int num_nodes) : adjacency_(num_nodes) {}

  int num_nodes() const { return static_cast<int>(adjacency_.size()); }
  int num_edges() const { return num_edges_; }

  /// Grows the node set to at least `n` nodes.
  void EnsureNodes(int n);

  /// Adds edge from -> to (idempotent). Nodes are grown on demand.
  void AddEdge(int from, int to);

  bool HasEdge(int from, int to) const;

  const std::vector<int>& OutEdges(int node) const {
    return adjacency_[node];
  }

  /// True iff the graph contains a directed cycle (including self-loops).
  bool HasCycle() const;

  /// Returns a topological order, or nullopt if the graph is cyclic
  /// (CompactDigraph::TopologicalOrder).
  std::optional<std::vector<int>> TopologicalOrder() const;

  /// Returns nodes of one directed cycle (in order), or empty if acyclic.
  std::vector<int> FindCycle() const;

  /// Reachability: true iff there is a directed path from `from` to `to`
  /// (a node reaches itself trivially).
  bool Reaches(int from, int to) const;

  /// Strongly connected components (CompactDigraph::
  /// StronglyConnectedComponents).
  std::vector<int> StronglyConnectedComponents(int* num_components) const;

  /// Human-readable edge list for diagnostics.
  std::string ToString() const;

  /// Graphviz DOT rendering; `name_of` labels nodes (defaults to indices).
  std::string ToDot(
      const std::function<std::string(int)>& name_of = nullptr) const;

 private:
  std::vector<std::vector<int>> adjacency_;
  int num_edges_ = 0;
};

/// A directed graph over [0, num_nodes) built once and never changed, in
/// compressed rows: every node's out-edges sit in one array, so n nodes and
/// m edges take n + m + 1 words and no per-node allocation. Parallel edges
/// are kept (they change no order or reachability).
class CompactDigraph {
 public:
  /// From a (from, to) edge list. With `reverse`, each edge is filed under
  /// its `to` end instead, so OutEdges(v) lists v's predecessors.
  CompactDigraph(int num_nodes, const std::vector<std::pair<int, int>>& edges,
                 bool reverse = false);
  explicit CompactDigraph(const Digraph& g);

  int num_nodes() const { return static_cast<int>(start_.size()) - 1; }

  /// Out-edges of `node`, in the order they were given.
  std::span<const int> OutEdges(int node) const {
    return std::span<const int>(target_).subspan(
        start_[node], start_[node + 1] - start_[node]);
  }

  /// Returns a topological order (Kahn; ready nodes in ascending order,
  /// then in the order they become ready), or nullopt if the graph is
  /// cyclic.
  std::optional<std::vector<int>> TopologicalOrder() const;

  /// Strongly connected components (Tarjan, with an explicit stack, so
  /// deep graphs do not exhaust the call stack). Returns, for each node,
  /// its component id; ids are in reverse topological order of the
  /// condensation.
  std::vector<int> StronglyConnectedComponents(int* num_components) const;

 private:
  std::vector<int> start_;   ///< num_nodes + 1 row offsets into target_.
  std::vector<int> target_;
};

/// Calls `fn(perm)` for every permutation of {0..n-1}; stops early and
/// returns true as soon as `fn` returns true (found). Returns false if no
/// permutation was accepted. Used by the exponential exact recognizers
/// (view serializability, MVSR, PC) on small inputs.
bool ForEachPermutation(int n, const std::function<bool(const std::vector<int>&)>& fn);

}  // namespace nonserial

#endif  // NONSERIAL_GRAPH_DIGRAPH_H_
