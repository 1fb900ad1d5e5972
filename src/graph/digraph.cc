#include "graph/digraph.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"

namespace nonserial {

void Digraph::EnsureNodes(int n) {
  if (n > num_nodes()) adjacency_.resize(n);
}

void Digraph::AddEdge(int from, int to) {
  NONSERIAL_CHECK_GE(from, 0);
  NONSERIAL_CHECK_GE(to, 0);
  EnsureNodes(std::max(from, to) + 1);
  std::vector<int>& out = adjacency_[from];
  if (std::find(out.begin(), out.end(), to) == out.end()) {
    out.push_back(to);
    ++num_edges_;
  }
}

bool Digraph::HasEdge(int from, int to) const {
  if (from < 0 || from >= num_nodes()) return false;
  const std::vector<int>& out = adjacency_[from];
  return std::find(out.begin(), out.end(), to) != out.end();
}

namespace {

enum class Color : uint8_t { kWhite, kGray, kBlack };

// DFS that records a cycle in `cycle` when found. Returns true on cycle.
bool DfsCycle(const std::vector<std::vector<int>>& adj, int node,
              std::vector<Color>* color, std::vector<int>* stack,
              std::vector<int>* cycle) {
  (*color)[node] = Color::kGray;
  stack->push_back(node);
  for (int next : adj[node]) {
    if ((*color)[next] == Color::kGray) {
      // Found a back edge; extract the cycle from the stack.
      auto it = std::find(stack->begin(), stack->end(), next);
      cycle->assign(it, stack->end());
      return true;
    }
    if ((*color)[next] == Color::kWhite &&
        DfsCycle(adj, next, color, stack, cycle)) {
      return true;
    }
  }
  stack->pop_back();
  (*color)[node] = Color::kBlack;
  return false;
}

}  // namespace

std::vector<int> Digraph::FindCycle() const {
  std::vector<Color> color(num_nodes(), Color::kWhite);
  std::vector<int> stack;
  std::vector<int> cycle;
  for (int i = 0; i < num_nodes(); ++i) {
    if (color[i] == Color::kWhite &&
        DfsCycle(adjacency_, i, &color, &stack, &cycle)) {
      return cycle;
    }
  }
  return {};
}

bool Digraph::HasCycle() const { return !FindCycle().empty(); }

std::optional<std::vector<int>> Digraph::TopologicalOrder() const {
  return CompactDigraph(*this).TopologicalOrder();
}

bool Digraph::Reaches(int from, int to) const {
  if (from < 0 || from >= num_nodes()) return false;
  if (from == to) return true;
  std::vector<bool> seen(num_nodes(), false);
  std::vector<int> stack = {from};
  seen[from] = true;
  while (!stack.empty()) {
    int node = stack.back();
    stack.pop_back();
    for (int next : adjacency_[node]) {
      if (next == to) return true;
      if (!seen[next]) {
        seen[next] = true;
        stack.push_back(next);
      }
    }
  }
  return false;
}

std::vector<int> Digraph::StronglyConnectedComponents(
    int* num_components) const {
  return CompactDigraph(*this).StronglyConnectedComponents(num_components);
}

CompactDigraph::CompactDigraph(int num_nodes,
                               const std::vector<std::pair<int, int>>& edges,
                               bool reverse)
    : start_(num_nodes + 1, 0), target_(edges.size()) {
  for (auto [from, to] : edges) ++start_[(reverse ? to : from) + 1];
  for (int v = 0; v < num_nodes; ++v) start_[v + 1] += start_[v];
  std::vector<int> fill(start_.begin(), start_.end() - 1);
  for (auto [from, to] : edges) {
    if (reverse) std::swap(from, to);
    target_[fill[from]++] = to;
  }
}

CompactDigraph::CompactDigraph(const Digraph& g)
    : start_(g.num_nodes() + 1, 0) {
  target_.reserve(g.num_edges());
  for (int v = 0; v < g.num_nodes(); ++v) {
    target_.insert(target_.end(), g.OutEdges(v).begin(), g.OutEdges(v).end());
    start_[v + 1] = static_cast<int>(target_.size());
  }
}

std::optional<std::vector<int>> CompactDigraph::TopologicalOrder() const {
  std::vector<int> indegree(num_nodes(), 0);
  for (int to : target_) ++indegree[to];
  std::vector<int> order;
  order.reserve(num_nodes());
  for (int v = 0; v < num_nodes(); ++v) {
    if (indegree[v] == 0) order.push_back(v);
  }
  for (size_t head = 0; head < order.size(); ++head) {
    for (int next : OutEdges(order[head])) {
      if (--indegree[next] == 0) order.push_back(next);
    }
  }
  if (static_cast<int>(order.size()) != num_nodes()) return std::nullopt;
  return order;
}

std::vector<int> CompactDigraph::StronglyConnectedComponents(
    int* num_components) const {
  int n = num_nodes();
  std::vector<int> index(n, -1), lowlink(n, 0), component(n, -1), stack;
  std::vector<std::pair<int, int>> path;  // (node, next out-edge slot)
  int next_index = 0;
  int count = 0;
  auto visit = [&](int v) {
    index[v] = lowlink[v] = next_index++;
    stack.push_back(v);
    path.push_back({v, start_[v]});
  };
  for (int root = 0; root < n; ++root) {
    if (index[root] >= 0) continue;
    visit(root);
    while (!path.empty()) {
      auto& [v, slot] = path.back();
      if (slot < start_[v + 1]) {
        int w = target_[slot++];
        if (index[w] < 0) {
          visit(w);  // Invalidates v and slot; the loop re-reads them.
        } else if (component[w] < 0) {  // Visited and still on the stack.
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
        continue;
      }
      int done = v;
      path.pop_back();
      if (!path.empty()) {
        int parent = path.back().first;
        lowlink[parent] = std::min(lowlink[parent], lowlink[done]);
      }
      if (lowlink[done] == index[done]) {
        int w;
        do {
          w = stack.back();
          stack.pop_back();
          component[w] = count;
        } while (w != done);
        ++count;
      }
    }
  }
  if (num_components != nullptr) *num_components = count;
  return component;
}

std::string Digraph::ToString() const {
  std::ostringstream os;
  os << "Digraph(" << num_nodes() << " nodes):";
  for (int i = 0; i < num_nodes(); ++i) {
    for (int j : adjacency_[i]) os << " " << i << "->" << j;
  }
  return os.str();
}

std::string Digraph::ToDot(
    const std::function<std::string(int)>& name_of) const {
  std::ostringstream os;
  os << "digraph G {\n";
  for (int i = 0; i < num_nodes(); ++i) {
    os << "  n" << i << " [label=\""
       << (name_of ? name_of(i) : std::to_string(i)) << "\"];\n";
  }
  for (int i = 0; i < num_nodes(); ++i) {
    for (int j : adjacency_[i]) {
      os << "  n" << i << " -> n" << j << ";\n";
    }
  }
  os << "}\n";
  return os.str();
}

bool ForEachPermutation(
    int n, const std::function<bool(const std::vector<int>&)>& fn) {
  std::vector<int> perm(n);
  for (int i = 0; i < n; ++i) perm[i] = i;
  do {
    if (fn(perm)) return true;
  } while (std::next_permutation(perm.begin(), perm.end()));
  return false;
}

}  // namespace nonserial
