#include "graph/bipartite_matching.h"

#include <numeric>

#include "graph/min_cost_flow.h"

namespace fdrepair {
namespace {

/// Stable counting sort of `items` by key(item) in [0, num_keys).
template <typename Key>
std::vector<int> CountingSort(const std::vector<int>& items, int num_keys,
                              Key key) {
  std::vector<int> start(static_cast<size_t>(num_keys) + 1, 0);
  for (int item : items) ++start[key(item) + 1];
  std::partial_sum(start.begin(), start.end(), start.begin());
  std::vector<int> sorted(items.size());
  for (int item : items) sorted[start[key(item)]++] = item;
  return sorted;
}

int FindRoot(std::vector<int>* parent, int node) {
  while ((*parent)[node] != node) {
    (*parent)[node] = (*parent)[(*parent)[node]];
    node = (*parent)[node];
  }
  return node;
}

/// Solves one connected component (`component`: input edge indices in
/// (left, right) order) by min-cost flow, marking the matched edges in
/// *chosen. `local_left` / `local_right` are per-node scratch; every node
/// belongs to exactly one component, so they need no reset between calls.
void SolveComponent(const std::vector<BipartiteEdge>& edges,
                    const std::vector<int>& component,
                    std::vector<int>* local_left,
                    std::vector<int>* local_right, std::vector<char>* chosen) {
  int num_left = 0;
  int num_right = 0;
  for (int e : component) {
    int& left = (*local_left)[edges[e].left];
    int& right = (*local_right)[edges[e].right];
    if (left < 0) left = num_left++;
    if (right < 0) right = num_right++;
  }
  // Network: source 0, left nodes 1..num_left, right nodes follow, sink last.
  const int source = 0;
  const int sink = num_left + num_right + 1;
  MinCostFlow flow(sink + 1);
  for (int u = 0; u < num_left; ++u) flow.AddEdge(source, 1 + u, 1.0, 0.0);
  for (int v = 0; v < num_right; ++v) {
    flow.AddEdge(1 + num_left + v, sink, 1.0, 0.0);
  }
  std::vector<int> flow_edges;
  flow_edges.reserve(component.size());
  for (int e : component) {
    flow_edges.push_back(
        flow.AddEdge(1 + (*local_left)[edges[e].left],
                     1 + num_left + (*local_right)[edges[e].right], 1.0,
                     -edges[e].weight));
  }
  flow.Solve(source, sink, /*stop_on_nonnegative_path=*/true);
  for (size_t i = 0; i < component.size(); ++i) {
    if (flow.Flow(flow_edges[i]) > 0.5) (*chosen)[component[i]] = 1;
  }
}

}  // namespace

MatchingResult MaxWeightBipartiteMatching(
    int num_left, int num_right, const std::vector<BipartiteEdge>& edges) {
  FDR_CHECK(num_left >= 0 && num_right >= 0);
  for (const BipartiteEdge& edge : edges) {
    FDR_CHECK_MSG(edge.left >= 0 && edge.left < num_left,
                  "left=" << edge.left);
    FDR_CHECK_MSG(edge.right >= 0 && edge.right < num_right,
                  "right=" << edge.right);
  }

  // 1. Dedup. Every later step walks the edges in (left, right) order, so
  // the result — including the choice among equal-weight optima — does not
  // depend on the input order. Two stable passes (by right, then by left)
  // give that order, with input order within a pair.
  std::vector<int> order(edges.size());
  std::iota(order.begin(), order.end(), 0);
  order = CountingSort(order, num_right,
                       [&](int e) { return edges[e].right; });
  order = CountingSort(order, num_left, [&](int e) { return edges[e].left; });
  auto same_pair = [&](int a, int b) {
    return edges[a].left == edges[b].left && edges[a].right == edges[b].right;
  };
  // The heaviest copy of each pair, the first on ties. A non-positive edge
  // never adds weight to a matching, so it is dropped.
  std::vector<int> kept;
  for (size_t i = 0; i < order.size();) {
    int best = order[i];
    for (++i; i < order.size() && same_pair(order[i], best); ++i) {
      if (edges[order[i]].weight > edges[best].weight) best = order[i];
    }
    if (edges[best].weight > 0) kept.push_back(best);
  }

  // 2. Prune dominated leaves. Of a node's degree-1 neighbours at most one
  // is matched, and the heaviest is free whenever a lighter one is, so
  // swapping it in never loses weight: keep only the heaviest leaf edge
  // per node (the first in (left, right) order on ties).
  std::vector<int> left_degree(num_left, 0);
  std::vector<int> right_degree(num_right, 0);
  for (int e : kept) {
    ++left_degree[edges[e].left];
    ++right_degree[edges[e].right];
  }
  std::vector<int> left_leaf(num_left, -1);
  std::vector<int> right_leaf(num_right, -1);
  auto offer = [&](int* slot, int e) {
    if (*slot < 0 || edges[e].weight > edges[*slot].weight) *slot = e;
  };
  for (int e : kept) {
    const BipartiteEdge& edge = edges[e];
    if (right_degree[edge.right] == 1) offer(&left_leaf[edge.left], e);
    if (left_degree[edge.left] == 1) offer(&right_leaf[edge.right], e);
  }
  std::erase_if(kept, [&](int e) {
    const BipartiteEdge& edge = edges[e];
    return (right_degree[edge.right] == 1 && left_leaf[edge.left] != e) ||
           (left_degree[edge.left] == 1 && right_leaf[edge.right] != e);
  });

  // 3. Solve each connected component on its own. Nodes: left ids, then
  // right ids offset by num_left.
  std::vector<int> parent(static_cast<size_t>(num_left) + num_right);
  std::iota(parent.begin(), parent.end(), 0);
  for (int e : kept) {
    parent[FindRoot(&parent, edges[e].left)] =
        FindRoot(&parent, num_left + edges[e].right);
  }
  // Components in order of their first edge, each keeping (left, right)
  // order.
  std::vector<int> component_of(parent.size(), -1);
  std::vector<std::vector<int>> components;
  for (int e : kept) {
    int& component = component_of[FindRoot(&parent, edges[e].left)];
    if (component < 0) {
      component = static_cast<int>(components.size());
      components.emplace_back();
    }
    components[component].push_back(e);
  }
  std::vector<char> chosen(edges.size(), 0);
  std::vector<int> local_left(num_left, -1);
  std::vector<int> local_right(num_right, -1);
  for (const std::vector<int>& component : components) {
    if (component.size() == 1) {
      // Pruning reduced every star (one left or one right node) to its
      // heaviest edge.
      chosen[component[0]] = 1;
      continue;
    }
    SolveComponent(edges, component, &local_left, &local_right, &chosen);
  }

  MatchingResult result;
  // Summed in (left, right) order, so the total does not depend on the
  // input order either.
  for (int e : kept) {
    if (chosen[e]) result.total_weight += edges[e].weight;
  }
  for (size_t e = 0; e < edges.size(); ++e) {
    if (!chosen[e]) continue;
    result.edges.push_back(static_cast<int>(e));
    result.pairs.emplace_back(edges[e].left, edges[e].right);
  }
  return result;
}

namespace {

void BruteForceSearch(const std::vector<BipartiteEdge>& edges, size_t index,
                      uint64_t used_left, uint64_t used_right, double weight,
                      std::vector<int>* chosen, double* best_weight,
                      std::vector<int>* best_chosen) {
  if (index == edges.size()) {
    if (weight > *best_weight) {
      *best_weight = weight;
      *best_chosen = *chosen;
    }
    return;
  }
  const BipartiteEdge& edge = edges[index];
  // Take the edge if both endpoints are free.
  if (!((used_left >> edge.left) & 1) && !((used_right >> edge.right) & 1)) {
    chosen->push_back(static_cast<int>(index));
    BruteForceSearch(edges, index + 1, used_left | (uint64_t{1} << edge.left),
                     used_right | (uint64_t{1} << edge.right),
                     weight + edge.weight, chosen, best_weight, best_chosen);
    chosen->pop_back();
  }
  // Skip the edge.
  BruteForceSearch(edges, index + 1, used_left, used_right, weight, chosen,
                   best_weight, best_chosen);
}

}  // namespace

StatusOr<MatchingResult> MaxWeightMatchingBruteForce(
    int num_left, int num_right, const std::vector<BipartiteEdge>& edges) {
  if (edges.size() > 20) {
    return Status::ResourceExhausted(
        "brute-force matching limited to 20 edges");
  }
  if (num_left > 64 || num_right > 64) {
    return Status::ResourceExhausted(
        "brute-force matching limited to 64 nodes per side");
  }
  double best_weight = 0;
  std::vector<int> chosen;
  std::vector<int> best_chosen;
  BruteForceSearch(edges, 0, 0, 0, 0.0, &chosen, &best_weight, &best_chosen);
  MatchingResult result;
  result.total_weight = best_weight;
  result.edges = best_chosen;
  for (int index : best_chosen) {
    result.pairs.emplace_back(edges[index].left, edges[index].right);
  }
  return result;
}

}  // namespace fdrepair
