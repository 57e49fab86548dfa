// Min-cost flow via successive shortest augmenting paths (Bellman-Ford /
// SPFA on the residual network). This is the engine behind the maximum
// weight bipartite matching that Subroutine 3 (MarriageRep) requires;
// bipartite_matching.cc builds one network per connected component of the
// pruned block graph, not one over the whole graph.
//
// Costs are doubles (tuple weights are real-valued); an epsilon guards the
// "is this path still profitable" test when augmentation may stop early.

#ifndef FDREPAIR_GRAPH_MIN_COST_FLOW_H_
#define FDREPAIR_GRAPH_MIN_COST_FLOW_H_

#include <vector>

#include "common/status.h"

namespace fdrepair {

/// A directed flow network with per-edge capacity and cost.
class MinCostFlow {
 public:
  /// A network with `num_nodes` nodes and no edges.
  explicit MinCostFlow(int num_nodes);

  /// Adds a directed edge; returns its index for later Flow() queries.
  /// Capacity must be non-negative; cost may be negative (max-weight
  /// matching negates weights).
  int AddEdge(int from, int to, double capacity, double cost);

  struct Result {
    double flow = 0;
    double cost = 0;
  };

  /// Repeatedly augments along a minimum-cost path from `source` to `sink`.
  /// With `stop_on_nonnegative_path` set, stops as soon as the cheapest
  /// augmenting path has cost >= -epsilon — exactly the stopping rule that
  /// turns min-cost flow into *maximum-weight* (not maximum-cardinality)
  /// matching.
  Result Solve(int source, int sink, bool stop_on_nonnegative_path = false);

  /// Flow routed through edge `edge_index` (as returned by AddEdge).
  double Flow(int edge_index) const;

 private:
  struct Edge {
    int to;
    double capacity;  // residual capacity
    double cost;
    int twin;  // index of the reverse edge
  };

  // Shortest path by cost from `source`; fills dist/parent_edge. Returns
  // true iff sink reachable.
  bool ShortestPath(int source, int sink, std::vector<double>* dist,
                    std::vector<int>* parent_edge) const;

  int num_nodes_;
  std::vector<Edge> edges_;                // interleaved edge/twin pairs
  std::vector<std::vector<int>> adjacency_;  // node -> edge indices
  std::vector<int> public_edges_;          // AddEdge order -> edges_ index
};

}  // namespace fdrepair

#endif  // FDREPAIR_GRAPH_MIN_COST_FLOW_H_
