// Maximum-weight bipartite matching — the combinatorial core of
// Subroutine 3 (MarriageRep): nodes are the projections of T onto the two
// married lhs's, edge weights are optimal sub-repair weights, and the best
// matching selects which (a1, a2) blocks survive.
//
// "Maximum weight" here means over all matchings of any cardinality (all
// weights are positive in the paper's use, so larger matchings only help,
// but the solver does not assume positivity).

#ifndef FDREPAIR_GRAPH_BIPARTITE_MATCHING_H_
#define FDREPAIR_GRAPH_BIPARTITE_MATCHING_H_

#include <utility>
#include <vector>

#include "common/status.h"

namespace fdrepair {

/// An edge between left node `left` and right node `right` with weight.
struct BipartiteEdge {
  int left;
  int right;
  double weight;
};

struct MatchingResult {
  /// Chosen edges as indices into the input edges, ascending.
  std::vector<int> edges;
  /// The same edges as (left, right) pairs; no node repeats.
  std::vector<std::pair<int, int>> pairs;
  double total_weight = 0;
};

/// Computes a maximum-weight matching of the bipartite graph with
/// `num_left` / `num_right` nodes and the given edges, in three steps:
///  1. dedup: edges sorted by (left, right); each pair keeps its heaviest
///     copy, and non-positive edges are dropped;
///  2. prune: of a node's degree-1 neighbours only the heaviest can be
///     needed (it is free whenever a lighter one is matched), so the
///     lighter leaf edges go;
///  3. components: union-find splits the rest; a single-edge component
///     (every star, after pruning) takes its edge, any other runs
///     min-cost flow (min_cost_flow.h) on that component only.
/// Ties go to the first edge in (left, right) order, then input order, so
/// the chosen pairs and total_weight do not depend on the input order.
/// Min-cost flow costs O(V · E) per augmentation, but only within a
/// component that survives pruning.
MatchingResult MaxWeightBipartiteMatching(int num_left, int num_right,
                                          const std::vector<BipartiteEdge>& edges);

/// Exhaustive matching for cross-checking in tests; edges.size() <= 20.
StatusOr<MatchingResult> MaxWeightMatchingBruteForce(
    int num_left, int num_right, const std::vector<BipartiteEdge>& edges);

}  // namespace fdrepair

#endif  // FDREPAIR_GRAPH_BIPARTITE_MATCHING_H_
