// Tests for the graph substrate: min-cost flow, max-weight bipartite
// matching (vs brute force), weighted vertex cover (local-ratio guarantee vs
// exact), and the conflict graph.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "catalog/fd_parser.h"
#include "common/random.h"
#include "graph/bipartite_matching.h"
#include "graph/conflict_graph.h"
#include "graph/graph.h"
#include "graph/min_cost_flow.h"
#include "graph/vertex_cover.h"
#include "storage/table.h"
#include "workloads/graph_gen.h"

namespace fdrepair {
namespace {

TEST(GraphTest, EdgesDedupAndAdjacency) {
  NodeWeightedGraph graph(4);
  graph.AddEdge(0, 1);
  graph.AddEdge(1, 0);  // duplicate
  graph.AddEdge(2, 3);
  EXPECT_EQ(graph.num_edges(), 2);
  EXPECT_TRUE(graph.HasEdge(0, 1));
  EXPECT_FALSE(graph.HasEdge(0, 2));
  EXPECT_EQ(graph.Degree(1), 1);
  EXPECT_EQ(graph.MaxDegree(), 1);
  graph.set_weight(2, 5);
  EXPECT_DOUBLE_EQ(graph.WeightOf({2, 3}), 6);
}

TEST(GraphTest, IsVertexCover) {
  NodeWeightedGraph graph(3);
  graph.AddEdge(0, 1);
  graph.AddEdge(1, 2);
  EXPECT_TRUE(IsVertexCover(graph, {1}));
  EXPECT_FALSE(IsVertexCover(graph, {0}));
  EXPECT_TRUE(IsVertexCover(graph, {0, 2}));
}

TEST(MinCostFlowTest, SimplePath) {
  // 0 -> 1 -> 2, capacities 1, costs 1 and 2.
  MinCostFlow flow(3);
  flow.AddEdge(0, 1, 1, 1);
  flow.AddEdge(1, 2, 1, 2);
  auto result = flow.Solve(0, 2);
  EXPECT_DOUBLE_EQ(result.flow, 1);
  EXPECT_DOUBLE_EQ(result.cost, 3);
}

TEST(MinCostFlowTest, PrefersCheaperParallelRoute) {
  MinCostFlow flow(4);
  int cheap = flow.AddEdge(0, 1, 1, 1);
  int expensive = flow.AddEdge(0, 2, 1, 5);
  flow.AddEdge(1, 3, 1, 0);
  flow.AddEdge(2, 3, 1, 0);
  auto result = flow.Solve(0, 3);
  EXPECT_DOUBLE_EQ(result.flow, 2);
  EXPECT_DOUBLE_EQ(result.cost, 6);
  EXPECT_DOUBLE_EQ(flow.Flow(cheap), 1);
  EXPECT_DOUBLE_EQ(flow.Flow(expensive), 1);
}

TEST(MinCostFlowTest, StopsOnNonNegativePath) {
  // With negated weights, only profitable augmentations are taken.
  MinCostFlow flow(4);
  flow.AddEdge(0, 1, 1, 0);
  flow.AddEdge(0, 2, 1, 0);
  int good = flow.AddEdge(1, 3, 1, -5);
  int bad = flow.AddEdge(2, 3, 1, 3);
  auto result = flow.Solve(0, 3, /*stop_on_nonnegative_path=*/true);
  EXPECT_DOUBLE_EQ(result.flow, 1);
  EXPECT_DOUBLE_EQ(result.cost, -5);
  EXPECT_DOUBLE_EQ(flow.Flow(good), 1);
  EXPECT_DOUBLE_EQ(flow.Flow(bad), 0);
}

TEST(MatchingTest, PicksHeavierAlternative) {
  // Two left nodes both prefer right node 0; weights force a swap.
  std::vector<BipartiteEdge> edges{{0, 0, 10}, {1, 0, 9}, {1, 1, 8}};
  MatchingResult result = MaxWeightBipartiteMatching(2, 2, edges);
  EXPECT_DOUBLE_EQ(result.total_weight, 18);
  EXPECT_EQ(result.pairs.size(), 2u);
}

TEST(MatchingTest, MaxWeightNotMaxCardinality) {
  // One heavy edge beats two light ones sharing its endpoints.
  std::vector<BipartiteEdge> edges{{0, 0, 10}, {0, 1, 1}, {1, 0, 1}};
  MatchingResult result = MaxWeightBipartiteMatching(2, 2, edges);
  EXPECT_DOUBLE_EQ(result.total_weight, 10);
  ASSERT_EQ(result.pairs.size(), 1u);
  EXPECT_EQ(result.pairs[0], (std::pair<int, int>(0, 0)));
}

TEST(MatchingTest, DuplicateEdgesKeepHeaviest) {
  std::vector<BipartiteEdge> edges{{0, 0, 1}, {0, 0, 7}};
  MatchingResult result = MaxWeightBipartiteMatching(1, 1, edges);
  EXPECT_DOUBLE_EQ(result.total_weight, 7);
}

TEST(MatchingTest, EmptyInputs) {
  MatchingResult result = MaxWeightBipartiteMatching(0, 0, {});
  EXPECT_TRUE(result.pairs.empty());
  EXPECT_DOUBLE_EQ(result.total_weight, 0);
}

class MatchingPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MatchingPropertyTest, AgreesWithBruteForce) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 30; ++trial) {
    int num_left = 1 + static_cast<int>(rng.UniformUint64(5));
    int num_right = 1 + static_cast<int>(rng.UniformUint64(5));
    int num_edges = static_cast<int>(rng.UniformUint64(13));
    std::vector<BipartiteEdge> edges;
    for (int e = 0; e < num_edges; ++e) {
      edges.push_back(
          BipartiteEdge{static_cast<int>(rng.UniformUint64(num_left)),
                        static_cast<int>(rng.UniformUint64(num_right)),
                        rng.UniformDouble(0.1, 10.0)});
    }
    MatchingResult fast = MaxWeightBipartiteMatching(num_left, num_right,
                                                     edges);
    auto slow = MaxWeightMatchingBruteForce(num_left, num_right, edges);
    ASSERT_TRUE(slow.ok());
    EXPECT_NEAR(fast.total_weight, slow->total_weight, 1e-6)
        << "trial " << trial;
    // Validity: no node reused.
    std::vector<int> left_used(num_left, 0), right_used(num_right, 0);
    for (const auto& [l, r] : fast.pairs) {
      EXPECT_EQ(left_used[l]++, 0);
      EXPECT_EQ(right_used[r]++, 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatchingPropertyTest,
                         ::testing::Values(101, 202, 303, 404, 505));

/// The optimum by one min-cost flow over the whole graph, with duplicate,
/// zero and negative edges left in: an oracle that shares no step of the
/// dedup / prune / component pipeline under test.
double WholeGraphFlowWeight(int num_left, int num_right,
                            const std::vector<BipartiteEdge>& edges) {
  const int source = 0;
  const int sink = num_left + num_right + 1;
  MinCostFlow flow(sink + 1);
  for (int u = 0; u < num_left; ++u) flow.AddEdge(source, 1 + u, 1, 0);
  for (int v = 0; v < num_right; ++v) {
    flow.AddEdge(1 + num_left + v, sink, 1, 0);
  }
  for (const BipartiteEdge& edge : edges) {
    flow.AddEdge(1 + edge.left, 1 + num_left + edge.right, 1, -edge.weight);
  }
  return -flow.Solve(source, sink, /*stop_on_nonnegative_path=*/true).cost;
}

struct RandomBipartite {
  int num_left = 0;
  int num_right = 0;
  std::vector<BipartiteEdge> edges;
};

/// Weights mixing continuous values, small-integer ties, zeros and
/// negatives.
double RandomWeight(Rng* rng) {
  switch (rng->UniformUint64(6)) {
    case 0:
      return 0;
    case 1:
      return -rng->UniformDouble(0.1, 5.0);
    case 2:
    case 3:
      return static_cast<double>(1 + rng->UniformUint64(3));
    default:
      return rng->UniformDouble(0.1, 10.0);
  }
}

/// Marriage-shaped: left nodes in clusters of 1-4, each right node joined
/// to 1-3 left nodes of one cluster (mostly one), so most right nodes are
/// leaves and the graph splits into many components.
RandomBipartite SparseLeafyGraph(Rng* rng) {
  RandomBipartite graph;
  graph.num_left = 100 + static_cast<int>(rng->UniformUint64(200));
  graph.num_right = 4 * graph.num_left;
  const int cluster = 1 + static_cast<int>(rng->UniformUint64(4));
  for (int r = 0; r < graph.num_right; ++r) {
    const int base =
        static_cast<int>(rng->UniformUint64(graph.num_left / cluster)) *
        cluster;
    const int degree = rng->Bernoulli(0.8)
                           ? 1
                           : 2 + static_cast<int>(rng->UniformUint64(2));
    for (int d = 0; d < degree; ++d) {
      graph.edges.push_back(
          {base + static_cast<int>(rng->UniformUint64(cluster)), r,
           RandomWeight(rng)});
    }
  }
  return graph;
}

/// One dense component: a few edges per node, endpoints uniform.
RandomBipartite DenseGraph(Rng* rng) {
  RandomBipartite graph;
  graph.num_left = 50 + static_cast<int>(rng->UniformUint64(100));
  graph.num_right = 50 + static_cast<int>(rng->UniformUint64(100));
  const int num_edges = 6 * (graph.num_left + graph.num_right);
  for (int e = 0; e < num_edges; ++e) {
    graph.edges.push_back(
        {static_cast<int>(rng->UniformUint64(graph.num_left)),
         static_cast<int>(rng->UniformUint64(graph.num_right)),
         RandomWeight(rng)});
  }
  return graph;
}

/// Appends re-weighted and exact copies of a quarter of the edges.
void AddDuplicates(RandomBipartite* graph, Rng* rng) {
  const size_t num_edges = graph->edges.size();
  for (size_t i = 0; i < num_edges / 4; ++i) {
    BipartiteEdge copy = graph->edges[rng->UniformIndex(num_edges)];
    if (rng->Bernoulli(0.5)) copy.weight = RandomWeight(rng);
    graph->edges.push_back(copy);
  }
}

class MatchingDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MatchingDifferentialTest, AgreesWithWholeGraphFlow) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 8; ++trial) {
    RandomBipartite graph =
        trial % 2 == 0 ? SparseLeafyGraph(&rng) : DenseGraph(&rng);
    if (trial % 4 >= 2) AddDuplicates(&graph, &rng);
    SCOPED_TRACE("trial " + std::to_string(trial) + ", " +
                 std::to_string(graph.edges.size()) + " edges");
    const MatchingResult result = MaxWeightBipartiteMatching(
        graph.num_left, graph.num_right, graph.edges);
    EXPECT_NEAR(result.total_weight,
                WholeGraphFlowWeight(graph.num_left, graph.num_right,
                                     graph.edges),
                1e-6);

    // A matching: no node used twice, pairs and indices agree, indices
    // ascend, and the total is the chosen edges' weight.
    ASSERT_EQ(result.pairs.size(), result.edges.size());
    std::vector<int> left_used(graph.num_left, 0);
    std::vector<int> right_used(graph.num_right, 0);
    double weight = 0;
    for (size_t i = 0; i < result.edges.size(); ++i) {
      const BipartiteEdge& edge = graph.edges[result.edges[i]];
      if (i > 0) {
        EXPECT_LT(result.edges[i - 1], result.edges[i]);
      }
      EXPECT_EQ(result.pairs[i], std::make_pair(edge.left, edge.right));
      EXPECT_EQ(left_used[edge.left]++, 0);
      EXPECT_EQ(right_used[edge.right]++, 0);
      weight += edge.weight;
    }
    EXPECT_NEAR(weight, result.total_weight, 1e-6);

    // The input order changes nothing: same pairs, same total bit for bit.
    std::vector<BipartiteEdge> shuffled = graph.edges;
    rng.Shuffle(&shuffled);
    const MatchingResult permuted = MaxWeightBipartiteMatching(
        graph.num_left, graph.num_right, shuffled);
    std::vector<std::pair<int, int>> expected_pairs = result.pairs;
    std::vector<std::pair<int, int>> permuted_pairs = permuted.pairs;
    std::sort(expected_pairs.begin(), expected_pairs.end());
    std::sort(permuted_pairs.begin(), permuted_pairs.end());
    EXPECT_EQ(permuted_pairs, expected_pairs);
    EXPECT_EQ(permuted.total_weight, result.total_weight);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatchingDifferentialTest,
                         ::testing::Values(11, 22, 33, 44));

TEST(VertexCoverTest, LocalRatioOnTriangle) {
  NodeWeightedGraph graph(3);
  graph.AddEdge(0, 1);
  graph.AddEdge(1, 2);
  graph.AddEdge(0, 2);
  std::vector<int> cover = VertexCoverLocalRatio(graph);
  EXPECT_TRUE(IsVertexCover(graph, cover));
  // Optimal is 2; the guarantee allows up to 4, but a triangle yields <= 3.
  EXPECT_LE(graph.WeightOf(cover), 4.0);
}

TEST(VertexCoverTest, ExactOnStar) {
  NodeWeightedGraph graph(5);
  for (int leaf = 1; leaf < 5; ++leaf) graph.AddEdge(0, leaf);
  auto cover = MinWeightVertexCoverExact(graph);
  ASSERT_TRUE(cover.ok());
  EXPECT_EQ(cover->size(), 1u);
  EXPECT_EQ((*cover)[0], 0);
  // With a heavy center, the leaves win.
  graph.set_weight(0, 10);
  cover = MinWeightVertexCoverExact(graph);
  ASSERT_TRUE(cover.ok());
  EXPECT_EQ(cover->size(), 4u);
}

TEST(VertexCoverTest, ExactRefusesHugeGraphs) {
  NodeWeightedGraph graph(100);
  EXPECT_EQ(MinWeightVertexCoverExact(graph, 40).status().code(),
            StatusCode::kResourceExhausted);
}

class VertexCoverPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VertexCoverPropertyTest, LocalRatioWithinTwiceExact) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    int n = 4 + static_cast<int>(rng.UniformUint64(12));
    int m = static_cast<int>(rng.UniformUint64(2 * n));
    NodeWeightedGraph graph = RandomGraph(n, std::min<int>(m, n * (n - 1) / 2),
                                          &rng);
    for (int v = 0; v < n; ++v) {
      graph.set_weight(v, rng.UniformDouble(0.5, 4.0));
    }
    std::vector<int> approx = VertexCoverLocalRatio(graph);
    EXPECT_TRUE(IsVertexCover(graph, approx));
    auto exact = MinWeightVertexCoverExact(graph);
    ASSERT_TRUE(exact.ok());
    EXPECT_LE(graph.WeightOf(approx), 2.0 * graph.WeightOf(*exact) + 1e-9);
    // Minimization never breaks validity and never adds weight.
    std::vector<int> minimized = MinimizeCover(graph, approx);
    EXPECT_TRUE(IsVertexCover(graph, minimized));
    EXPECT_LE(graph.WeightOf(minimized), graph.WeightOf(approx) + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VertexCoverPropertyTest,
                         ::testing::Values(7, 17, 27, 37, 47));

TEST(ConflictGraphTest, EdgesMatchViolations) {
  ParsedFdSet parsed = ParseFdSetInferSchemaOrDie("A -> B");
  Table table(parsed.schema);
  table.AddTuple({"x", "1"}, 2);
  table.AddTuple({"x", "2"}, 1);
  table.AddTuple({"y", "1"}, 1);
  NodeWeightedGraph graph = BuildConflictGraph(TableView(table), parsed.fds);
  EXPECT_EQ(graph.num_nodes(), 3);
  EXPECT_EQ(graph.num_edges(), 1);
  EXPECT_TRUE(graph.HasEdge(0, 1));
  EXPECT_DOUBLE_EQ(graph.weight(0), 2);
}

}  // namespace
}  // namespace fdrepair
