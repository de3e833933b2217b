#include "flow/min_cost_flow.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "common/rng.h"

namespace gepc {
namespace {

constexpr double kNoAssignment = std::numeric_limits<double>::infinity();

/// Exact oracle: the cheapest way to give every row its own allowed column,
/// by enumerating every column permutation (rows <= cols <= 6).
/// kNoAssignment when no complete assignment exists.
double BruteForceAssignment(int rows, int cols,
                            const std::vector<double>& cost,
                            const std::vector<bool>& allowed) {
  std::vector<int> perm(static_cast<size_t>(cols));
  std::iota(perm.begin(), perm.end(), 0);
  double best = kNoAssignment;
  do {
    double total = 0.0;
    for (int r = 0; r < rows && total < kNoAssignment; ++r) {
      const size_t cell = static_cast<size_t>(r * cols + perm[r]);
      total = allowed[cell] ? total + cost[cell] : kNoAssignment;
    }
    best = std::min(best, total);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

TEST(MinCostFlowTest, SingleEdge) {
  MinCostFlow flow(2);
  const int e = flow.AddEdge(0, 1, 5, 2.0);
  auto result = flow.Solve(0, 1);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->flow, 5);
  EXPECT_DOUBLE_EQ(result->cost, 10.0);
  EXPECT_EQ(flow.FlowOn(e), 5);
}

TEST(MinCostFlowTest, PrefersCheaperParallelPath) {
  MinCostFlow flow(4);
  // Two disjoint paths 0->1->3 (cost 1+1) and 0->2->3 (cost 5+5), cap 1 each.
  const int cheap_a = flow.AddEdge(0, 1, 1, 1.0);
  flow.AddEdge(1, 3, 1, 1.0);
  const int pricey_a = flow.AddEdge(0, 2, 1, 5.0);
  flow.AddEdge(2, 3, 1, 5.0);
  auto result = flow.Solve(0, 3);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->flow, 2);
  EXPECT_DOUBLE_EQ(result->cost, 12.0);
  EXPECT_EQ(flow.FlowOn(cheap_a), 1);
  EXPECT_EQ(flow.FlowOn(pricey_a), 1);
}

TEST(MinCostFlowTest, RespectsBottleneck) {
  MinCostFlow flow(3);
  flow.AddEdge(0, 1, 10, 0.0);
  flow.AddEdge(1, 2, 3, 0.0);
  auto result = flow.Solve(0, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->flow, 3);
}

TEST(MinCostFlowTest, DisconnectedGraphHasZeroFlow) {
  MinCostFlow flow(4);
  flow.AddEdge(0, 1, 5, 1.0);
  flow.AddEdge(2, 3, 5, 1.0);
  auto result = flow.Solve(0, 3);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->flow, 0);
  EXPECT_DOUBLE_EQ(result->cost, 0.0);
}

TEST(MinCostFlowTest, HandlesNegativeEdgeCosts) {
  MinCostFlow flow(3);
  const int neg = flow.AddEdge(0, 1, 2, -3.0);
  flow.AddEdge(1, 2, 2, 1.0);
  auto result = flow.Solve(0, 2);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->flow, 2);
  EXPECT_DOUBLE_EQ(result->cost, -4.0);
  EXPECT_EQ(flow.FlowOn(neg), 2);
}

TEST(MinCostFlowTest, ChoosesMinCostAmongMaxFlows) {
  // Both paths reach flow 1, but 0->1->3 costs 2 and 0->2->3 costs 10;
  // max-flow is 1 either way so the cheap one must carry it.
  MinCostFlow flow(4);
  const int cheap = flow.AddEdge(0, 1, 1, 1.0);
  flow.AddEdge(1, 3, 1, 1.0);
  const int pricey = flow.AddEdge(0, 2, 1, 5.0);
  flow.AddEdge(2, 3, 1, 5.0);
  flow.AddEdge(3, 3, 0, 0.0);  // harmless self-loop with zero capacity
  MinCostFlow bounded(4);
  const int b_cheap = bounded.AddEdge(0, 1, 1, 1.0);
  bounded.AddEdge(1, 3, 1, 1.0);
  bounded.AddEdge(0, 2, 1, 5.0);
  bounded.AddEdge(2, 3, 1, 5.0);
  // Restrict the sink so only one unit fits.
  MinCostFlow tight(5);
  const int t_cheap = tight.AddEdge(0, 1, 1, 1.0);
  tight.AddEdge(1, 3, 1, 1.0);
  const int t_pricey = tight.AddEdge(0, 2, 1, 5.0);
  tight.AddEdge(2, 3, 1, 5.0);
  tight.AddEdge(3, 4, 1, 0.0);
  auto result = tight.Solve(0, 4);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->flow, 1);
  EXPECT_DOUBLE_EQ(result->cost, 2.0);
  EXPECT_EQ(tight.FlowOn(t_cheap), 1);
  EXPECT_EQ(tight.FlowOn(t_pricey), 0);
  (void)cheap;
  (void)pricey;
  (void)b_cheap;
}

TEST(MinCostFlowTest, BadEndpointsRejected) {
  MinCostFlow flow(2);
  flow.AddEdge(0, 1, 1, 0.0);
  EXPECT_EQ(flow.Solve(0, 0).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(flow.Solve(-1, 1).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(flow.Solve(0, 9).status().code(), StatusCode::kInvalidArgument);
}

TEST(MinCostFlowTest, AssignmentProblemSolvedExactly) {
  // 3x3 assignment, costs: worker w to task t. Known optimum = 5 (1+3+1).
  const double costs[3][3] = {{4, 1, 3}, {2, 0, 5}, {3, 2, 1}};
  // Optimum: w0->t1 (1), w1->t0 (2), w2->t2 (1) -> total 4.
  MinCostFlow flow(8);  // 0 source, 1-3 workers, 4-6 tasks, 7 sink
  for (int w = 0; w < 3; ++w) flow.AddEdge(0, 1 + w, 1, 0.0);
  std::vector<int> ids;
  for (int w = 0; w < 3; ++w) {
    for (int t = 0; t < 3; ++t) {
      ids.push_back(flow.AddEdge(1 + w, 4 + t, 1, costs[w][t]));
    }
  }
  for (int t = 0; t < 3; ++t) flow.AddEdge(4 + t, 7, 1, 0.0);
  auto result = flow.Solve(0, 7);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->flow, 3);
  EXPECT_DOUBLE_EQ(result->cost, 4.0);
}

TEST(MinCostFlowTest, FlowConservationAtInternalNodes) {
  MinCostFlow flow(5);
  std::vector<int> ids;
  ids.push_back(flow.AddEdge(0, 1, 4, 1.0));
  ids.push_back(flow.AddEdge(0, 2, 4, 2.0));
  ids.push_back(flow.AddEdge(1, 3, 3, 1.0));
  ids.push_back(flow.AddEdge(2, 3, 3, 1.0));
  ids.push_back(flow.AddEdge(1, 2, 2, 0.0));
  ids.push_back(flow.AddEdge(3, 4, 5, 0.0));
  auto result = flow.Solve(0, 4);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->flow, 5);
  // Node 1: in = edge0, out = edge2 + edge4.
  EXPECT_EQ(flow.FlowOn(ids[0]), flow.FlowOn(ids[2]) + flow.FlowOn(ids[4]));
  // Node 3: in = edge2 + edge3, out = edge5.
  EXPECT_EQ(flow.FlowOn(ids[2]) + flow.FlowOn(ids[3]), flow.FlowOn(ids[5]));
}

TEST(MinCostFlowTest, ZeroCapacityEdgeCarriesNothing) {
  MinCostFlow flow(2);
  const int e = flow.AddEdge(0, 1, 0, -100.0);
  auto result = flow.Solve(0, 1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->flow, 0);
  EXPECT_EQ(flow.FlowOn(e), 0);
}

TEST(MinCostFlowTest, AssignmentMatchesPermutationEnumeration) {
  Rng rng(2027);
  for (int trial = 0; trial < 60; ++trial) {
    const int rows = 1 + static_cast<int>(rng.UniformUint64(6));
    const int cols = rows + static_cast<int>(rng.UniformUint64(7 - rows));
    // Every third trial forbids about a third of the pairs, so some
    // matrices admit no complete assignment at all.
    const double forbid_p = trial % 3 == 0 ? 0.35 : 0.0;
    const size_t cells = static_cast<size_t>(rows * cols);
    std::vector<double> cost(cells);
    std::vector<bool> allowed(cells);
    for (size_t cell = 0; cell < cells; ++cell) {
      cost[cell] = rng.UniformDouble(-5.0, 10.0);
      allowed[cell] = !rng.Bernoulli(forbid_p);
    }
    const double expected = BruteForceAssignment(rows, cols, cost, allowed);

    // source 0, rows 1..rows, columns rows+1..rows+cols, sink rows+cols+1.
    MinCostFlow flow(rows + cols + 2);
    const int source = 0;
    const int sink = rows + cols + 1;
    for (int r = 0; r < rows; ++r) flow.AddEdge(source, 1 + r, 1, 0.0);
    std::vector<int> edge_of(cells, -1);
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < cols; ++c) {
        const size_t cell = static_cast<size_t>(r * cols + c);
        if (allowed[cell]) {
          edge_of[cell] = flow.AddEdge(1 + r, 1 + rows + c, 1, cost[cell]);
        }
      }
    }
    for (int c = 0; c < cols; ++c) flow.AddEdge(1 + rows + c, sink, 1, 0.0);
    auto result = flow.Solve(source, sink);
    ASSERT_TRUE(result.ok()) << "trial " << trial;
    if (expected == kNoAssignment) {
      EXPECT_LT(result->flow, rows) << "trial " << trial;
      continue;
    }
    ASSERT_EQ(result->flow, rows) << "trial " << trial;
    EXPECT_NEAR(result->cost, expected, 1e-9) << "trial " << trial;

    // The flow is a partial permutation whose edge costs sum to its cost.
    std::vector<int> row_uses(static_cast<size_t>(rows), 0);
    std::vector<int> col_uses(static_cast<size_t>(cols), 0);
    double used_cost = 0.0;
    for (size_t cell = 0; cell < cells; ++cell) {
      if (edge_of[cell] < 0 || flow.FlowOn(edge_of[cell]) == 0) continue;
      ++row_uses[cell / static_cast<size_t>(cols)];
      ++col_uses[cell % static_cast<size_t>(cols)];
      used_cost += cost[cell];
    }
    for (int uses : row_uses) EXPECT_EQ(uses, 1) << "trial " << trial;
    for (int uses : col_uses) EXPECT_LE(uses, 1) << "trial " << trial;
    EXPECT_NEAR(used_cost, result->cost, 1e-9) << "trial " << trial;
  }
}

}  // namespace
}  // namespace gepc
