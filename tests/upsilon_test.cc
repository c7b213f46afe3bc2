#include "core/upsilon.h"

#include <gtest/gtest.h>

#include <cstring>

#include "core/expected_cost.h"
#include "graph/examples.h"
#include "util/math_util.h"
#include "workload/random_tree.h"

namespace stratlearn {
namespace {

TEST(UpsilonTest, FigureOneSectionFourExample) {
  // Section 4: with p^ = <18/30, 10/20>, Upsilon returns Theta_1 (prof
  // first); with the true Section 2 workload probabilities <0.6, 0.15>,
  // wait — 18/30 = 0.6 and 10/20 = 0.5: equal-cost subtrees order by
  // probability, so prof (0.6) precedes grad (0.5): Theta_1.
  FigureOneGraph g = MakeFigureOne();
  Result<UpsilonResult> r = UpsilonAot(g.graph, {18.0 / 30.0, 10.0 / 20.0});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->exact);
  EXPECT_EQ(r->strategy.LeafOrder(g.graph),
            (std::vector<ArcId>{g.d_p, g.d_g}));

  // Section 2's true distribution <p_p, p_g> = <0.2, 0.6> (the PAO
  // illustration) prefers Theta_2 (grad first).
  Result<UpsilonResult> r2 = UpsilonAot(g.graph, {0.2, 0.6});
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->strategy.LeafOrder(g.graph),
            (std::vector<ArcId>{g.d_g, g.d_p}));
  EXPECT_NEAR(r2->expected_cost,
              ExactExpectedCost(g.graph, r2->strategy, {0.2, 0.6}), 1e-12);
}

TEST(UpsilonTest, FlatGraphSortsByRatio) {
  // Flat trees order leaves by p/c descending (classic Simon-Kadane).
  InferenceGraph g;
  NodeId root = g.AddRoot("goal");
  ArcId a = g.AddRetrieval(root, 4.0, "a").arc;  // ratio 0.5/4 = 0.125
  ArcId b = g.AddRetrieval(root, 1.0, "b").arc;  // ratio 0.2/1 = 0.2
  ArcId c = g.AddRetrieval(root, 2.0, "c").arc;  // ratio 0.9/2 = 0.45
  Result<UpsilonResult> r = UpsilonAot(g, {0.5, 0.2, 0.9});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->strategy.LeafOrder(g), (std::vector<ArcId>{c, b, a}));
}

TEST(UpsilonTest, SharedPrefixChangesOrdering) {
  // Two leaves under a costly shared prefix can beat a mediocre flat leaf
  // jointly even when neither beats it alone after paying the prefix.
  FigureTwoGraph g = MakeFigureTwo();
  // Make D_c and D_d strong, D_a and D_b weak.
  Result<UpsilonResult> r = UpsilonAot(g.graph, {0.05, 0.05, 0.7, 0.7});
  ASSERT_TRUE(r.ok());
  std::vector<ArcId> order = r->strategy.LeafOrder(g.graph);
  // The T subtree (c, d) should be visited before a and b.
  EXPECT_TRUE((order[0] == g.d_c || order[0] == g.d_d));
  EXPECT_TRUE((order[1] == g.d_c || order[1] == g.d_d));
}

TEST(UpsilonTest, RejectsBadInput) {
  FigureOneGraph g = MakeFigureOne();
  EXPECT_FALSE(UpsilonAot(g.graph, {0.5}).ok());            // wrong size
  EXPECT_FALSE(UpsilonAot(g.graph, {0.5, 1.5}).ok());       // out of range
}

// The central property: block merging equals brute force on random
// leaf-only AOT trees.
class UpsilonOptimalityProperty : public ::testing::TestWithParam<int> {};

TEST_P(UpsilonOptimalityProperty, MatchesBruteForce) {
  Rng rng(5000 + GetParam());
  RandomTreeOptions options;
  options.depth = 2 + GetParam() % 3;
  options.min_branch = 2;
  options.max_branch = 3;
  RandomTree tree = MakeRandomTree(rng, options);
  if (tree.graph.SuccessArcs().size() > 7) GTEST_SKIP() << "too large";

  Result<UpsilonResult> upsilon = UpsilonAot(tree.graph, tree.probs);
  ASSERT_TRUE(upsilon.ok()) << upsilon.status().ToString();
  EXPECT_TRUE(upsilon->exact);
  Result<OptimalResult> brute = BruteForceOptimal(tree.graph, tree.probs, 7);
  ASSERT_TRUE(brute.ok());
  EXPECT_TRUE(AlmostEqual(upsilon->expected_cost, brute->cost, 1e-7))
      << "upsilon=" << upsilon->expected_cost << " brute=" << brute->cost
      << " arcs=" << tree.graph.num_arcs();
}

INSTANTIATE_TEST_SUITE_P(RandomTrees, UpsilonOptimalityProperty,
                         ::testing::Range(0, 60));

// Chains (retrieval runs) are still in the provably-exact class.
class UpsilonChainProperty : public ::testing::TestWithParam<int> {};

TEST_P(UpsilonChainProperty, ChainGraphsMatchBruteForce) {
  Rng rng(6000 + GetParam());
  // Hand-build a graph with chain leaves: root has 3-4 children, each a
  // chain of 1-3 experiments ending in a success node.
  InferenceGraph g;
  std::vector<double> probs;
  NodeId root = g.AddRoot("goal");
  int children = 3 + GetParam() % 2;
  for (int c = 0; c < children; ++c) {
    NodeId at = root;
    int chain = 1 + static_cast<int>(rng.NextBounded(3));
    for (int i = 0; i < chain; ++i) {
      bool last = (i == chain - 1);
      auto added =
          g.AddChild(at, last ? "[leaf]" : "mid", ArcKind::kRetrieval,
                     rng.NextUniform(0.5, 2.0), "e",
                     /*is_experiment=*/true, /*is_success=*/last);
      probs.push_back(rng.NextUniform(0.1, 0.9));
      at = added.node;
    }
  }
  ASSERT_TRUE(IsBlockMergeExact(g));

  UpsilonOptions options;
  options.max_brute_force_leaves = 0;  // force block merging
  Result<UpsilonResult> upsilon = UpsilonAot(g, probs, options);
  ASSERT_TRUE(upsilon.ok()) << upsilon.status().ToString();
  EXPECT_TRUE(upsilon->exact);
  Result<OptimalResult> brute = BruteForceOptimal(g, probs, 7);
  ASSERT_TRUE(brute.ok());
  EXPECT_TRUE(AlmostEqual(upsilon->expected_cost, brute->cost, 1e-7))
      << "upsilon=" << upsilon->expected_cost << " brute=" << brute->cost;
}

INSTANTIATE_TEST_SUITE_P(RandomChains, UpsilonChainProperty,
                         ::testing::Range(0, 40));

TEST(UpsilonTest, GuardedBranchFallsBackToBruteForce) {
  // Experiment above a branching subtree: outside the block-merge class;
  // with few leaves Upsilon's subset DP returns exactly what exhaustive
  // search does.
  InferenceGraph g;
  NodeId root = g.AddRoot("goal");
  auto guard = g.AddChild(root, "s", ArcKind::kReduction, 1.0, "guard",
                          /*is_experiment=*/true);
  g.AddRetrieval(guard.node, 1.0, "d1");
  g.AddRetrieval(guard.node, 1.0, "d2");
  g.AddRetrieval(root, 2.0, "d3");
  EXPECT_FALSE(IsBlockMergeExact(g));

  std::vector<double> probs = {0.5, 0.6, 0.7, 0.4};
  Result<UpsilonResult> r = UpsilonAot(g, probs);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->exact);
  Result<OptimalResult> brute = BruteForceOptimal(g, probs, 8);
  ASSERT_TRUE(brute.ok());
  EXPECT_EQ(r->strategy.arcs(), brute->strategy.arcs());
  EXPECT_EQ(std::memcmp(&r->expected_cost, &brute->cost, sizeof(double)), 0)
      << r->expected_cost << " vs " << brute->cost;
}

TEST(UpsilonTest, ApproximationFlaggedWhenForced) {
  InferenceGraph g;
  NodeId root = g.AddRoot("goal");
  auto guard = g.AddChild(root, "s", ArcKind::kReduction, 1.0, "guard",
                          /*is_experiment=*/true);
  g.AddRetrieval(guard.node, 1.0, "d1");
  g.AddRetrieval(guard.node, 1.0, "d2");
  g.AddRetrieval(root, 2.0, "d3");
  std::vector<double> probs = {0.5, 0.6, 0.7, 0.4};

  UpsilonOptions options;
  options.max_brute_force_leaves = 0;  // disable brute force
  Result<UpsilonResult> approx = UpsilonAot(g, probs, options);
  ASSERT_TRUE(approx.ok());
  EXPECT_FALSE(approx->exact);
  // The approximation should still be close to the optimum here.
  Result<OptimalResult> brute = BruteForceOptimal(g, probs, 8);
  ASSERT_TRUE(brute.ok());
  EXPECT_LE(approx->expected_cost, brute->cost * 1.25);

  options.allow_approximation = false;
  Result<UpsilonResult> rejected = UpsilonAot(g, probs, options);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnimplemented);
}

TEST(UpsilonTest, LargeFlatGraphIsFast) {
  Rng rng(7);
  RandomTree tree = MakeFlatTree(rng, 5000);
  Result<UpsilonResult> r = UpsilonAot(tree.graph, tree.probs);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->exact);
  // Ratios must be non-increasing along the chosen order.
  std::vector<ArcId> order = r->strategy.LeafOrder(tree.graph);
  double prev = 1e300;
  for (ArcId leaf : order) {
    int e = tree.graph.ExperimentIndex(leaf);
    double ratio = tree.probs[e] / tree.graph.arc(leaf).cost;
    EXPECT_LE(ratio, prev + 1e-9);
    prev = ratio;
  }
}

TEST(UpsilonTest, DeadEndsOrderedLast) {
  InferenceGraph g;
  NodeId root = g.AddRoot("goal");
  g.AddChild(root, "dead", ArcKind::kReduction, 1.0, "r_dead");
  ArcId leaf = g.AddRetrieval(root, 1.0, "d").arc;
  Result<UpsilonResult> r = UpsilonAot(g, {0.5});
  ASSERT_TRUE(r.ok());
  // The dead-end arc must come after the productive leaf.
  EXPECT_EQ(r->strategy.arcs().back(), g.node(root).out_arcs[0]);
  EXPECT_EQ(r->strategy.arcs().front(), leaf);
}

}  // namespace
}  // namespace stratlearn
