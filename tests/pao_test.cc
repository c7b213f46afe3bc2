#include "core/pao.h"

#include <gtest/gtest.h>

#include "core/expected_cost.h"
#include "core/upsilon.h"
#include "graph/examples.h"
#include "stats/chernoff.h"
#include "workload/random_tree.h"
#include "workload/synthetic_oracle.h"

namespace stratlearn {
namespace {

TEST(PaoQuotasTest, MatchEquationSeven) {
  FigureOneGraph g = MakeFigureOne();
  PaoOptions options;
  options.epsilon = 1.0;
  options.delta = 0.1;
  std::vector<int64_t> quotas = Pao::ComputeQuotas(g.graph, options);
  ASSERT_EQ(quotas.size(), 2u);
  // n = 2, F_not = 2 for both retrievals.
  EXPECT_EQ(quotas[0], PaoRetrievalQuota(2, 2.0, 1.0, 0.1));
  EXPECT_EQ(quotas[0], quotas[1]);
}

TEST(PaoQuotasTest, Theorem3ModeUsesEquationEight) {
  FigureOneGraph g = MakeFigureOne();
  PaoOptions options;
  options.epsilon = 1.0;
  options.delta = 0.1;
  options.mode = PaoOptions::Mode::kTheorem3;
  std::vector<int64_t> quotas = Pao::ComputeQuotas(g.graph, options);
  EXPECT_EQ(quotas[0], PaoReachQuota(2, 2.0, 1.0, 0.1));
}

TEST(PaoTest, RecoversOptimalStrategyOnFigureOne) {
  FigureOneGraph g = MakeFigureOne();
  std::vector<double> probs = {0.2, 0.6};
  IndependentOracle oracle(probs);
  Rng rng(1);
  PaoOptions options;
  options.epsilon = 0.5;
  options.delta = 0.1;
  Result<PaoResult> result = Pao::Run(g.graph, oracle, rng, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->upsilon_exact);
  // Optimal for <0.2, 0.6> is grad first.
  EXPECT_EQ(result->strategy.LeafOrder(g.graph),
            (std::vector<ArcId>{g.d_g, g.d_p}));
  // Estimates close to truth (quota >> 100 samples).
  EXPECT_NEAR(result->estimates[0], 0.2, 0.1);
  EXPECT_NEAR(result->estimates[1], 0.6, 0.1);
  EXPECT_GT(result->contexts_used, 0);
}

TEST(PaoTest, EpsilonOptimalityHoldsEmpirically) {
  // Theorem 2's guarantee, checked over independent runs on a fixed
  // graph: Pr[C(pao) > C(opt) + eps] <= delta.
  FigureOneGraph g = MakeFigureOne();
  std::vector<double> probs = {0.45, 0.55};  // near-tie: hardest case
  const double epsilon = 0.5, delta = 0.2;
  Result<OptimalResult> opt = BruteForceOptimal(g.graph, probs);
  ASSERT_TRUE(opt.ok());

  Rng seed_rng(2);
  int violations = 0;
  const int runs = 30;
  for (int r = 0; r < runs; ++r) {
    IndependentOracle oracle(probs);
    Rng rng = seed_rng.Fork();
    PaoOptions options;
    options.epsilon = epsilon;
    options.delta = delta;
    Result<PaoResult> result = Pao::Run(g.graph, oracle, rng, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    double cost = ExactExpectedCost(g.graph, result->strategy, probs);
    if (cost > opt->cost + epsilon) ++violations;
  }
  EXPECT_LE(static_cast<double>(violations) / runs, delta);
}

TEST(PaoTest, Theorem2StallsOnUnreachableExperiment) {
  // A guarded subtree whose guard never opens: attempt quotas for the
  // inner retrieval can never be met (Section 4.1's motivation).
  InferenceGraph g;
  NodeId root = g.AddRoot("goal");
  auto guard = g.AddChild(root, "sub", ArcKind::kReduction, 1.0, "guard",
                          /*is_experiment=*/true);
  g.AddRetrieval(guard.node, 1.0, "d_inner");
  g.AddRetrieval(root, 1.0, "d_outer");

  // Guard always blocked.
  IndependentOracle oracle({0.0, 0.5, 0.5});
  Rng rng(3);
  PaoOptions options;
  options.epsilon = 1.0;
  options.delta = 0.2;
  options.max_contexts = 3000;
  Result<PaoResult> result = Pao::Run(g, oracle, rng, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(PaoTest, Theorem3HandlesUnreachableExperiment) {
  // Same graph, Theorem 3 mode: blocked aims count, so sampling
  // completes and the unreached retrieval falls back to 0.5.
  InferenceGraph g;
  NodeId root = g.AddRoot("goal");
  auto guard = g.AddChild(root, "sub", ArcKind::kReduction, 1.0, "guard",
                          /*is_experiment=*/true);
  ArcId inner = g.AddRetrieval(guard.node, 1.0, "d_inner").arc;
  g.AddRetrieval(root, 1.0, "d_outer");
  int inner_exp = g.ExperimentIndex(inner);

  IndependentOracle oracle({0.0, 0.5, 0.5});
  Rng rng(4);
  PaoOptions options;
  options.epsilon = 1.5;
  options.delta = 0.2;
  options.mode = PaoOptions::Mode::kTheorem3;
  Result<PaoResult> result = Pao::Run(g, oracle, rng, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->estimates[inner_exp], 0.5);
}

TEST(PaoTest, RejectsBadParameters) {
  FigureOneGraph g = MakeFigureOne();
  IndependentOracle oracle({0.5, 0.5});
  Rng rng(5);
  PaoOptions options;
  options.epsilon = 0.0;
  EXPECT_FALSE(Pao::Run(g.graph, oracle, rng, options).ok());
  options.epsilon = 1.0;
  options.delta = 1.5;
  EXPECT_FALSE(Pao::Run(g.graph, oracle, rng, options).ok());
}

TEST(PaoTest, OracleGraphMismatchRejected) {
  FigureOneGraph g = MakeFigureOne();
  IndependentOracle oracle({0.5, 0.5, 0.5});
  Rng rng(6);
  EXPECT_FALSE(Pao::Run(g.graph, oracle, rng, PaoOptions()).ok());
}

TEST(PaoTest, TighterEpsilonUsesMoreSamples) {
  FigureOneGraph g = MakeFigureOne();
  PaoOptions loose;
  loose.epsilon = 1.0;
  PaoOptions tight;
  tight.epsilon = 0.25;
  std::vector<int64_t> ql = Pao::ComputeQuotas(g.graph, loose);
  std::vector<int64_t> qt = Pao::ComputeQuotas(g.graph, tight);
  EXPECT_GT(qt[0], ql[0]);
  // Quadratic scaling: (1/0.25)^2 / (1/1)^2 = 16x.
  EXPECT_NEAR(static_cast<double>(qt[0]) / ql[0], 16.0, 0.5);
}

TEST(PaoTest, WorksOnRandomTrees) {
  Rng rng(7);
  for (int trial = 0; trial < 3; ++trial) {
    RandomTree tree = MakeRandomTree(rng);
    IndependentOracle oracle(tree.probs);
    PaoOptions options;
    options.epsilon = 0.25 * tree.graph.TotalCost();
    options.delta = 0.2;
    options.max_contexts = 5'000'000;
    Result<PaoResult> result = Pao::Run(tree.graph, oracle, rng, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    Result<UpsilonResult> opt = UpsilonAot(tree.graph, tree.probs);
    ASSERT_TRUE(opt.ok());
    double cost = ExactExpectedCost(tree.graph, result->strategy, tree.probs);
    EXPECT_LE(cost, opt->expected_cost + options.epsilon + 1e-9);
  }
}

TEST(PaoTest, GuardedTreeEndsInTheExhaustiveOptimum) {
  // A guard above a branching subtree takes Upsilon's exact subset-DP
  // path; PAO must hand back exactly what exhaustive search returns for
  // its own estimates.
  Rng shape(2);
  RandomTreeOptions tree_options;
  tree_options.depth = 3;
  tree_options.internal_experiment_prob = 0.3;
  RandomTree tree = MakeRandomTree(shape, tree_options);
  ASSERT_FALSE(IsBlockMergeExact(tree.graph));
  ASSERT_LE(tree.graph.SuccessArcs().size(), 8u);

  IndependentOracle oracle(tree.probs);
  Rng rng(8);
  PaoOptions options;
  options.epsilon = 0.25 * tree.graph.TotalCost();
  options.delta = 0.2;
  options.mode = PaoOptions::Mode::kTheorem3;
  Result<PaoResult> result = Pao::Run(tree.graph, oracle, rng, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->upsilon_exact);
  Result<OptimalResult> brute =
      BruteForceOptimal(tree.graph, result->estimates, 8);
  ASSERT_TRUE(brute.ok());
  EXPECT_EQ(result->strategy.arcs(), brute->strategy.arcs());
}

}  // namespace
}  // namespace stratlearn
