#include "core/delta_estimator.h"

#include <gtest/gtest.h>

#include "core/transformations.h"
#include "graph/examples.h"
#include "workload/random_tree.h"

namespace stratlearn {
namespace {

TEST(DeltaEstimatorTest, ExactDeltaOnPaperContexts) {
  FigureOneGraph g = MakeFigureOne();
  DeltaEstimator estimator(&g.graph);
  Strategy theta1 = Strategy::FromLeafOrder(g.graph, {g.d_p, g.d_g});
  Strategy theta2 = Strategy::FromLeafOrder(g.graph, {g.d_g, g.d_p});
  // I_1 (manolis): c(T1) = 4, c(T2) = 2 -> Delta = 2.
  Context i1(2);
  i1.Set(1, true);
  EXPECT_DOUBLE_EQ(estimator.ExactDelta(theta1, theta2, i1), 2.0);
  // I_2 (russ): Delta = 2 - 4 = -2.
  Context i2(2);
  i2.Set(0, true);
  EXPECT_DOUBLE_EQ(estimator.ExactDelta(theta1, theta2, i2), -2.0);
}

TEST(DeltaEstimatorTest, PaperUnderEstimateCases) {
  // Section 3.1's three cases for Theta_1 vs Theta_2 on G_A:
  //  * solution under R_g only: Delta~ = f*(R_p) = 2 (and is exact);
  //  * no solution anywhere: Delta~ = 0;
  //  * solution under R_p: Delta~ = -f*(R_g) = -2 (the pessimistic
  //    value; the true Delta is -2 or +... >= -2).
  FigureOneGraph g = MakeFigureOne();
  DeltaEstimator estimator(&g.graph);
  QueryProcessor qp(&g.graph);
  Strategy theta1 = Strategy::FromLeafOrder(g.graph, {g.d_p, g.d_g});
  Strategy theta2 = Strategy::FromLeafOrder(g.graph, {g.d_g, g.d_p});

  Context grad_only(2);
  grad_only.Set(1, true);
  EXPECT_DOUBLE_EQ(
      estimator.UnderEstimate(qp.Execute(theta1, grad_only), theta2), 2.0);

  Context none(2);
  EXPECT_DOUBLE_EQ(estimator.UnderEstimate(qp.Execute(theta1, none), theta2),
                   0.0);

  Context prof_only(2);
  prof_only.Set(0, true);
  EXPECT_DOUBLE_EQ(
      estimator.UnderEstimate(qp.Execute(theta1, prof_only), theta2), -2.0);
  // With both facts present the trace is identical (D_g unobserved), so
  // the pessimistic estimate is the same -2 although true Delta = 0.
  Context both = Context::AllUnblocked(2);
  EXPECT_DOUBLE_EQ(
      estimator.UnderEstimate(qp.Execute(theta1, both), theta2), -2.0);
  EXPECT_DOUBLE_EQ(estimator.ExactDelta(theta1, theta2, both), 0.0);
}

TEST(DeltaEstimatorTest, FigureTwoSectionThreeTwoCase) {
  // Section 3.2: running Theta_ABCD in context I_c (first solution at
  // D_c, D_d unobserved), the under-estimate for Theta_ABDC is
  // -f*(R_td) = -2.
  FigureTwoGraph g = MakeFigureTwo();
  DeltaEstimator estimator(&g.graph);
  QueryProcessor qp(&g.graph);
  Strategy theta_abcd = Strategy::DepthFirst(g.graph);
  SiblingSwap tau_dc{g.graph.arc(g.r_tc).from, g.r_tc, g.r_td};
  Strategy theta_abdc = ApplySwap(g.graph, theta_abcd, tau_dc);

  Context i_c(4);
  i_c.Set(g.graph.ExperimentIndex(g.d_c), true);
  Trace trace = qp.Execute(theta_abcd, i_c);
  EXPECT_DOUBLE_EQ(estimator.UnderEstimate(trace, theta_abdc), -2.0);

  // And the paper's two exact values depending on D_d:
  Context with_d = i_c;
  with_d.Set(g.graph.ExperimentIndex(g.d_d), true);
  // Delta = f*(R_tc) - f*(R_td) = 0 when D_d is not blocked.
  EXPECT_DOUBLE_EQ(estimator.ExactDelta(theta_abcd, theta_abdc, with_d), 0.0);
  // Delta = -f*(R_td) = -2 when D_d is blocked.
  EXPECT_DOUBLE_EQ(estimator.ExactDelta(theta_abcd, theta_abdc, i_c), -2.0);
}

// The soundness property behind Theorem 1: for every context and every
// sibling-swap neighbour, UnderEstimate <= ExactDelta <= OverEstimate.
class DeltaSoundnessProperty : public ::testing::TestWithParam<int> {};

TEST_P(DeltaSoundnessProperty, UnderAndOverBoundsHoldExhaustively) {
  Rng rng(3000 + GetParam());
  RandomTreeOptions options;
  options.depth = 2 + GetParam() % 2;
  options.internal_experiment_prob = (GetParam() % 3 == 0) ? 0.4 : 0.0;
  RandomTree tree = MakeRandomTree(rng, options);
  size_t n = tree.graph.num_experiments();
  if (n > 10) GTEST_SKIP() << "too large to enumerate";

  DeltaEstimator estimator(&tree.graph);
  QueryProcessor qp(&tree.graph);
  std::vector<ArcId> leaves = tree.graph.SuccessArcs();
  rng.Shuffle(leaves);
  Strategy theta = Strategy::FromLeafOrder(tree.graph, leaves);

  // The learners' path: one prepared walk per trace, each neighbour
  // resumed from its divergence position.
  DeltaEstimator::Workspace workspace;
  for (const SiblingSwap& swap : AllSiblingSwaps(tree.graph)) {
    Strategy alt = ApplySwap(tree.graph, theta, swap);
    size_t diverge = DivergencePosition(theta, alt);
    for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
      Context ctx = Context::FromMask(n, mask);
      Trace trace = qp.Execute(theta, ctx);
      double exact = estimator.ExactDelta(theta, alt, ctx);
      estimator.Prepare(trace, theta, &workspace);
      double under = estimator.UnderEstimate(alt, diverge, &workspace);
      double over = estimator.OverEstimate(alt, &workspace);
      EXPECT_LE(under, exact + 1e-9)
          << "mask=" << mask << " swap=" << swap.ToString(tree.graph);
      EXPECT_GE(over, exact - 1e-9)
          << "mask=" << mask << " swap=" << swap.ToString(tree.graph);
      EXPECT_EQ(under, estimator.UnderEstimate(trace, alt));
      EXPECT_EQ(over, estimator.OverEstimate(trace, alt));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTrees, DeltaSoundnessProperty,
                         ::testing::Range(0, 30));

TEST(DeltaEstimatorTest, UnderEstimateIsExactWhenEverythingObserved) {
  // When the trace observed every experiment (no solution anywhere), the
  // pessimistic completion is the true context.
  FigureTwoGraph g = MakeFigureTwo();
  DeltaEstimator estimator(&g.graph);
  QueryProcessor qp(&g.graph);
  Strategy theta = Strategy::DepthFirst(g.graph);
  Context none(4);
  Trace trace = qp.Execute(theta, none);
  for (const SiblingSwap& swap : AllSiblingSwaps(g.graph)) {
    Strategy alt = ApplySwap(g.graph, theta, swap);
    EXPECT_DOUBLE_EQ(estimator.UnderEstimate(trace, alt),
                     estimator.ExactDelta(theta, alt, none));
  }
}

}  // namespace
}  // namespace stratlearn
