#include "engine/adaptive_qp.h"

#include <gtest/gtest.h>

#include "graph/examples.h"
#include "workload/random_tree.h"
#include "workload/synthetic_oracle.h"

namespace stratlearn {
namespace {

TEST(AdaptiveQpTest, FixedStrategyWouldStarve) {
  // Section 4.1's motivation: if D_p always succeeds, a fixed Theta_1
  // never samples D_g — but QP^A does.
  FigureOneGraph g = MakeFigureOne();
  AdaptiveQueryProcessor qpa(&g.graph, {5, 5},
                             AdaptiveQueryProcessor::QuotaMode::kAttempts);
  Context always_prof(2);
  always_prof.Set(0, true);
  always_prof.Set(1, true);
  while (!qpa.QuotasMet()) qpa.Process(always_prof);
  EXPECT_GE(qpa.counters()[0].attempts(), 5);
  EXPECT_GE(qpa.counters()[1].attempts(), 5);
}

TEST(AdaptiveQpTest, CrossSamplesCountTowardOtherQuotas) {
  // The paper: "as 18 of the 30 D_p retrievals succeeded, PAO would
  // already have obtained 12 samples of D_g" — a run that fails D_p and
  // falls through to D_g credits D_g's quota too.
  FigureOneGraph g = MakeFigureOne();
  AdaptiveQueryProcessor qpa(&g.graph, {3, 3},
                             AdaptiveQueryProcessor::QuotaMode::kAttempts);
  Context nothing(2);  // both retrievals fail -> both attempted every run
  qpa.Process(nothing);
  EXPECT_EQ(qpa.remaining()[0], 2);
  EXPECT_EQ(qpa.remaining()[1], 2);
  qpa.Process(nothing);
  qpa.Process(nothing);
  EXPECT_TRUE(qpa.QuotasMet());
  EXPECT_EQ(qpa.contexts_processed(), 3);
}

TEST(AdaptiveQpTest, AimsAtLargestRemainingQuota) {
  FigureOneGraph g = MakeFigureOne();
  AdaptiveQueryProcessor qpa(&g.graph, {1, 10},
                             AdaptiveQueryProcessor::QuotaMode::kAttempts);
  Context both = Context::AllUnblocked(2);
  auto step = qpa.Process(both);
  EXPECT_EQ(step.aimed_experiment, 1);  // D_g has the larger quota
  EXPECT_TRUE(step.reached);
}

TEST(AdaptiveQpTest, QuotaZeroMeansDepthFirst) {
  FigureOneGraph g = MakeFigureOne();
  AdaptiveQueryProcessor qpa(&g.graph, {0, 0},
                             AdaptiveQueryProcessor::QuotaMode::kAttempts);
  EXPECT_TRUE(qpa.QuotasMet());
  auto step = qpa.Process(Context::AllUnblocked(2));
  EXPECT_EQ(step.aimed_experiment, -1);
  EXPECT_TRUE(step.trace.success);
}

TEST(AdaptiveQpTest, SuccessFrequenciesMatchCounters) {
  FigureOneGraph g = MakeFigureOne();
  AdaptiveQueryProcessor qpa(&g.graph, {4, 4},
                             AdaptiveQueryProcessor::QuotaMode::kAttempts);
  // D_p succeeds, D_g fails, alternating contexts to hit both quotas.
  Context prof_only(2);
  prof_only.Set(0, true);
  Context neither(2);
  for (int i = 0; i < 4; ++i) {
    qpa.Process(prof_only);
    qpa.Process(neither);
  }
  std::vector<double> p = qpa.SuccessFrequencies();
  ASSERT_EQ(p.size(), 2u);
  EXPECT_GT(p[0], 0.0);
  EXPECT_EQ(p[1], 0.0);  // D_g never succeeded
}

TEST(AdaptiveQpTest, ReachModeCountsBlockedAims) {
  // Chain graph: guard -> leaf. When the guard blocks, the leaf is aimed
  // at but not reached; Theorem 3 mode still credits the aim.
  InferenceGraph g;
  NodeId root = g.AddRoot("goal");
  auto guard = g.AddChild(root, "sub", ArcKind::kReduction, 1.0, "guard",
                          /*is_experiment=*/true);
  ArcId leaf = g.AddRetrieval(guard.node, 1.0, "d").arc;
  g.AddRetrieval(root, 1.0, "other");
  (void)leaf;

  int leaf_exp = 1;  // experiments: guard=0, leaf=1, other=2
  AdaptiveQueryProcessor qpa(&g, {0, 5, 0},
                             AdaptiveQueryProcessor::QuotaMode::kReachAttempts);
  Context guard_blocked = Context::AllUnblocked(3);
  guard_blocked.Set(0, false);
  for (int i = 0; i < 5; ++i) {
    auto step = qpa.Process(guard_blocked);
    EXPECT_EQ(step.aimed_experiment, leaf_exp);
    EXPECT_FALSE(step.reached);
  }
  EXPECT_TRUE(qpa.QuotasMet());
  EXPECT_EQ(qpa.counters()[leaf_exp].reach_attempts(), 5);
  EXPECT_EQ(qpa.counters()[leaf_exp].attempts(), 0);
  // Never-reached experiments fall back to 0.5 (Theorem 3).
  EXPECT_EQ(qpa.SuccessFrequencies()[leaf_exp], 0.5);
}

TEST(AdaptiveQpTest, AttemptModeDoesNotCreditBlockedAims) {
  InferenceGraph g;
  NodeId root = g.AddRoot("goal");
  auto guard = g.AddChild(root, "sub", ArcKind::kReduction, 1.0, "guard",
                          /*is_experiment=*/true);
  g.AddRetrieval(guard.node, 1.0, "d");
  AdaptiveQueryProcessor qpa(&g, {0, 3},
                             AdaptiveQueryProcessor::QuotaMode::kAttempts);
  Context guard_blocked(2);
  qpa.Process(guard_blocked);
  EXPECT_EQ(qpa.remaining()[1], 3);  // aim blocked: no attempt credit
  EXPECT_FALSE(qpa.QuotasMet());
}

TEST(AdaptiveQpTest, EveryContextStillGetsAnswered) {
  // Unobtrusiveness: aiming must not break query answering.
  FigureOneGraph g = MakeFigureOne();
  AdaptiveQueryProcessor qpa(&g.graph, {10, 10},
                             AdaptiveQueryProcessor::QuotaMode::kAttempts);
  Rng rng(99);
  IndependentOracle oracle({0.6, 0.15});
  int successes = 0;
  for (int i = 0; i < 200; ++i) {
    Context ctx = oracle.Next(rng);
    bool has_answer = ctx.Unblocked(0) || ctx.Unblocked(1);
    auto step = qpa.Process(ctx);
    EXPECT_EQ(step.trace.success, has_answer);
    if (has_answer) ++successes;
  }
  EXPECT_GT(successes, 50);
}

TEST(AdaptiveQpTest, CachedAimingStrategiesEqualFreshOnes) {
  // Process reuses one aiming strategy per target; each cached one must
  // be the strategy AimingStrategy builds from scratch, before and after
  // contexts have run through the processor.
  Rng shape(5);
  RandomTreeOptions options;
  options.depth = 3;
  options.internal_experiment_prob = 0.3;
  RandomTree tree = MakeRandomTree(shape, options);
  int n = static_cast<int>(tree.graph.num_experiments());
  AdaptiveQueryProcessor qpa(&tree.graph, std::vector<int64_t>(n, 20),
                             AdaptiveQueryProcessor::QuotaMode::kReachAttempts);
  Rng rng(8);
  IndependentOracle oracle(tree.probs);
  for (int i = 0; i < 100; ++i) qpa.Process(oracle.Next(rng));
  for (int t = -1; t < n; ++t) {
    const Strategy& cached = qpa.CachedAimingStrategy(t);
    EXPECT_EQ(cached.arcs(), qpa.AimingStrategy(t).arcs()) << "target " << t;
    EXPECT_EQ(&cached, &qpa.CachedAimingStrategy(t)) << "built twice";
  }
}

}  // namespace
}  // namespace stratlearn
