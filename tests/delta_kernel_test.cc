// Differential tests of the prepared Delta~ kernel against the full-walk
// oracle in delta_oracle.h: every estimate must carry the same bits, and
// a PIB run driven through the kernel must make the same decisions as a
// loop that re-derives everything from scratch — including across
// checkpoint/restore, rebaseline and scoped restart, which must keep the
// neighbours' cached divergence positions in step with the neighbourhood.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/delta_estimator.h"
#include "core/pib.h"
#include "core/transformations.h"
#include "core/upsilon.h"
#include "delta_oracle.h"
#include "robust/fault_injector.h"
#include "workload/random_tree.h"
#include "workload/synthetic_oracle.h"

namespace stratlearn {
namespace {

using oracle::SameBits;

std::string Bits(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// Transient faults with one retry, a circuit breaker and a per-query
/// cost budget: traces carry infra failures (observed blocked at the
/// pessimistic cost), breaker skips and budget truncation.
robust::FaultPlan HarshPlan(uint64_t seed, double budget) {
  robust::FaultPlan plan;
  plan.seed = seed;
  plan.rules.push_back({robust::FaultKind::kTransient, 0.35, -1, 1.0});
  plan.rules.push_back({robust::FaultKind::kCostSpike, 0.1, -1, 3.0});
  plan.resilience.max_retries = 1;
  plan.resilience.breaker_threshold = 2;
  plan.resilience.breaker_cooldown = 3;
  plan.resilience.cost_budget = budget;
  return plan;
}

struct FuzzCoverage {
  int64_t trees = 0;
  int64_t estimates = 0;
  int64_t truncated = 0;
  int64_t infra_failures = 0;
  int64_t internal_experiments = 0;
  int64_t outcome_cost_trees = 0;
};

/// Compares every sibling-swap neighbour's prepared, standalone and
/// oracle estimates for one trace, prepared against `base`.
void CheckTrace(const DeltaEstimator& estimator, const RandomTree& tree,
                const Trace& trace, const Strategy& base,
                const std::vector<Strategy>& alts, bool check_over,
                DeltaEstimator::Workspace* workspace,
                FuzzCoverage* coverage, const std::string& where) {
  const InferenceGraph& graph = tree.graph;
  estimator.Prepare(trace, base, workspace);
  for (size_t j = 0; j < alts.size(); ++j) {
    const Strategy& alt = alts[j];
    double want = oracle::UnderEstimate(graph, trace, alt);
    double prepared = estimator.UnderEstimate(
        alt, DivergencePosition(base, alt), workspace);
    double from_zero = estimator.UnderEstimate(alt, 0, workspace);
    double standalone = estimator.UnderEstimate(trace, alt);
    ASSERT_TRUE(SameBits(prepared, want))
        << where << " alt=" << j << " prepared=" << Bits(prepared)
        << " oracle=" << Bits(want);
    ASSERT_TRUE(SameBits(from_zero, want)) << where << " alt=" << j;
    ASSERT_TRUE(SameBits(standalone, want)) << where << " alt=" << j;
    if (check_over) {
      double want_over = oracle::OverEstimate(graph, trace, alt);
      double over = estimator.OverEstimate(alt, workspace);
      ASSERT_TRUE(SameBits(over, want_over))
          << where << " alt=" << j << " over=" << Bits(over)
          << " oracle=" << Bits(want_over);
      ASSERT_TRUE(
          SameBits(estimator.OverEstimate(trace, alt), want_over))
          << where << " alt=" << j;
    }
    ++coverage->estimates;
  }
  if (!trace.resolved) ++coverage->truncated;
  for (const ArcAttempt& at : trace.attempts) {
    if (at.infra_failure) ++coverage->infra_failures;
  }
}

TEST(DeltaKernelFuzz, MatchesOracleBitForBitOnRandomTrees) {
  constexpr int kTrees = 240;
  constexpr int kContexts = 6;
  FuzzCoverage coverage;
  // One workspace across every tree: Prepare must resize it for each
  // graph without leaking state from the previous one.
  DeltaEstimator::Workspace workspace;
  for (int t = 0; t < kTrees; ++t) {
    Rng rng(0xD17A0000u + static_cast<uint64_t>(t));
    RandomTreeOptions options;
    options.depth = 2 + t % 3;
    options.internal_experiment_prob = (t % 2 == 0) ? 0.4 : 0.0;
    options.max_outcome_cost = (t % 3 == 1) ? 0.0 : 2.5;
    RandomTree tree = MakeRandomTree(rng, options);
    const InferenceGraph& graph = tree.graph;
    ++coverage.trees;
    if (options.max_outcome_cost > 0.0) ++coverage.outcome_cost_trees;
    for (size_t e = 0; e < graph.num_experiments(); ++e) {
      if (!graph.node(graph.arc(graph.experiments()[e]).to).is_success) {
        ++coverage.internal_experiments;
      }
    }
    // Delta^ walks every favoured-path completion: keep the oracle's
    // O(leaves * arcs) per neighbour to the smaller trees.
    bool check_over = options.depth <= 3;

    std::vector<ArcId> leaves = graph.SuccessArcs();
    rng.Shuffle(leaves);
    Strategy theta = Strategy::FromLeafOrder(graph, leaves);
    // Every swap, no-ops included (they agree with theta everywhere).
    std::vector<Strategy> alts;
    for (const SiblingSwap& swap : AllSiblingSwaps(graph)) {
      alts.push_back(ApplySwap(graph, theta, swap));
    }

    DeltaEstimator estimator(&graph);
    IndependentOracle contexts(tree.probs);
    QueryProcessor plain(&graph);
    robust::FaultInjector injector(
        HarshPlan(static_cast<uint64_t>(t) + 1, 0.45 * graph.TotalCost()));
    QueryProcessor faulty(&graph);
    faulty.set_fault_injector(&injector);
    for (int k = 0; k < kContexts; ++k) {
      Context context = contexts.Next(rng);
      std::string where =
          "tree=" + std::to_string(t) + " context=" + std::to_string(k);
      CheckTrace(estimator, tree, plain.Execute(theta, context), theta, alts,
                 check_over, &workspace, &coverage, where + " plain");
      if (::testing::Test::HasFatalFailure()) return;
      CheckTrace(estimator, tree, faulty.Execute(theta, context), theta,
                 alts, check_over, &workspace, &coverage, where + " faulty");
      if (::testing::Test::HasFatalFailure()) return;
      // The invariant holds for any prepared base, not only the strategy
      // that produced the trace.
      CheckTrace(estimator, tree, plain.Execute(theta, context), alts.back(),
                 alts, /*check_over=*/false, &workspace, &coverage,
                 where + " other-base");
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_EQ(coverage.trees, kTrees);
  // The fuzz must actually reach the cases it claims to cover.
  EXPECT_GT(coverage.truncated, 0);
  EXPECT_GT(coverage.infra_failures, 0);
  EXPECT_GT(coverage.internal_experiments, 0);
  EXPECT_GT(coverage.outcome_cost_trees, 0);
  EXPECT_GT(coverage.estimates, 10000);
}

TEST(DeltaKernelTest, DivergencePosition) {
  Rng rng(5);
  RandomTree tree = MakeRandomTree(rng);
  Strategy theta = Strategy::DepthFirst(tree.graph);
  EXPECT_EQ(DivergencePosition(theta, theta), theta.size());
  for (const SiblingSwap& swap : AllSiblingSwaps(tree.graph)) {
    Strategy alt = ApplySwap(tree.graph, theta, swap);
    size_t d = DivergencePosition(theta, alt);
    for (size_t p = 0; p < d; ++p) EXPECT_EQ(theta.arcs()[p], alt.arcs()[p]);
    if (alt != theta) {
      ASSERT_LT(d, theta.size());
      EXPECT_NE(theta.arcs()[d], alt.arcs()[d]);
    }
  }
}

// ---- Whole-run equivalence ---------------------------------------------

/// A learner under test paired with the oracle loop, fed identical
/// traces; every Observe's verdict and every neighbour's Delta~ sum must
/// agree bit for bit.
struct PairedRun {
  PairedRun(const RandomTree* tree, Strategy initial, double delta,
            uint64_t seed, bool faults)
      : tree(tree),
        pib(&tree->graph, initial, PibOptions{.delta = delta}),
        reference(&tree->graph, initial, delta),
        contexts(tree->probs),
        rng(seed),
        processor(&tree->graph) {
    if (faults) {
      injector = std::make_unique<robust::FaultInjector>(
          HarshPlan(seed, 0.6 * tree->graph.TotalCost()));
      processor.set_fault_injector(injector.get());
    }
  }

  /// Steps both learners until the learner has climbed at least once
  /// (at most `limit` contexts), then `n` more times.
  void StepPastFirstClimb(int limit, int n) {
    for (int i = 0; i < limit && pib.moves().empty(); ++i) {
      Step(1);
      if (::testing::Test::HasFatalFailure()) return;
    }
    ASSERT_FALSE(pib.moves().empty()) << "no climb within " << limit;
    Step(n);
  }

  /// Steps both learners `n` times; stops at the first disagreement.
  void Step(int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(pib.strategy() == reference.strategy());
      Trace trace = processor.Execute(pib.strategy(), contexts.Next(rng));
      bool moved = pib.Observe(trace);
      ASSERT_EQ(moved, reference.Observe(trace)) << "context " << i;
      ExpectSameState();
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  void ExpectSameState() {
    ASSERT_EQ(pib.num_neighbors(), reference.neighbors().size());
    ASSERT_EQ(pib.trial_count(), reference.trials());
    ASSERT_EQ(pib.samples_in_epoch(), reference.samples());
    for (size_t j = 0; j < pib.num_neighbors(); ++j) {
      double got = pib.DeltaSumFor(j);
      double want = reference.neighbors()[j].delta_sum;
      ASSERT_TRUE(SameBits(got, want))
          << "neighbour " << j << ": " << Bits(got) << " vs " << Bits(want);
    }
  }

  void ExpectSameMoves() {
    ASSERT_EQ(pib.moves().size(), reference.moves().size());
    for (size_t m = 0; m < pib.moves().size(); ++m) {
      const Pib::Move& got = pib.moves()[m];
      const oracle::ReferencePib::Move& want = reference.moves()[m];
      EXPECT_EQ(got.at_context, want.at_context);
      EXPECT_EQ(got.samples_used, want.samples_used);
      EXPECT_EQ(got.swap.arc_a, want.swap.arc_a);
      EXPECT_EQ(got.swap.arc_b, want.swap.arc_b);
      EXPECT_TRUE(SameBits(got.delta_sum, want.delta_sum)) << "move " << m;
      EXPECT_TRUE(SameBits(got.threshold, want.threshold)) << "move " << m;
    }
  }

  const RandomTree* tree;
  Pib pib;
  oracle::ReferencePib reference;
  IndependentOracle contexts;
  Rng rng;
  std::unique_ptr<robust::FaultInjector> injector;
  QueryProcessor processor;
};

/// A random tree with outcome costs and internal experiments, and the
/// reverse of its Upsilon leaf order as a poor starting point.
struct Problem {
  RandomTree tree;
  Strategy initial;
};

Problem MakeProblem(uint64_t seed) {
  Rng rng(seed);
  RandomTreeOptions options;
  options.depth = 3;
  options.internal_experiment_prob = 0.3;
  options.max_outcome_cost = 1.5;
  options.max_branch = 4;
  options.early_leaf_prob = 0.1;
  Problem p{MakeRandomTree(rng, options), Strategy()};
  Result<UpsilonResult> upsilon = UpsilonAot(p.tree.graph, p.tree.probs);
  STRATLEARN_CHECK(upsilon.ok());
  std::vector<ArcId> leaves = upsilon->strategy.LeafOrder(p.tree.graph);
  std::reverse(leaves.begin(), leaves.end());
  p.initial = Strategy::FromLeafOrder(p.tree.graph, leaves);
  return p;
}

TEST(DeltaKernelRun, PibMatchesOracleLoopOverThousandsOfContexts) {
  int64_t total_moves = 0;
  for (uint64_t seed : {11u, 17u, 18u, 22u}) {
    Problem p = MakeProblem(seed);
    for (bool faults : {false, true}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " faults=" + std::to_string(faults));
      PairedRun run(&p.tree, p.initial, 0.5, seed * 7 + faults, faults);
      run.Step(3000);
      if (HasFatalFailure()) return;
      run.ExpectSameMoves();
      total_moves += static_cast<int64_t>(run.pib.moves().size());
    }
  }
  // Climbs rebuild the neighbourhood (and its divergence positions);
  // the comparison must cover them.
  EXPECT_GE(total_moves, 4);
}

// ---- Interrupted runs ----------------------------------------------------

TEST(DeltaKernelRun, CheckpointRestoreMidRunMatchesUninterrupted) {
  Problem p = MakeProblem(22);
  PairedRun uninterrupted(&p.tree, p.initial, 0.5, 99, false);
  uninterrupted.StepPastFirstClimb(3000, 200);
  ASSERT_FALSE(HasFatalFailure());

  // A fresh learner still at the initial strategy — whose neighbourhood
  // and divergence positions differ — takes over from the checkpoint.
  Pib resumed(&p.tree.graph, p.initial, PibOptions{.delta = 0.5});
  ASSERT_TRUE(resumed.RestoreCheckpoint(uninterrupted.pib.GetCheckpoint())
                  .ok());
  Rng rng_copy = uninterrupted.rng;
  QueryProcessor qp(&p.tree.graph);
  for (int i = 0; i < 1500; ++i) {
    Context context = uninterrupted.contexts.Next(rng_copy);
    Trace trace = qp.Execute(resumed.strategy(), context);
    ASSERT_EQ(resumed.Observe(trace), uninterrupted.pib.Observe(trace));
    ASSERT_TRUE(resumed.strategy() == uninterrupted.pib.strategy());
    for (size_t j = 0; j < resumed.num_neighbors(); ++j) {
      ASSERT_TRUE(SameBits(resumed.DeltaSumFor(j),
                           uninterrupted.pib.DeltaSumFor(j)))
          << "context " << i << " neighbour " << j;
    }
  }
  ASSERT_EQ(resumed.moves().size(), uninterrupted.pib.moves().size());
  for (size_t m = 0; m < resumed.moves().size(); ++m) {
    EXPECT_EQ(resumed.moves()[m].at_context,
              uninterrupted.pib.moves()[m].at_context);
    EXPECT_TRUE(SameBits(resumed.moves()[m].delta_sum,
                         uninterrupted.pib.moves()[m].delta_sum));
  }
}

TEST(DeltaKernelRun, RebaselineMatchesOracleLoop) {
  Problem p = MakeProblem(35);
  PairedRun run(&p.tree, p.initial, 0.5, 5, false);
  run.StepPastFirstClimb(3000, 200);
  ASSERT_FALSE(HasFatalFailure());
  run.pib.Rebaseline(0.5);
  run.reference.Rebaseline(0.5);
  run.ExpectSameState();
  ASSERT_FALSE(HasFatalFailure());
  run.Step(1800);
  ASSERT_FALSE(HasFatalFailure());
  run.ExpectSameMoves();
}

TEST(DeltaKernelRun, RestartScopedMatchesOracleLoop) {
  Problem p = MakeProblem(18);
  PairedRun run(&p.tree, p.initial, 0.5, 6, false);
  run.StepPastFirstClimb(3000, 200);
  ASSERT_FALSE(HasFatalFailure());
  // Reset the neighbours touching the first leaf's subtree twice, at
  // different points of the run.
  ArcId leaf = p.tree.graph.SuccessArcs().front();
  ASSERT_GT(run.pib.RestartScoped(leaf), 0);
  run.reference.RestartScoped(leaf);
  run.ExpectSameState();
  ASSERT_FALSE(HasFatalFailure());
  run.Step(900);
  ASSERT_FALSE(HasFatalFailure());
  run.pib.RestartScoped(leaf);
  run.reference.RestartScoped(leaf);
  run.Step(900);
  ASSERT_FALSE(HasFatalFailure());
  run.ExpectSameMoves();
}

}  // namespace
}  // namespace stratlearn
