// Differential test: Upsilon's exact subset DP against the exhaustive
// BruteForceOptimal oracle on a seeded corpus of small guarded trees.
// Every tree must give the oracle's exact arc sequence and a bit-equal
// expected cost. The corpus is built to be full of exact cost ties, so a
// search that broke ties differently from the oracle's "first strictly
// cheapest order in lexicographic order" would fail here.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "core/expected_cost.h"
#include "core/upsilon.h"
#include "workload/random_tree.h"

namespace stratlearn {
namespace {

constexpr size_t kMaxLeaves = 8;

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// The *last* leaf order (in lexicographic order) of minimal cost: the
/// answer of a search that breaks exact ties the other way.
std::vector<ArcId> LastOptimalArcs(const InferenceGraph& graph,
                                   const std::vector<double>& probs) {
  std::vector<ArcId> leaves = graph.SuccessArcs();
  std::sort(leaves.begin(), leaves.end());
  std::vector<ArcId> best_arcs;
  double best = 0.0;
  do {
    Strategy candidate = Strategy::FromLeafOrder(graph, leaves);
    double cost = ExactExpectedCost(graph, candidate, probs);
    if (best_arcs.empty() || cost <= best) {
      best = cost;
      best_arcs = candidate.arcs();
    }
  } while (std::next_permutation(leaves.begin(), leaves.end()));
  return best_arcs;
}

/// Adds two identical leaves side by side under a random non-success
/// node. Swapping them changes no cost term, so each leaf order ties
/// exactly with the order that has the twins swapped.
void AddTwinLeaves(RandomTree& tree, Rng& rng, double max_outcome_cost) {
  std::vector<NodeId> parents;
  for (NodeId n = 0; n < tree.graph.num_nodes(); ++n) {
    if (!tree.graph.node(n).is_success) parents.push_back(n);
  }
  NodeId parent = parents[rng.NextBounded(parents.size())];
  double cost = rng.NextUniform(0.5, 2.0);
  double on_success = rng.NextUniform(0.0, max_outcome_cost);
  double on_failure = rng.NextUniform(0.0, max_outcome_cost);
  double p = rng.NextUniform(0.05, 0.95);
  for (const char* label : {"twin_a", "twin_b"}) {
    ArcId arc = tree.graph.AddRetrieval(parent, cost, label).arc;
    tree.graph.SetOutcomeCosts(arc, on_success, on_failure);
    tree.probs.push_back(p);
  }
}

enum class Variant { kPlain, kAllEqual, kZeroOne, kTwins, kCount };

/// One corpus tree: a random guarded tree (outside the block-merge
/// class, so Upsilon takes its exact path) with `min_leaves` to
/// `max_leaves` leaves, perturbed by `variant`.
RandomTree MakeCorpusTree(Rng& rng, Variant variant, size_t min_leaves,
                          size_t max_leaves) {
  const double internal_probs[] = {0.3, 0.4, 0.5};
  RandomTreeOptions options;
  options.depth = 2 + static_cast<int>(rng.NextBounded(2));
  options.internal_experiment_prob = internal_probs[rng.NextBounded(3)];
  options.max_outcome_cost = rng.NextBernoulli(0.5) ? 1.5 : 0.0;
  for (;;) {
    RandomTree tree = MakeRandomTree(rng, options);
    if (variant == Variant::kTwins) {
      AddTwinLeaves(tree, rng, options.max_outcome_cost);
    }
    size_t leaves = tree.graph.SuccessArcs().size();
    if (leaves < min_leaves || leaves > max_leaves) continue;
    if (IsBlockMergeExact(tree.graph)) continue;
    for (double& p : tree.probs) {
      if (variant == Variant::kAllEqual) p = 0.5;
      if (variant == Variant::kZeroOne) {
        double u = rng.NextDouble();
        if (u < 0.15) {
          p = 0.0;
        } else if (u < 0.3) {
          p = 1.0;
        }
      }
    }
    return tree;
  }
}

TEST(UpsilonOracleTest, SubsetDpIsBitIdenticalToBruteForce) {
  Rng rng(20261020);
  const int kTrees = 2000;
  int tie_broken = 0;  // trees whose first and last optimal orders differ
  int eight_leaves = 0;
  for (int t = 0; t < kTrees; ++t) {
    // Exhaustive search dominates the run time, so the corpus holds 16
    // trees of exactly 8 leaves, 80 of 7 and the rest with 2 to 6.
    Variant variant =
        static_cast<Variant>(t % static_cast<int>(Variant::kCount));
    int group = t / static_cast<int>(Variant::kCount);
    size_t min_leaves = 2, max_leaves = 6;
    if (group % 125 == 0) {
      min_leaves = max_leaves = 8;
    } else if (group % 25 == 1) {
      min_leaves = max_leaves = 7;
    }
    RandomTree tree = MakeCorpusTree(rng, variant, min_leaves, max_leaves);
    const InferenceGraph& g = tree.graph;
    if (g.SuccessArcs().size() == kMaxLeaves) ++eight_leaves;

    Result<UpsilonResult> dp = UpsilonAot(g, tree.probs);
    ASSERT_TRUE(dp.ok()) << dp.status().ToString();
    Result<OptimalResult> brute = BruteForceOptimal(g, tree.probs, kMaxLeaves);
    ASSERT_TRUE(brute.ok()) << brute.status().ToString();
    ASSERT_TRUE(dp->exact) << "tree " << t;
    ASSERT_EQ(dp->strategy.arcs(), brute->strategy.arcs()) << "tree " << t;
    ASSERT_TRUE(BitEqual(dp->expected_cost, brute->cost))
        << "tree " << t << ": " << dp->expected_cost << " vs " << brute->cost;

    // Counted on the smaller trees only, to spare a second exhaustive
    // search of the 8-leaf ones.
    if (g.SuccessArcs().size() < kMaxLeaves &&
        LastOptimalArcs(g, tree.probs) != brute->strategy.arcs()) {
      ++tie_broken;
    }
  }
  // Without enough exact ties the corpus could not tell a reversed
  // tie-break from the oracle's.
  EXPECT_GE(tie_broken, 50) << "of " << kTrees;
  EXPECT_EQ(eight_leaves, 16);
  std::printf("%d of %d trees have several exactly optimal orders\n",
              tie_broken, kTrees);
}

TEST(UpsilonOracleTest, SubsetDpMatchesOnLeafOnlyTrees) {
  // Leaf-only graphs take ExactExpectedCost's O(|A|) path, whose sums
  // associate differently from the DP's per-arc terms.
  Rng rng(7);
  for (int t = 0; t < 200; ++t) {
    RandomTreeOptions options;
    options.depth = 2;
    options.max_outcome_cost = t % 2 == 0 ? 0.0 : 1.5;
    RandomTree tree = MakeRandomTree(rng, options);
    if (tree.graph.SuccessArcs().size() > kMaxLeaves) continue;
    if (t % 3 == 0) {
      for (double& p : tree.probs) p = 0.5;
    }
    Result<OptimalResult> dp = SubsetDpOptimal(tree.graph, tree.probs);
    Result<OptimalResult> brute = BruteForceOptimal(tree.graph, tree.probs);
    ASSERT_TRUE(dp.ok() && brute.ok());
    ASSERT_EQ(dp->strategy.arcs(), brute->strategy.arcs()) << "tree " << t;
    ASSERT_TRUE(BitEqual(dp->cost, brute->cost)) << "tree " << t;
  }
}

TEST(UpsilonOracleTest, SubsetDpRejectsWhatItCannotSearch) {
  InferenceGraph g;
  g.AddRoot("goal");
  EXPECT_FALSE(SubsetDpOptimal(g, {}).ok());  // no success arcs

  Rng rng(3);
  RandomTree wide = MakeFlatTree(rng, static_cast<int>(kMaxSubsetDpLeaves) + 1);
  EXPECT_FALSE(SubsetDpOptimal(wide.graph, wide.probs).ok());
  RandomTree flat = MakeFlatTree(rng, 9);
  EXPECT_TRUE(SubsetDpOptimal(flat.graph, flat.probs).ok());
}

}  // namespace
}  // namespace stratlearn
