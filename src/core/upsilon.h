#ifndef STRATLEARN_CORE_UPSILON_H_
#define STRATLEARN_CORE_UPSILON_H_

#include <vector>

#include "engine/strategy.h"
#include "graph/inference_graph.h"
#include "util/status.h"

namespace stratlearn {

/// Options for the Upsilon_AOT optimal-strategy computation.
struct UpsilonOptions {
  /// Graphs outside the block-merge class are solved exactly, by the
  /// subset DP of SubsetDpOptimal, when they have at most this many
  /// success arcs (and at most kMaxSubsetDpLeaves). The DP returns what
  /// exhaustive search over leaf orders would, hence the name.
  size_t max_brute_force_leaves = 8;
  /// When brute force is also infeasible, allow the near-optimal
  /// approximation (paper Section 4: the efficient Upsilon~_G of
  /// [GO91, Appendix B]); the result is flagged `exact == false`.
  bool allow_approximation = true;
};

struct UpsilonResult {
  Strategy strategy;
  double expected_cost = 0.0;
  /// True when the returned strategy is provably optimal.
  bool exact = true;
};

/// Upsilon_AOT(G, p): the minimum-expected-cost satisficing strategy for
/// a tree-shaped inference graph whose experiments succeed independently
/// with probabilities `probs` (Section 4).
///
/// For the paper's *simple disjunctive* AOT class — experiments only on
/// leaf (success) arcs — the optimal ordering is computed in
/// O(|A| log |A|) by ratio-block merging (the Simon–Kadane / Smith
/// sequencing algorithm for tree precedence):
///   * each leaf arc is a job with cost c and success probability p;
///     internal reduction arcs are jobs with success probability 0;
///   * a subtree reduces bottom-up to a sequence of blocks of
///     non-increasing ratio R(B) = (1 - Q(B)) / C(B), where C is the
///     block's expected cost when started and Q its failure probability;
///   * sibling sequences merge by descending ratio; a parent arc is glued
///     onto the front of its children's sequence, absorbing following
///     blocks while its ratio is smaller than its successor's (Sidney
///     decomposition).
///
/// Graphs with internal experiments (guards, conjunctive chains) are
/// solved exactly by a subset DP when small (SubsetDpOptimal: exponential
/// over leaf sets rather than leaf orders, and bit-identical to the
/// BruteForceOptimal oracle), else approximately by
/// collapsing each terminal chain into a composite job and treating
/// remaining internal experiments as deterministic prefix jobs.
Result<UpsilonResult> UpsilonAot(const InferenceGraph& graph,
                                 const std::vector<double>& probs,
                                 const UpsilonOptions& options = {});

/// True when `graph` is in the provably-optimal class for block merging:
/// every experiment's subtree is a chain that terminates in its success
/// node (leaf-only graphs trivially qualify; conjunctive retrieval chains
/// also qualify).
bool IsBlockMergeExact(const InferenceGraph& graph);

}  // namespace stratlearn

#endif  // STRATLEARN_CORE_UPSILON_H_
