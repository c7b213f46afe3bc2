#ifndef STRATLEARN_CORE_EXPECTED_COST_H_
#define STRATLEARN_CORE_EXPECTED_COST_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "engine/query_processor.h"
#include "engine/strategy.h"
#include "graph/inference_graph.h"
#include "util/rng.h"
#include "util/status.h"
#include "workload/oracle.h"

namespace stratlearn {

/// Expected cost C[Theta] (Section 2.1) of a strategy when experiment i
/// succeeds independently with probability `probs[i]`.
///
/// Exact via the tree decomposition: for each arc a,
///   Pr[a attempted] = Pr[Pi(a) unblocked]
///                   * Pr[no earlier success | Pi(a) unblocked],
/// where the conditional no-success probability of the already-ordered
/// leaves factorises over sibling subtrees (experiments independent).
/// O(|A|^2) worst case.
double ExactExpectedCost(const InferenceGraph& graph, const Strategy& strategy,
                         const std::vector<double>& probs);

/// O(|A|) fast path for *simple disjunctive* graphs — every experiment is
/// a success (leaf) arc (Smith's class; paper Note 4). Aborts if the
/// graph has internal experiments; callers should check
/// `IsLeafOnlyExperiments` first.
double LeafOnlyExpectedCost(const InferenceGraph& graph,
                            const Strategy& strategy,
                            const std::vector<double>& probs);

/// True when every experiment arc ends in a success node.
bool IsLeafOnlyExperiments(const InferenceGraph& graph);

/// Expected cost by exhaustive enumeration of all 2^n contexts; exact for
/// any dependence-free distribution but exponential — test oracle only
/// (n <= 24 enforced).
double EnumeratedExpectedCost(const InferenceGraph& graph,
                              const Strategy& strategy,
                              const std::vector<double>& probs);

/// Monte-Carlo estimate of C[Theta] over an arbitrary context oracle
/// (the only option when experiments are dependent).
double MonteCarloExpectedCost(const InferenceGraph& graph,
                              const Strategy& strategy, ContextOracle& oracle,
                              int64_t samples, Rng& rng);

/// Exhaustively searches all leaf orderings (lazy strategies) for the
/// minimum expected cost. Exponential: requires at most
/// `max_leaves` (default 8) success arcs. Returns the optimal strategy
/// and its cost.
struct OptimalResult {
  Strategy strategy;
  double cost = 0.0;
};
Result<OptimalResult> BruteForceOptimal(const InferenceGraph& graph,
                                        const std::vector<double>& probs,
                                        size_t max_leaves = 8);

/// Largest leaf count SubsetDpOptimal accepts: its table holds 2^n
/// doubles (8 MiB at 20 leaves).
inline constexpr size_t kMaxSubsetDpLeaves = 20;

/// The same answer as BruteForceOptimal — the same strategy and a
/// bit-identical cost — from a dynamic program over leaf *sets* instead
/// of leaf orders: O(2^n * n * |A|^2) rather than O(n! * |A|^2) for n
/// success arcs. With exact cost ties (e.g. a leaf that always succeeds,
/// after which every order costs the same) it ranks up to (n-1)! tied
/// orders. Requires at most kMaxSubsetDpLeaves success arcs.
Result<OptimalResult> SubsetDpOptimal(const InferenceGraph& graph,
                                      const std::vector<double>& probs);

}  // namespace stratlearn

#endif  // STRATLEARN_CORE_EXPECTED_COST_H_
