// Differential oracle for the prepared Delta~ kernel: the estimator's
// original full-walk implementation (BoundedCost and the completions
// built on it, copied unchanged apart from taking the graph as a
// parameter) plus a PIB loop that re-derives every estimate from
// scratch with it. The library's DeltaEstimator and Pib must reproduce
// these values bit for bit.
#ifndef STRATLEARN_TESTS_DELTA_ORACLE_H_
#define STRATLEARN_TESTS_DELTA_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/transformations.h"
#include "engine/context.h"
#include "engine/query_processor.h"
#include "engine/strategy.h"
#include "graph/inference_graph.h"
#include "stats/sequential.h"

namespace stratlearn::oracle {

/// True when `a` and `b` have the same bit pattern.
inline bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Executes `strategy` under `context` like QueryProcessor::Execute, but
/// charges arcs whose experiment was NOT observed a bound on their
/// attempt cost instead of the outcome-dependent value: MaxCost when
/// `charge_max`, the minimum attempt cost otherwise. With the paper's
/// basic fixed-cost model this is identical to the plain execution; with
/// outcome-dependent costs it keeps the completions' costs valid upper /
/// lower bounds on c(Theta', I_true).
inline double BoundedCost(const InferenceGraph& graph,
                          const Strategy& strategy, const Context& context,
                          const std::vector<char>& observed,
                          bool charge_max) {
  std::vector<char> visited(graph.num_nodes(), 0);
  visited[graph.root()] = 1;
  double cost = 0.0;
  for (ArcId a : strategy.arcs()) {
    const Arc& arc = graph.arc(a);
    if (!visited[arc.from]) continue;
    bool unblocked = arc.experiment < 0 ||
                     context.Unblocked(static_cast<size_t>(arc.experiment));
    if (arc.experiment >= 0 &&
        !observed[static_cast<size_t>(arc.experiment)]) {
      double extra = charge_max
                         ? std::max(arc.success_cost, arc.failure_cost)
                         : std::min(arc.success_cost, arc.failure_cost);
      cost += arc.cost + extra;
    } else {
      cost += arc.cost + (unblocked ? arc.success_cost : arc.failure_cost);
    }
    if (!unblocked) continue;
    visited[arc.to] = 1;
    if (graph.node(arc.to).is_success) break;
  }
  return cost;
}

/// Reconstructs which experiments the trace observed, and their
/// outcomes. Returns a mask of observed experiments.
inline std::vector<char> ObservedOutcomes(const InferenceGraph& graph,
                                          const Trace& trace,
                                          Context* outcomes) {
  std::vector<char> observed(graph.num_experiments(), 0);
  for (const ArcAttempt& at : trace.attempts) {
    int e = graph.arc(at.arc).experiment;
    if (e < 0) continue;
    observed[static_cast<size_t>(e)] = 1;
    outcomes->Set(static_cast<size_t>(e), at.unblocked);
  }
  return observed;
}

inline double UnderEstimate(const InferenceGraph& graph, const Trace& trace,
                            const Strategy& alternative) {
  // Pessimistic completion J: observed outcomes kept; unobserved success
  // arcs blocked (Theta' cannot succeed anywhere Theta did not verify);
  // unobserved internal experiments unblocked (Theta' pays their
  // subtrees); unobserved arcs charged their maximum attempt cost.
  // c_max(Theta', J) >= c(Theta', I_true), hence the estimate is an
  // under-estimate of Delta.
  Context pessimistic(graph.num_experiments());
  std::vector<char> observed = ObservedOutcomes(graph, trace, &pessimistic);
  for (size_t e = 0; e < graph.num_experiments(); ++e) {
    if (observed[e]) continue;
    ArcId arc = graph.experiments()[e];
    bool is_success_arc = graph.node(graph.arc(arc).to).is_success;
    pessimistic.Set(e, !is_success_arc);
  }
  return trace.cost - BoundedCost(graph, alternative, pessimistic, observed,
                                  /*charge_max=*/true);
}

inline double OverEstimate(const InferenceGraph& graph, const Trace& trace,
                           const Strategy& alternative) {
  // Optimistic bound: a lower bound on c(Theta', I_true), minimised over
  // the "single favoured success path" family of consistent completions.
  // For each success arc s not observed blocked, complete with s's whole
  // root path unblocked and every other unobserved experiment blocked
  // (suppressing all other subtree costs); also consider the all-blocked
  // completion. Unobserved arcs are charged their minimum attempt cost.
  // Every consistent context's Theta' execution pays at least the
  // cheapest of these (see delta_estimator_test's exhaustive check).
  Context observed_ctx(graph.num_experiments());
  std::vector<char> observed = ObservedOutcomes(graph, trace, &observed_ctx);

  auto completion_base = [&]() {
    Context c(graph.num_experiments());
    for (size_t e = 0; e < graph.num_experiments(); ++e) {
      if (observed[e]) c.Set(e, observed_ctx.Unblocked(e));
    }
    return c;
  };

  // All-unobserved-blocked completion.
  double best = BoundedCost(graph, alternative, completion_base(), observed,
                            /*charge_max=*/false);

  for (ArcId s : graph.SuccessArcs()) {
    // Check consistency: no arc on s's root path (or s itself) was
    // observed blocked.
    bool consistent = true;
    Context c = completion_base();
    auto force_unblocked = [&](ArcId a) {
      int e = graph.arc(a).experiment;
      if (e < 0) return;
      if (observed[static_cast<size_t>(e)]) {
        if (!observed_ctx.Unblocked(static_cast<size_t>(e))) {
          consistent = false;
        }
      } else {
        c.Set(static_cast<size_t>(e), true);
      }
    };
    for (ArcId a : graph.Pi(s)) force_unblocked(a);
    force_unblocked(s);
    if (!consistent) continue;
    best = std::min(best, BoundedCost(graph, alternative, c, observed,
                                      /*charge_max=*/false));
  }
  return trace.cost - best;
}

/// Figure 3's PIB loop (test_every = 1, T = all sibling swaps) with every
/// Delta~ re-derived from scratch by the oracle and every threshold by
/// SequentialSumThreshold — the straightforward reading of the paper
/// that Pib's incremental kernel must match. Rebaseline and
/// RestartScoped follow Pib's documented semantics.
class ReferencePib {
 public:
  struct Neighbor {
    SiblingSwap swap;
    Strategy strategy;
    double range = 0.0;
    double delta_sum = 0.0;
  };
  struct Move {
    int64_t at_context = 0;
    int64_t samples_used = 0;
    SiblingSwap swap;
    double delta_sum = 0.0;
    double threshold = 0.0;
  };

  ReferencePib(const InferenceGraph* graph, Strategy initial, double delta)
      : graph_(graph), current_(std::move(initial)), delta_(delta) {
    Rebuild();
  }

  bool Observe(const Trace& trace) {
    ++contexts_;
    ++samples_;
    trials_ += static_cast<int64_t>(neighbors_.size());
    for (Neighbor& n : neighbors_) {
      n.delta_sum += UnderEstimate(*graph_, trace, n.strategy);
    }
    for (const Neighbor& n : neighbors_) {
      double threshold =
          SequentialSumThreshold(samples_, trials_, delta_, n.range);
      if (n.delta_sum > 0.0 && n.delta_sum >= threshold) {
        moves_.push_back(
            {contexts_, samples_, n.swap, n.delta_sum, threshold});
        current_ = n.strategy;
        Rebuild();
        return true;
      }
    }
    return false;
  }

  void Rebaseline(double trials_factor) {
    for (Neighbor& n : neighbors_) n.delta_sum = 0.0;
    samples_ = 0;
    trials_ = std::max<int64_t>(
        1,
        static_cast<int64_t>(static_cast<double>(trials_) * trials_factor));
  }

  void RestartScoped(ArcId arc) {
    for (Neighbor& n : neighbors_) {
      std::vector<ArcId> a = graph_->SubtreeArcs(n.swap.arc_a);
      std::vector<ArcId> b = graph_->SubtreeArcs(n.swap.arc_b);
      if (std::find(a.begin(), a.end(), arc) != a.end() ||
          std::find(b.begin(), b.end(), arc) != b.end()) {
        n.delta_sum = 0.0;
      }
    }
  }

  const Strategy& strategy() const { return current_; }
  const std::vector<Neighbor>& neighbors() const { return neighbors_; }
  const std::vector<Move>& moves() const { return moves_; }
  int64_t trials() const { return trials_; }
  int64_t samples() const { return samples_; }

 private:
  void Rebuild() {
    neighbors_.clear();
    for (const SiblingSwap& swap : AllSiblingSwaps(*graph_)) {
      Neighbor n;
      n.swap = swap;
      n.strategy = ApplySwap(*graph_, current_, swap);
      if (n.strategy == current_) continue;
      n.range = SwapRange(*graph_, current_, swap);
      neighbors_.push_back(std::move(n));
    }
    samples_ = 0;
  }

  const InferenceGraph* graph_;
  Strategy current_;
  double delta_;
  std::vector<Neighbor> neighbors_;
  std::vector<Move> moves_;
  int64_t contexts_ = 0;
  int64_t samples_ = 0;
  int64_t trials_ = 0;
};

}  // namespace stratlearn::oracle

#endif  // STRATLEARN_TESTS_DELTA_ORACLE_H_
