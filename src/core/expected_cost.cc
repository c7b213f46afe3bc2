#include "core/expected_cost.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>

#include "util/check.h"
#include "util/string_util.h"

namespace stratlearn {

namespace {

/// Pass probability of an arc: its experiment's success probability, or 1
/// for deterministic arcs.
double PassProb(const InferenceGraph& graph, ArcId a,
                const std::vector<double>& probs) {
  int e = graph.arc(a).experiment;
  return e < 0 ? 1.0 : probs[static_cast<size_t>(e)];
}

/// Probability that no success-arc in `in_s` fires anywhere under `node`,
/// conditioned on arcs marked `forced` being unblocked. Factorises over
/// sibling subtrees because experiments are independent.
double NoSuccessProb(const InferenceGraph& graph,
                     const std::vector<double>& probs,
                     const std::vector<char>& in_s,
                     const std::vector<char>& forced, NodeId node) {
  double out = 1.0;
  for (ArcId c : graph.node(node).out_arcs) {
    const Arc& arc = graph.arc(c);
    if (graph.node(arc.to).is_success) {
      // Success nodes are leaves, so a success arc never lies on any
      // Pi(a) and is never forced.
      if (in_s[c]) out *= 1.0 - PassProb(graph, c, probs);
      continue;
    }
    double sub = NoSuccessProb(graph, probs, in_s, forced, arc.to);
    if (forced[c]) {
      out *= sub;
    } else {
      double p = PassProb(graph, c, probs);
      out *= (1.0 - p) + p * sub;
    }
  }
  return out;
}

/// The term arc `a` adds to C[Theta] when the success arcs attempted
/// before it are those marked in `in_s`: its expected attempt cost times
///   Pr[a attempted] = Pr[Pi(a) unblocked] * NoSuccessProb(in_s | Pi(a)),
/// where `pi` is Pi(a). `forced` is scratch space, all zero on entry and
/// on return.
double AttemptTerm(const InferenceGraph& graph,
                   const std::vector<double>& probs,
                   const std::vector<char>& in_s, std::vector<char>& forced,
                   const std::vector<ArcId>& pi, ArcId a) {
  double pi_prob = 1.0;
  for (ArcId e : pi) {
    pi_prob *= PassProb(graph, e, probs);
    forced[e] = 1;
  }
  double term = 0.0;
  if (pi_prob > 0.0) {
    double no_success = NoSuccessProb(graph, probs, in_s, forced,
                                      graph.root());
    double attempt_cost =
        graph.arc(a).ExpectedAttemptCost(PassProb(graph, a, probs));
    term = attempt_cost * pi_prob * no_success;
  }
  for (ArcId e : pi) forced[e] = 0;
  return term;
}

/// Exact search over leaf *sets* rather than leaf orders (Held-Karp).
/// In the strategy FromLeafOrder builds, each arc on leaf l's root path
/// that no earlier leaf's path covers is attempted right before l, and
/// its AttemptTerm depends only on the *set* S of earlier leaves. So a
/// leaf order costs sum g(S, l) over its steps (plus the dead-end arcs,
/// the same for every order), and h(S) = min_l g(S, l) + h(S + l) is the
/// cheapest completion of S. Leaf sets are bit masks over `leaves`.
class LeafSetSearch {
 public:
  LeafSetSearch(const InferenceGraph& graph, const std::vector<double>& probs,
                std::vector<ArcId> leaves)
      : graph_(graph),
        probs_(probs),
        leaves_(std::move(leaves)),
        paths_(leaves_.size()),
        pi_(graph.num_arcs()),
        cover_(graph.num_arcs(), 0),
        in_s_(graph.num_arcs(), 0),
        forced_(graph.num_arcs(), 0),
        full_((uint32_t{1} << leaves_.size()) - 1),
        h_(size_t{full_} + 1, 0.0) {
    for (size_t i = 0; i < leaves_.size(); ++i) {
      paths_[i] = graph.Pi(leaves_[i]);
      paths_[i].push_back(leaves_[i]);
      for (ArcId a : paths_[i]) {
        if (cover_[a] == 0) pi_[a] = graph.Pi(a);
        cover_[a] |= uint32_t{1} << i;
      }
    }
    for (uint32_t set = full_; set-- > 0;) {
      for (size_t i = 0; i < leaves_.size(); ++i) {
        in_s_[leaves_[i]] = (set >> i) & 1;
      }
      double best = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < leaves_.size(); ++i) {
        if ((set >> i) & 1) continue;
        best = std::min(best, Step(set, i) + h_[set | (uint32_t{1} << i)]);
      }
      h_[set] = best;
    }
    for (ArcId l : leaves_) in_s_[l] = 0;
  }

  /// BruteForceOptimal's answer: the lexicographically first leaf order
  /// with the strictly lowest ExactExpectedCost. The DP's sums associate
  /// differently from ExactExpectedCost's, so its argmin alone could
  /// break a near-tie the other way. Instead, walk the orders in
  /// lexicographic order, follow only prefixes whose DP lower bound stays
  /// within a tolerance of the optimum h(empty set), and rank the
  /// complete orders by ExactExpectedCost itself. The tolerance only has
  /// to exceed the rounding of both sums (a few ulps per term over at
  /// most |A| non-negative terms); a larger one only adds candidates.
  OptimalResult Rank() {
    bound_ = h_[0] + 1e-9 * std::max(1.0, h_[0]);
    Visit(0, 0.0);
    STRATLEARN_CHECK(have_best_);
    return best_;
  }

 private:
  /// g(set, i): the cost leaf i's path adds after the leaves in `set`.
  /// `in_s_` must mark exactly `set`.
  double Step(uint32_t set, size_t i) {
    double g = 0.0;
    for (ArcId a : paths_[i]) {
      if (cover_[a] & set) continue;
      g += AttemptTerm(graph_, probs_, in_s_, forced_, pi_[a], a);
    }
    return g;
  }

  void Visit(uint32_t set, double prefix) {
    if (set == full_) {
      Strategy candidate = Strategy::FromLeafOrder(graph_, order_);
      double cost = ExactExpectedCost(graph_, candidate, probs_);
      if (!have_best_ || cost < best_.cost) {
        best_.strategy = std::move(candidate);
        best_.cost = cost;
        have_best_ = true;
      }
      return;
    }
    for (size_t i = 0; i < leaves_.size(); ++i) {
      uint32_t bit = uint32_t{1} << i;
      if (set & bit) continue;
      double cost = prefix + Step(set, i);
      if (cost + h_[set | bit] > bound_) continue;
      order_.push_back(leaves_[i]);
      in_s_[leaves_[i]] = 1;
      Visit(set | bit, cost);
      in_s_[leaves_[i]] = 0;
      order_.pop_back();
    }
  }

  const InferenceGraph& graph_;
  const std::vector<double>& probs_;
  std::vector<ArcId> leaves_;              // ascending
  std::vector<std::vector<ArcId>> paths_;  // Pi(l) then l, per leaf
  std::vector<std::vector<ArcId>> pi_;     // Pi(a), for arcs on a path
  std::vector<uint32_t> cover_;            // leaves whose path holds a
  std::vector<char> in_s_;
  std::vector<char> forced_;
  uint32_t full_;
  std::vector<double> h_;  // cheapest completion, per leaf set

  double bound_ = 0.0;
  std::vector<ArcId> order_;
  OptimalResult best_;
  bool have_best_ = false;
};

}  // namespace

bool IsLeafOnlyExperiments(const InferenceGraph& graph) {
  for (ArcId a : graph.experiments()) {
    if (!graph.node(graph.arc(a).to).is_success) return false;
  }
  return true;
}

double LeafOnlyExpectedCost(const InferenceGraph& graph,
                            const Strategy& strategy,
                            const std::vector<double>& probs) {
  STRATLEARN_CHECK_MSG(IsLeafOnlyExperiments(graph),
                       "LeafOnlyExpectedCost requires leaf-only experiments");
  STRATLEARN_CHECK(probs.size() == graph.num_experiments());
  double cost = 0.0;
  double no_success = 1.0;  // Pr[search still running]
  for (ArcId a : strategy.arcs()) {
    if (no_success == 0.0) break;
    double p = PassProb(graph, a, probs);
    cost += graph.arc(a).ExpectedAttemptCost(p) * no_success;
    int e = graph.arc(a).experiment;
    if (e >= 0) no_success *= 1.0 - probs[static_cast<size_t>(e)];
  }
  return cost;
}

double ExactExpectedCost(const InferenceGraph& graph, const Strategy& strategy,
                         const std::vector<double>& probs) {
  STRATLEARN_CHECK(probs.size() == graph.num_experiments());
  if (IsLeafOnlyExperiments(graph)) {
    return LeafOnlyExpectedCost(graph, strategy, probs);
  }

  std::vector<char> in_s(graph.num_arcs(), 0);
  std::vector<char> forced(graph.num_arcs(), 0);
  double cost = 0.0;
  for (ArcId a : strategy.arcs()) {
    cost += AttemptTerm(graph, probs, in_s, forced, graph.Pi(a), a);
    if (graph.node(graph.arc(a).to).is_success) in_s[a] = 1;
  }
  return cost;
}

double EnumeratedExpectedCost(const InferenceGraph& graph,
                              const Strategy& strategy,
                              const std::vector<double>& probs) {
  size_t n = graph.num_experiments();
  STRATLEARN_CHECK_MSG(n <= 20, "EnumeratedExpectedCost is a test oracle");
  STRATLEARN_CHECK(probs.size() == n);
  QueryProcessor qp(&graph);
  double expected = 0.0;
  for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
    double weight = 1.0;
    for (size_t i = 0; i < n && weight > 0.0; ++i) {
      weight *= ((mask >> i) & 1) ? probs[i] : 1.0 - probs[i];
    }
    if (weight == 0.0) continue;
    expected += weight * qp.Cost(strategy, Context::FromMask(n, mask));
  }
  return expected;
}

double MonteCarloExpectedCost(const InferenceGraph& graph,
                              const Strategy& strategy, ContextOracle& oracle,
                              int64_t samples, Rng& rng) {
  STRATLEARN_CHECK(samples > 0);
  QueryProcessor qp(&graph);
  double total = 0.0;
  for (int64_t i = 0; i < samples; ++i) {
    total += qp.Cost(strategy, oracle.Next(rng));
  }
  return total / static_cast<double>(samples);
}

Result<OptimalResult> BruteForceOptimal(const InferenceGraph& graph,
                                        const std::vector<double>& probs,
                                        size_t max_leaves) {
  std::vector<ArcId> leaves = graph.SuccessArcs();
  if (leaves.empty()) {
    return Status::InvalidArgument("graph has no success arcs");
  }
  if (leaves.size() > max_leaves) {
    return Status::InvalidArgument(
        StrFormat("brute force limited to %zu leaves; graph has %zu",
                  max_leaves, leaves.size()));
  }
  std::sort(leaves.begin(), leaves.end());
  OptimalResult best;
  bool have_best = false;
  do {
    Strategy candidate = Strategy::FromLeafOrder(graph, leaves);
    double cost = ExactExpectedCost(graph, candidate, probs);
    if (!have_best || cost < best.cost) {
      best.strategy = candidate;
      best.cost = cost;
      have_best = true;
    }
  } while (std::next_permutation(leaves.begin(), leaves.end()));
  return best;
}

Result<OptimalResult> SubsetDpOptimal(const InferenceGraph& graph,
                                      const std::vector<double>& probs) {
  std::vector<ArcId> leaves = graph.SuccessArcs();
  if (leaves.empty()) {
    return Status::InvalidArgument("graph has no success arcs");
  }
  if (leaves.size() > kMaxSubsetDpLeaves) {
    return Status::InvalidArgument(
        StrFormat("subset DP limited to %zu leaves; graph has %zu",
                  kMaxSubsetDpLeaves, leaves.size()));
  }
  std::sort(leaves.begin(), leaves.end());
  return LeafSetSearch(graph, probs, std::move(leaves)).Rank();
}

}  // namespace stratlearn
