#include "core/delta_estimator.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace stratlearn {

namespace {

/// reached_at / attempted_at value of a node or arc the walk never got to.
constexpr uint32_t kUnreached = std::numeric_limits<uint32_t>::max();
/// Stop position of a walk that never reached a success node.
constexpr size_t kNoStop = std::numeric_limits<size_t>::max();

}  // namespace

size_t DivergencePosition(const Strategy& base, const Strategy& alternative) {
  const std::vector<ArcId>& a = base.arcs();
  const std::vector<ArcId>& b = alternative.arcs();
  size_t n = std::min(a.size(), b.size());
  size_t p = 0;
  while (p < n && a[p] == b[p]) ++p;
  return p;
}

uint32_t DeltaEstimator::Workspace::NextEpoch() {
  if (++epoch_ == 0) {
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 1;
  }
  return epoch_;
}

DeltaEstimator::DeltaEstimator(const InferenceGraph* graph)
    : graph_(graph), processor_(graph), success_arcs_(graph->SuccessArcs()) {
  const size_t num_arcs = graph_->num_arcs();
  shape_.reserve(num_arcs);
  unobserved_pass_under_.reserve(num_arcs);
  unobserved_charge_max_.reserve(num_arcs);
  unobserved_pass_over_.reserve(num_arcs);
  unobserved_charge_min_.reserve(num_arcs);
  for (ArcId a = 0; a < num_arcs; ++a) {
    const Arc& arc = graph_->arc(a);
    bool to_success = graph_->node(arc.to).is_success;
    shape_.push_back({arc.from, arc.to, graph_->node(arc.from).incoming,
                      arc.experiment, to_success,
                      arc.cost + arc.success_cost,
                      arc.cost + arc.failure_cost});
    if (arc.experiment < 0) {
      // Deterministic arcs always pass at their success cost.
      unobserved_pass_under_.push_back(1);
      unobserved_charge_max_.push_back(arc.cost + arc.success_cost);
      unobserved_pass_over_.push_back(1);
      unobserved_charge_min_.push_back(arc.cost + arc.success_cost);
      continue;
    }
    // The pessimistic completion J blocks unobserved success arcs
    // (Theta' cannot succeed anywhere Theta did not verify), unblocks
    // unobserved internal experiments (Theta' pays their subtrees) and
    // charges unobserved arcs their maximum attempt cost:
    // c_max(Theta', J) >= c(Theta', I_true), hence Delta~ <= Delta.
    unobserved_pass_under_.push_back(to_success ? 0 : 1);
    unobserved_charge_max_.push_back(
        arc.cost + std::max(arc.success_cost, arc.failure_cost));
    // OverEstimate's base completion blocks every unobserved experiment
    // and charges it its minimum attempt cost.
    unobserved_pass_over_.push_back(0);
    unobserved_charge_min_.push_back(
        arc.cost + std::min(arc.success_cost, arc.failure_cost));
  }
}

double DeltaEstimator::ExactDelta(const Strategy& strategy,
                                  const Strategy& alternative,
                                  const Context& context) const {
  return processor_.Cost(strategy, context) -
         processor_.Cost(alternative, context);
}

double DeltaEstimator::RecordedWalk(const Strategy& strategy,
                                    const double* charge, const char* pass,
                                    double* prefix, uint32_t* reached_at,
                                    uint32_t* attempted_at,
                                    size_t* stop) const {
  const std::vector<ArcId>& arcs = strategy.arcs();
  double cost = 0.0;
  *stop = kNoStop;
  for (size_t p = 0; p < arcs.size(); ++p) {
    prefix[p] = cost;
    ArcId a = arcs[p];
    const ArcShape& arc = shape_[a];
    if (reached_at[arc.from] == kUnreached) continue;
    if (attempted_at != nullptr) attempted_at[a] = static_cast<uint32_t>(p + 1);
    cost += charge[a];
    if (!pass[a]) continue;
    reached_at[arc.to] = static_cast<uint32_t>(p + 1);
    if (arc.to_success) {
      *stop = p;
      return cost;
    }
  }
  prefix[arcs.size()] = cost;
  return cost;
}

double DeltaEstimator::ResumedWalk(const Strategy& strategy, size_t begin,
                                   double cost, const double* charge,
                                   const char* pass,
                                   const uint32_t* reached_at,
                                   Workspace* workspace) const {
  const std::vector<ArcId>& arcs = strategy.arcs();
  uint32_t* stamp = workspace->stamp_.data();
  const uint32_t epoch = workspace->NextEpoch();
  for (size_t p = begin; p < arcs.size(); ++p) {
    ArcId a = arcs[p];
    const ArcShape& arc = shape_[a];
    if (reached_at[arc.from] > begin && stamp[arc.from] != epoch) continue;
    cost += charge[a];
    if (!pass[a]) continue;
    stamp[arc.to] = epoch;
    if (arc.to_success) break;
  }
  return cost;
}

void DeltaEstimator::Prepare(const Trace& trace, const Strategy& base,
                             Workspace* workspace) const {
  Workspace& ws = *workspace;
  const size_t num_nodes = graph_->num_nodes();

  // J: observed experiments keep their outcome and its cost; the rest
  // keep their unobserved completion.
  ws.observed_.assign(graph_->num_experiments(), 0);
  ws.outcome_.assign(graph_->num_experiments(), 0);
  ws.pass_under_ = unobserved_pass_under_;
  ws.charge_max_ = unobserved_charge_max_;
  for (const ArcAttempt& at : trace.attempts) {
    STRATLEARN_CHECK(at.arc < shape_.size());
    const ArcShape& arc = shape_[at.arc];
    if (arc.experiment < 0) continue;
    size_t e = static_cast<size_t>(arc.experiment);
    ws.observed_[e] = 1;
    ws.outcome_[e] = at.unblocked ? 1 : 0;
    ws.pass_under_[at.arc] = at.unblocked ? 1 : 0;
    ws.charge_max_[at.arc] =
        at.unblocked ? arc.charge_unblocked : arc.charge_blocked;
  }
  ws.over_ready_ = false;

  // Theta's walk under J, recorded for the neighbours to resume.
  if (ws.stamp_.size() != num_nodes) {
    ws.stamp_.assign(num_nodes, 0);
    ws.epoch_ = 0;
  }
  ws.reached_at_.assign(num_nodes, kUnreached);
  ws.reached_at_[graph_->root()] = 0;
  ws.prefix_cost_.resize(base.size() + 1);
  ws.base_cost_ = RecordedWalk(base, ws.charge_max_.data(),
                               ws.pass_under_.data(), ws.prefix_cost_.data(),
                               ws.reached_at_.data(), nullptr, &ws.stop_);
  ws.trace_cost_ = trace.cost;
}

double DeltaEstimator::UnderEstimate(const Strategy& alternative,
                                     size_t diverge,
                                     Workspace* workspace) const {
  Workspace& ws = *workspace;
  STRATLEARN_CHECK(diverge < ws.prefix_cost_.size());
  // Theta stopped at a success before Theta' departs from it, so Theta'
  // repeats Theta's walk addition for addition.
  if (ws.stop_ < diverge) return ws.trace_cost_ - ws.base_cost_;
  return ws.trace_cost_ -
         ResumedWalk(alternative, diverge, ws.prefix_cost_[diverge],
                     ws.charge_max_.data(), ws.pass_under_.data(),
                     ws.reached_at_.data(), workspace);
}

double DeltaEstimator::OverEstimate(const Strategy& alternative,
                                    Workspace* workspace) const {
  // Optimistic bound: a lower bound on c(Theta', I_true), minimised over
  // the "single favoured success path" family of consistent completions.
  // For each success arc s not observed blocked, complete with s's whole
  // root path unblocked and every other unobserved experiment blocked
  // (suppressing all other subtree costs); also consider the all-blocked
  // completion. Unobserved arcs are charged their minimum attempt cost.
  // Every consistent context's Theta' execution pays at least the
  // cheapest of these (see delta_estimator_test's exhaustive check).
  Workspace& ws = *workspace;
  STRATLEARN_CHECK(ws.stamp_.size() == graph_->num_nodes());  // prepared
  if (!ws.over_ready_) {
    // Observed arcs pass and cost exactly as under J.
    ws.pass_over_ = unobserved_pass_over_;
    ws.charge_min_ = unobserved_charge_min_;
    for (size_t e = 0; e < ws.observed_.size(); ++e) {
      if (!ws.observed_[e]) continue;
      ArcId a = graph_->experiments()[e];
      ws.pass_over_[a] = ws.pass_under_[a];
      ws.charge_min_[a] = ws.charge_max_[a];
    }
    ws.over_ready_ = true;
  }
  const double* charge = ws.charge_min_.data();
  char* pass = ws.pass_over_.data();
  ws.over_prefix_.resize(alternative.size() + 1);
  ws.over_reached_at_.assign(graph_->num_nodes(), kUnreached);
  ws.over_reached_at_[graph_->root()] = 0;
  ws.over_attempted_at_.assign(shape_.size(), kUnreached);
  size_t stop = kNoStop;
  // All-unobserved-blocked completion.
  double best = RecordedWalk(alternative, charge, pass,
                             ws.over_prefix_.data(),
                             ws.over_reached_at_.data(),
                             ws.over_attempted_at_.data(), &stop);

  for (ArcId s : success_arcs_) {
    // The completion is inconsistent when an arc on s's root path (or s
    // itself) was observed blocked. It differs from the all-blocked one
    // only below the top-most unobserved experiment on the path, so its
    // walk matches the recorded one up to where that arc is attempted —
    // and everywhere when the path has no unobserved experiment or the
    // recorded walk never attempts it.
    bool consistent = true;
    ArcId top = kInvalidArc;
    for (ArcId a = s; a != kInvalidArc; a = shape_[a].parent) {
      int e = shape_[a].experiment;
      if (e < 0) continue;
      if (!ws.observed_[static_cast<size_t>(e)]) {
        top = a;
      } else if (!ws.outcome_[static_cast<size_t>(e)]) {
        consistent = false;
        break;
      }
    }
    if (!consistent || top == kInvalidArc ||
        ws.over_attempted_at_[top] == kUnreached) {
      continue;
    }
    auto force_path = [&](char value) {
      for (ArcId a = s; a != kInvalidArc; a = shape_[a].parent) {
        int e = shape_[a].experiment;
        if (e >= 0 && !ws.observed_[static_cast<size_t>(e)]) pass[a] = value;
      }
    };
    size_t begin = ws.over_attempted_at_[top] - 1;
    force_path(1);
    best = std::min(best, ResumedWalk(alternative, begin,
                                      ws.over_prefix_[begin], charge, pass,
                                      ws.over_reached_at_.data(), workspace));
    force_path(0);
  }
  return ws.trace_cost_ - best;
}

// The one-shot forms run the same kernel from position 0. Their scratch
// is per thread, so repeated calls allocate nothing and the estimator
// stays safe to share.
double DeltaEstimator::UnderEstimate(const Trace& trace,
                                     const Strategy& alternative) const {
  thread_local Workspace workspace;
  Prepare(trace, Strategy(), &workspace);
  return UnderEstimate(alternative, 0, &workspace);
}

double DeltaEstimator::OverEstimate(const Trace& trace,
                                    const Strategy& alternative) const {
  thread_local Workspace workspace;
  Prepare(trace, Strategy(), &workspace);
  return OverEstimate(alternative, &workspace);
}

}  // namespace stratlearn
