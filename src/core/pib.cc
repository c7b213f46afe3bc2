#include "core/pib.h"

#include <algorithm>

#include "stats/chernoff.h"
#include "stats/sequential.h"
#include "util/check.h"

namespace stratlearn {

Pib::Pib(const InferenceGraph* graph, Strategy initial, Options options,
         obs::Observer* observer)
    : Pib(graph, std::move(initial), AllSiblingSwaps(*graph), options,
          observer) {}

Pib::Pib(const InferenceGraph* graph, Strategy initial,
         std::vector<SiblingSwap> transformations, Options options,
         obs::Observer* observer)
    : graph_(graph),
      estimator_(graph),
      current_(std::move(initial)),
      transformations_(std::move(transformations)),
      options_(options) {
  STRATLEARN_CHECK(options_.delta > 0.0 && options_.delta < 1.0);
  STRATLEARN_CHECK(options_.test_every >= 1);
  RebuildNeighborhood();
  set_observer(observer);
}

void Pib::set_observer(obs::Observer* observer) {
  observer_ = observer;
  handles_ = Handles{};
  if (observer_ == nullptr || observer_->metrics() == nullptr) return;
  obs::MetricsRegistry* r = observer_->metrics();
  handles_.contexts = &r->GetCounter("pib.contexts");
  handles_.trials = &r->GetCounter("pib.trials");
  handles_.tests = &r->GetCounter("pib.tests");
  handles_.moves = &r->GetCounter("pib.moves");
}

void Pib::RebuildNeighborhood() {
  neighbors_.clear();
  neighbors_.reserve(transformations_.size());
  for (const SiblingSwap& swap : transformations_) {
    Neighbor n;
    n.swap = swap;
    n.strategy = ApplySwap(*graph_, current_, swap);
    if (n.strategy == current_) continue;  // no-op swap (e.g. dead ends)
    n.diverge = DivergencePosition(current_, n.strategy);
    n.range = SwapRange(*graph_, current_, swap);
    neighbors_.push_back(std::move(n));
  }
  samples_ = 0;
}

double Pib::ThresholdFor(size_t neighbor) const {
  STRATLEARN_CHECK(neighbor < neighbors_.size());
  if (samples_ == 0 || trials_ == 0) return 0.0;
  return SequentialSumThreshold(samples_, trials_, options_.delta,
                                neighbors_[neighbor].range);
}

double Pib::DeltaSumFor(size_t neighbor) const {
  STRATLEARN_CHECK(neighbor < neighbors_.size());
  return neighbors_[neighbor].delta_sum;
}

PibSnapshot Pib::Snapshot() const {
  PibSnapshot snap;
  snap.contexts = contexts_;
  snap.trials = trials_;
  snap.samples_in_epoch = samples_;
  snap.delta = options_.delta;
  snap.current_test_delta =
      trials_ > 0 ? SequentialDelta(trials_, options_.delta) : 0.0;
  snap.neighbors.reserve(neighbors_.size());
  for (size_t j = 0; j < neighbors_.size(); ++j) {
    const Neighbor& n = neighbors_[j];
    PibSnapshot::Neighbor view;
    view.swap = n.swap.ToString(*graph_);
    view.delta_sum = n.delta_sum;
    view.threshold = ThresholdFor(j);
    view.margin = n.delta_sum - view.threshold;
    view.range = n.range;
    snap.neighbors.push_back(std::move(view));
  }
  snap.moves.reserve(moves_.size());
  for (const Move& m : moves_) {
    PibSnapshot::Move view;
    view.at_context = m.at_context;
    view.samples_used = m.samples_used;
    view.swap = m.swap.ToString(*graph_);
    view.delta_sum = m.delta_sum;
    view.threshold = m.threshold;
    view.delta_spent = m.delta_spent;
    snap.delta_spent_moves += m.delta_spent;
    snap.moves.push_back(std::move(view));
  }
  return snap;
}

Pib::Checkpoint Pib::GetCheckpoint() const {
  Checkpoint checkpoint;
  checkpoint.strategy = current_;
  checkpoint.contexts = contexts_;
  checkpoint.trials = trials_;
  checkpoint.samples = samples_;
  checkpoint.neighbor_delta_sums.reserve(neighbors_.size());
  for (const Neighbor& n : neighbors_) {
    checkpoint.neighbor_delta_sums.push_back(n.delta_sum);
  }
  checkpoint.moves = moves_;
  checkpoint.audit_delta_spent = audit_delta_spent_;
  checkpoint.audit_rounds = audit_rounds_;
  return checkpoint;
}

Status Pib::RestoreCheckpoint(const Checkpoint& checkpoint) {
  if (checkpoint.contexts < 0 || checkpoint.trials < 0 ||
      checkpoint.samples < 0 || checkpoint.samples > checkpoint.contexts) {
    return Status::InvalidArgument("inconsistent learner counters");
  }
  if (checkpoint.audit_delta_spent < 0.0 || checkpoint.audit_rounds < 0) {
    return Status::InvalidArgument("inconsistent audit ledger");
  }
  if (checkpoint.strategy.size() != graph_->num_arcs()) {
    return Status::InvalidArgument(
        "checkpointed strategy does not cover the graph's arcs");
  }
  // Rebuild the neighbourhood of the checkpointed strategy *first*: its
  // size tells us whether the Delta~ sums line up, and the rebuild zeroes
  // samples_, which we then restore.
  Strategy prior = std::move(current_);
  current_ = checkpoint.strategy;
  RebuildNeighborhood();
  if (neighbors_.size() != checkpoint.neighbor_delta_sums.size()) {
    current_ = std::move(prior);
    RebuildNeighborhood();
    return Status::InvalidArgument(
        "checkpoint carries a different neighbourhood size than the "
        "strategy induces");
  }
  for (size_t j = 0; j < neighbors_.size(); ++j) {
    neighbors_[j].delta_sum = checkpoint.neighbor_delta_sums[j];
  }
  contexts_ = checkpoint.contexts;
  trials_ = checkpoint.trials;
  samples_ = checkpoint.samples;
  moves_ = checkpoint.moves;
  audit_delta_spent_ = checkpoint.audit_delta_spent;
  audit_rounds_ = checkpoint.audit_rounds;
  return Status::OK();
}

void Pib::Rebaseline(double trials_factor) {
  STRATLEARN_CHECK(trials_factor > 0.0 && trials_factor <= 1.0);
  // Every sum is dropped, not just the epoch's samples: a pre-drift sum
  // left standing would cross the (now smaller) rewound threshold on
  // stale evidence.
  for (Neighbor& n : neighbors_) n.delta_sum = 0.0;
  samples_ = 0;
  trials_ = std::max<int64_t>(
      1, static_cast<int64_t>(static_cast<double>(trials_) * trials_factor));
}

int64_t Pib::RestartScoped(ArcId arc) {
  auto touches = [&](ArcId root) {
    for (ArcId sub : graph_->SubtreeArcs(root)) {
      if (sub == arc) return true;
    }
    return false;
  };
  int64_t reset = 0;
  for (Neighbor& n : neighbors_) {
    if (!touches(n.swap.arc_a) && !touches(n.swap.arc_b)) continue;
    n.delta_sum = 0.0;
    ++reset;
  }
  return reset;
}

obs::DecisionCertificateEvent Pib::MakeAuditCertificate(size_t neighbor,
                                                        const char* verdict,
                                                        double threshold) {
  const Neighbor& n = neighbors_[neighbor];
  double delta_step =
      SequentialDelta(std::max<int64_t>(1, trials_), options_.delta);
  audit_delta_spent_ += delta_step;
  obs::DecisionCertificateEvent e;
  e.t_us = observer_->NowUs();
  e.learner = "pib";
  e.decision = "climb";
  e.verdict = verdict;
  e.at_context = contexts_;
  e.samples = samples_;
  e.trials = trials_;
  e.subject = static_cast<int64_t>(neighbor);
  e.mean = samples_ > 0 ? n.delta_sum / static_cast<double>(samples_) : 0.0;
  e.delta_sum = n.delta_sum;
  e.threshold = threshold;
  e.margin = n.delta_sum - threshold;
  e.range = n.range;
  e.epsilon_n = samples_ > 0 && n.range > 0.0
                    ? HoeffdingDeviation(samples_, delta_step, n.range)
                    : 0.0;
  e.delta_step = delta_step;
  e.delta_budget = options_.delta;
  e.delta_spent_total = audit_delta_spent_;
  e.bound_samples =
      e.mean > 0.0 && n.range > 0.0
          ? SampleSizeForDeviation(e.mean, delta_step, n.range)
          : 0;
  return e;
}

bool Pib::Observe(const Trace& trace) {
  ++contexts_;
  ++samples_;
  trials_ += static_cast<int64_t>(neighbors_.size());
  // The pessimistic completion and current_'s walk under it are shared
  // by every neighbour; each neighbour only walks from its divergence.
  estimator_.Prepare(trace, current_, &workspace_);
  for (Neighbor& n : neighbors_) {
    n.delta_sum += estimator_.UnderEstimate(n.strategy, n.diverge,
                                            &workspace_);
  }
  if (handles_.contexts != nullptr) {
    handles_.contexts->Increment();
    handles_.trials->Increment(static_cast<int64_t>(neighbors_.size()));
  }
  if (contexts_ % options_.test_every != 0) return false;

  // One test round: the first neighbour (in T order) whose sum crosses
  // its Equation-6 threshold wins; the largest-margin neighbour is
  // reported either way so traces show how close the round came.
  // Equation 6's threshold is range * scale, with one scale per round.
  size_t fired = neighbors_.size();
  size_t best = neighbors_.size();
  double best_margin = 0.0;
  double fired_threshold = 0.0;
  double scale = trials_ > 0 ? SequentialThresholdScale(
                                   samples_, trials_, options_.delta)
                             : 0.0;
  for (size_t j = 0; j < neighbors_.size(); ++j) {
    const Neighbor& n = neighbors_[j];
    STRATLEARN_CHECK(n.range > 0.0);
    double threshold = n.range * scale;
    double margin = n.delta_sum - threshold;
    if (best == neighbors_.size() || margin > best_margin) {
      best = j;
      best_margin = margin;
    }
    if (fired == neighbors_.size() && n.delta_sum > 0.0 &&
        n.delta_sum >= threshold) {
      fired = j;
      fired_threshold = threshold;
    }
  }
  if (handles_.tests != nullptr && !neighbors_.empty()) {
    handles_.tests->Increment();
  }
  if (observer_ != nullptr && !neighbors_.empty()) {
    if (obs::TraceSink* sink = observer_->sink()) {
      sink->OnSequentialTest({observer_->NowUs(), "pib", contexts_, samples_,
                              trials_, static_cast<int64_t>(best),
                              neighbors_[best].delta_sum,
                              ThresholdFor(best),
                              fired != neighbors_.size()});
    }
  }
  if (fired == neighbors_.size()) {
    // Certify the reject: the best neighbour did not cross its
    // threshold this round. Rejects are the high-volume certificate,
    // so they honour the observer's audit_every subsampling cadence.
    if (observer_ != nullptr && observer_->audit_enabled() &&
        !neighbors_.empty()) {
      ++audit_rounds_;
      if ((audit_rounds_ - 1) % observer_->audit_every() == 0) {
        if (obs::TraceSink* sink = observer_->sink()) {
          sink->OnDecisionCertificate(
              MakeAuditCertificate(best, "reject", ThresholdFor(best)));
        }
      }
    }
    return false;
  }

  const Neighbor& n = neighbors_[fired];
  Move move;
  move.at_context = contexts_;
  move.samples_used = samples_;
  move.swap = n.swap;
  move.delta_sum = n.delta_sum;
  move.threshold = fired_threshold;
  move.delta_spent = SequentialDelta(trials_, options_.delta);
  moves_.push_back(move);
  if (handles_.moves != nullptr) handles_.moves->Increment();
  if (observer_ != nullptr) {
    if (obs::TraceSink* sink = observer_->sink()) {
      obs::ClimbMoveEvent event;
      event.t_us = observer_->NowUs();
      event.learner = "pib";
      event.move_index = static_cast<int64_t>(moves_.size()) - 1;
      event.at_context = contexts_;
      event.samples_used = samples_;
      event.swap = n.swap.ToString(*graph_);
      event.delta_sum = n.delta_sum;
      event.threshold = fired_threshold;
      event.margin = n.delta_sum - fired_threshold;
      event.delta_spent = move.delta_spent;
      sink->OnClimbMove(event);
    }
    if (observer_->audit_enabled()) {
      ++audit_rounds_;
      if (obs::TraceSink* sink = observer_->sink()) {
        sink->OnDecisionCertificate(
            MakeAuditCertificate(fired, "commit", fired_threshold));
      }
    }
  }
  current_ = n.strategy;
  RebuildNeighborhood();
  return true;
}

}  // namespace stratlearn
