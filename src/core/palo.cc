#include "core/palo.h"

#include "stats/chernoff.h"
#include "stats/sequential.h"
#include "util/check.h"

namespace stratlearn {

Palo::Palo(const InferenceGraph* graph, Strategy initial, Options options,
           obs::Observer* observer)
    : graph_(graph),
      estimator_(graph),
      current_(std::move(initial)),
      options_(options) {
  STRATLEARN_CHECK(options_.delta > 0.0 && options_.delta < 1.0);
  STRATLEARN_CHECK(options_.epsilon > 0.0);
  STRATLEARN_CHECK(options_.test_every >= 1);
  RebuildNeighborhood();
  set_observer(observer);
}

void Palo::set_observer(obs::Observer* observer) {
  observer_ = observer;
  handles_ = Handles{};
  if (observer_ == nullptr || observer_->metrics() == nullptr) return;
  obs::MetricsRegistry* r = observer_->metrics();
  handles_.contexts = &r->GetCounter("palo.contexts");
  handles_.moves = &r->GetCounter("palo.moves");
  handles_.stops = &r->GetCounter("palo.stops");
}

void Palo::RebuildNeighborhood() {
  neighbors_.clear();
  for (const SiblingSwap& swap : AllSiblingSwaps(*graph_)) {
    Neighbor n;
    n.swap = swap;
    n.strategy = ApplySwap(*graph_, current_, swap);
    if (n.strategy == current_) continue;
    n.diverge = DivergencePosition(current_, n.strategy);
    n.range = SwapRange(*graph_, current_, swap);
    neighbors_.push_back(std::move(n));
  }
  samples_ = 0;
  if (neighbors_.empty()) finished_ = true;  // nothing to improve
}

bool Palo::CheckStop(double* worst_certificate, size_t* worst_neighbor,
                     double* delta_i) {
  *worst_certificate = 0.0;
  *worst_neighbor = neighbors_.size();
  // delta/2 budget for stopping, spread over the sequential schedule and
  // the |T| simultaneous neighbours.
  *delta_i =
      SequentialDelta(std::max<int64_t>(1, trials_), options_.delta / 2.0) /
      static_cast<double>(std::max<size_t>(1, neighbors_.size()));
  if (*delta_i <= 0.0 || *delta_i >= 1.0) *delta_i = options_.delta / 2.0;
  if (samples_ == 0) return false;
  for (size_t j = 0; j < neighbors_.size(); ++j) {
    const Neighbor& n = neighbors_[j];
    double mean_over = n.over_sum / static_cast<double>(samples_);
    double dev = HoeffdingDeviation(samples_, *delta_i, n.range);
    if (*worst_neighbor == neighbors_.size() ||
        mean_over + dev > *worst_certificate) {
      *worst_certificate = mean_over + dev;
      *worst_neighbor = j;
    }
    if (mean_over + dev > options_.epsilon) return false;
  }
  return true;
}

Palo::Checkpoint Palo::GetCheckpoint() const {
  Checkpoint checkpoint;
  checkpoint.strategy = current_;
  checkpoint.contexts = contexts_;
  checkpoint.trials = trials_;
  checkpoint.samples = samples_;
  checkpoint.moves = moves_;
  checkpoint.finished = finished_;
  checkpoint.neighbor_under_sums.reserve(neighbors_.size());
  checkpoint.neighbor_over_sums.reserve(neighbors_.size());
  for (const Neighbor& n : neighbors_) {
    checkpoint.neighbor_under_sums.push_back(n.under_sum);
    checkpoint.neighbor_over_sums.push_back(n.over_sum);
  }
  return checkpoint;
}

Status Palo::RestoreCheckpoint(const Checkpoint& checkpoint) {
  if (checkpoint.contexts < 0 || checkpoint.trials < 0 ||
      checkpoint.samples < 0 || checkpoint.samples > checkpoint.contexts ||
      checkpoint.moves < 0) {
    return Status::InvalidArgument("inconsistent learner counters");
  }
  if (checkpoint.strategy.size() != graph_->num_arcs()) {
    return Status::InvalidArgument(
        "checkpointed strategy does not cover the graph's arcs");
  }
  if (checkpoint.neighbor_under_sums.size() !=
      checkpoint.neighbor_over_sums.size()) {
    return Status::InvalidArgument("estimate ledgers differ in length");
  }
  Strategy prior = std::move(current_);
  bool prior_finished = finished_;
  current_ = checkpoint.strategy;
  finished_ = false;
  RebuildNeighborhood();
  if (neighbors_.size() != checkpoint.neighbor_under_sums.size()) {
    current_ = std::move(prior);
    finished_ = prior_finished;
    RebuildNeighborhood();
    return Status::InvalidArgument(
        "checkpoint carries a different neighbourhood size than the "
        "strategy induces");
  }
  for (size_t j = 0; j < neighbors_.size(); ++j) {
    neighbors_[j].under_sum = checkpoint.neighbor_under_sums[j];
    neighbors_[j].over_sum = checkpoint.neighbor_over_sums[j];
  }
  contexts_ = checkpoint.contexts;
  trials_ = checkpoint.trials;
  samples_ = checkpoint.samples;
  moves_ = checkpoint.moves;
  finished_ = finished_ || checkpoint.finished;
  return Status::OK();
}

bool Palo::Observe(const Trace& trace) {
  if (finished_) return false;
  ++contexts_;
  ++samples_;
  trials_ += static_cast<int64_t>(neighbors_.size());
  estimator_.Prepare(trace, current_, &workspace_);
  for (Neighbor& n : neighbors_) {
    n.under_sum += estimator_.UnderEstimate(n.strategy, n.diverge,
                                            &workspace_);
    n.over_sum += estimator_.OverEstimate(n.strategy, &workspace_);
  }
  if (handles_.contexts != nullptr) handles_.contexts->Increment();
  if (contexts_ % options_.test_every != 0) return false;

  // Climb exactly like PIB, at confidence delta/2.
  double scale = SequentialThresholdScale(
      samples_, std::max<int64_t>(1, trials_), options_.delta / 2.0);
  for (size_t j = 0; j < neighbors_.size(); ++j) {
    const Neighbor& n = neighbors_[j];
    STRATLEARN_CHECK(n.range > 0.0);
    double threshold = n.range * scale;
    if (n.under_sum > 0.0 && n.under_sum >= threshold) {
      ++moves_;
      if (handles_.moves != nullptr) handles_.moves->Increment();
      if (observer_ != nullptr) {
        double delta_step = SequentialDelta(std::max<int64_t>(1, trials_),
                                            options_.delta / 2.0);
        if (obs::TraceSink* sink = observer_->sink()) {
          obs::ClimbMoveEvent event;
          event.t_us = observer_->NowUs();
          event.learner = "palo";
          event.move_index = moves_ - 1;
          event.at_context = contexts_;
          event.samples_used = samples_;
          event.swap = n.swap.ToString(*graph_);
          event.delta_sum = n.under_sum;
          event.threshold = threshold;
          event.margin = n.under_sum - threshold;
          event.delta_spent = delta_step;
          sink->OnClimbMove(event);
        }
        if (observer_->audit_enabled()) {
          audit_delta_spent_ += delta_step;
          if (obs::TraceSink* sink = observer_->sink()) {
            obs::DecisionCertificateEvent e;
            e.t_us = observer_->NowUs();
            e.learner = "palo";
            e.decision = "climb";
            e.verdict = "commit";
            e.at_context = contexts_;
            e.samples = samples_;
            e.trials = trials_;
            e.subject = static_cast<int64_t>(j);
            e.mean = n.under_sum / static_cast<double>(samples_);
            e.delta_sum = n.under_sum;
            e.threshold = threshold;
            e.margin = n.under_sum - threshold;
            e.range = n.range;
            e.epsilon_n =
                n.range > 0.0
                    ? HoeffdingDeviation(samples_, delta_step, n.range)
                    : 0.0;
            e.delta_step = delta_step;
            e.delta_budget = options_.delta;
            e.delta_spent_total = audit_delta_spent_;
            e.bound_samples =
                e.mean > 0.0 && n.range > 0.0
                    ? SampleSizeForDeviation(e.mean, delta_step, n.range)
                    : 0;
            e.epsilon = options_.epsilon;
            sink->OnDecisionCertificate(e);
          }
        }
      }
      current_ = n.strategy;
      RebuildNeighborhood();
      return true;
    }
  }
  double worst_certificate = 0.0;
  size_t worst_neighbor = neighbors_.size();
  double stop_delta_i = 0.0;
  if (CheckStop(&worst_certificate, &worst_neighbor, &stop_delta_i)) {
    finished_ = true;
    if (handles_.stops != nullptr) handles_.stops->Increment();
    if (observer_ != nullptr) {
      if (obs::TraceSink* sink = observer_->sink()) {
        sink->OnPaloStop({observer_->NowUs(), contexts_, moves_,
                          options_.epsilon, worst_certificate});
      }
      if (observer_->audit_enabled() && worst_neighbor < neighbors_.size()) {
        audit_delta_spent_ += stop_delta_i;
        if (obs::TraceSink* sink = observer_->sink()) {
          const Neighbor& worst = neighbors_[worst_neighbor];
          obs::DecisionCertificateEvent e;
          e.t_us = observer_->NowUs();
          e.learner = "palo";
          e.decision = "stop";
          e.verdict = "stop";
          e.at_context = contexts_;
          e.samples = samples_;
          e.trials = trials_;
          e.subject = static_cast<int64_t>(worst_neighbor);
          e.mean = worst.over_sum / static_cast<double>(samples_);
          // For the stop test the statistic must stay *below* the
          // threshold (epsilon), so the margin is negative on success.
          e.delta_sum = worst_certificate;
          e.threshold = options_.epsilon;
          e.margin = worst_certificate - options_.epsilon;
          e.range = worst.range;
          e.epsilon_n =
              worst.range > 0.0
                  ? HoeffdingDeviation(samples_, stop_delta_i, worst.range)
                  : 0.0;
          e.delta_step = stop_delta_i;
          e.delta_budget = options_.delta;
          e.delta_spent_total = audit_delta_spent_;
          e.bound_samples =
              worst.range > 0.0
                  ? SampleSizeForDeviation(options_.epsilon, stop_delta_i,
                                           worst.range)
                  : 0;
          e.epsilon = options_.epsilon;
          sink->OnDecisionCertificate(e);
        }
      }
    }
  }
  return false;
}

}  // namespace stratlearn
