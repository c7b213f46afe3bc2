#include "engine/adaptive_qp.h"

#include "stats/chernoff.h"
#include "util/check.h"

namespace stratlearn {

AdaptiveQueryProcessor::AdaptiveQueryProcessor(const InferenceGraph* graph,
                                               std::vector<int64_t> quotas,
                                               QuotaMode mode,
                                               obs::Observer* observer)
    : graph_(graph),
      processor_(graph),
      initial_quotas_(quotas),
      remaining_(std::move(quotas)),
      mode_(mode),
      counters_(graph->num_experiments()),
      aiming_(graph->num_experiments() + 1) {
  STRATLEARN_CHECK(remaining_.size() == graph_->num_experiments());
  set_observer(observer);
}

void AdaptiveQueryProcessor::set_observer(obs::Observer* observer) {
  observer_ = observer;
  processor_.set_observer(observer);
  handles_ = Handles{};
  if (observer_ == nullptr || observer_->metrics() == nullptr) return;
  obs::MetricsRegistry* r = observer_->metrics();
  handles_.contexts = &r->GetCounter("qpa.contexts");
  handles_.blocked_aims = &r->GetCounter("qpa.blocked_aims");
  handles_.quota_remaining = &r->GetGauge("qpa.quota_remaining");
}

void AdaptiveQueryProcessor::set_audit_params(double delta, double epsilon) {
  audit_delta_ = delta;
  audit_epsilon_ = epsilon;
}

int AdaptiveQueryProcessor::PickTarget() const {
  int best = -1;
  int64_t best_remaining = 0;
  for (size_t i = 0; i < remaining_.size(); ++i) {
    if (remaining_[i] > best_remaining) {
      best_remaining = remaining_[i];
      best = static_cast<int>(i);
    }
  }
  return best;
}

Strategy AdaptiveQueryProcessor::AimingStrategy(int target_experiment) const {
  if (target_experiment < 0) return Strategy::DepthFirst(*graph_);
  ArcId target_arc = graph_->experiments()[target_experiment];
  std::vector<ArcId> order = graph_->Pi(target_arc);
  order.push_back(target_arc);
  std::vector<char> included(graph_->num_arcs(), 0);
  for (ArcId a : order) included[a] = 1;
  Strategy depth_first = Strategy::DepthFirst(*graph_);
  for (ArcId a : depth_first.arcs()) {
    if (!included[a]) order.push_back(a);
  }
  Result<Strategy> strategy = Strategy::FromArcOrder(*graph_, std::move(order));
  STRATLEARN_CHECK_MSG(strategy.ok(), "aiming strategy must be valid");
  return *std::move(strategy);
}

const Strategy& AdaptiveQueryProcessor::CachedAimingStrategy(
    int target_experiment) {
  std::optional<Strategy>& slot =
      aiming_[static_cast<size_t>(target_experiment + 1)];
  if (!slot.has_value()) slot = AimingStrategy(target_experiment);
  return *slot;
}

AdaptiveQueryProcessor::StepResult AdaptiveQueryProcessor::Process(
    const Context& context) {
  ++contexts_processed_;
  StepResult result;
  result.aimed_experiment = PickTarget();
  const Strategy& strategy = CachedAimingStrategy(result.aimed_experiment);
  // Quota-transition detection for the audit layer: which experiments
  // still owed samples before this context ran.
  bool audit = observer_ != nullptr && observer_->audit_enabled() &&
               audit_delta_ > 0.0 && audit_delta_ < 1.0;
  if (audit) remaining_before_ = remaining_;
  result.trace = processor_.Execute(strategy, context);

  // Every attempted experiment yields a sample (and, having been reached,
  // an attempted reach as well). Attempts flagged as infrastructure
  // failures (retries exhausted, breaker open) are pessimistic
  // placeholders, not draws from the experiment's true distribution, so
  // they must not reduce the Equation 7/8 quotas.
  attempted_.assign(graph_->num_experiments(), 0);
  for (const ArcAttempt& at : result.trace.attempts) {
    int e = graph_->arc(at.arc).experiment;
    if (e < 0 || at.infra_failure) continue;
    attempted_[e] = 1;
    counters_[e].RecordAttempt(at.unblocked);
    --remaining_[e];
  }
  if (result.aimed_experiment >= 0) {
    result.reached = attempted_[result.aimed_experiment] != 0;
    if (!result.reached) {
      // Aimed but blocked en route: Definition 1's attempted reach.
      counters_[result.aimed_experiment].RecordBlockedAim();
      if (mode_ == QuotaMode::kReachAttempts) {
        --remaining_[result.aimed_experiment];
      }
      if (handles_.blocked_aims != nullptr) {
        handles_.blocked_aims->Increment();
      }
    }
  }
  if (observer_ != nullptr) {
    int64_t remaining_max = 0;
    int64_t remaining_total = 0;
    for (int64_t r : remaining_) {
      if (r > 0) {
        remaining_total += r;
        if (r > remaining_max) remaining_max = r;
      }
    }
    if (handles_.contexts != nullptr) {
      handles_.contexts->Increment();
      handles_.quota_remaining->Set(static_cast<double>(remaining_total));
    }
    if (obs::TraceSink* sink = observer_->sink()) {
      sink->OnQuotaProgress({observer_->NowUs(), contexts_processed_,
                             result.aimed_experiment, result.reached,
                             remaining_max, remaining_total});
      // One certificate per experiment whose quota this context
      // completed (remaining crossed from positive to <= 0), carrying
      // the per-experiment tail delta/(2n) the Equation 7/8 quota
      // formulas allocate and the measured p-hat the samples back.
      if (audit) {
        int64_t n = static_cast<int64_t>(remaining_.size());
        double delta_step = audit_delta_ / (2.0 * static_cast<double>(n));
        for (size_t e = 0; e < remaining_.size(); ++e) {
          if (remaining_before_[e] <= 0 || remaining_[e] > 0) continue;
          const ExperimentCounter& c = counters_[e];
          int64_t samples = mode_ == QuotaMode::kReachAttempts
                                ? c.reach_attempts()
                                : c.attempts();
          obs::DecisionCertificateEvent cert;
          cert.t_us = observer_->NowUs();
          cert.learner = "pao";
          cert.decision = "quota";
          cert.verdict = "met";
          cert.at_context = contexts_processed_;
          cert.samples = samples;
          cert.trials = 1;
          cert.subject = static_cast<int64_t>(e);
          cert.mean = c.SuccessFrequency();
          cert.delta_sum = static_cast<double>(samples);
          cert.threshold = static_cast<double>(initial_quotas_[e]);
          cert.margin = cert.delta_sum - cert.threshold;
          cert.range = 1.0;  // p-hat estimates live in [0, 1]
          cert.epsilon_n =
              samples > 0 && delta_step > 0.0 && delta_step < 1.0
                  ? HoeffdingDeviation(samples, delta_step, 1.0)
                  : 0.0;
          cert.delta_step = delta_step;
          cert.delta_budget = audit_delta_;
          audit_delta_spent_ += delta_step;
          cert.delta_spent_total = audit_delta_spent_;
          cert.bound_samples = initial_quotas_[e];
          cert.epsilon = audit_epsilon_;
          sink->OnDecisionCertificate(cert);
        }
      }
    }
  }
  return result;
}

bool AdaptiveQueryProcessor::QuotasMet() const {
  for (int64_t r : remaining_) {
    if (r > 0) return false;
  }
  return true;
}

AdaptiveQueryProcessor::Snapshot AdaptiveQueryProcessor::snapshot() const {
  Snapshot snap;
  snap.contexts = contexts_processed_;
  snap.quotas_met = QuotasMet();
  snap.experiments.reserve(counters_.size());
  for (size_t i = 0; i < counters_.size(); ++i) {
    Snapshot::Experiment e;
    e.quota = initial_quotas_[i];
    e.remaining = remaining_[i];
    e.attempts = counters_[i].attempts();
    e.successes = counters_[i].successes();
    e.blocked_aims = counters_[i].reach_attempts() - counters_[i].attempts();
    e.p_hat = counters_[i].SuccessFrequency();
    e.reach_hat = counters_[i].ReachFrequency();
    snap.experiments.push_back(e);
  }
  return snap;
}

AdaptiveQueryProcessor::Checkpoint AdaptiveQueryProcessor::GetCheckpoint()
    const {
  Checkpoint checkpoint;
  checkpoint.contexts = contexts_processed_;
  checkpoint.remaining = remaining_;
  checkpoint.counters.reserve(counters_.size());
  for (const ExperimentCounter& c : counters_) {
    checkpoint.counters.push_back(
        {c.attempts(), c.successes(),
         c.reach_attempts() - c.attempts()});
  }
  return checkpoint;
}

Status AdaptiveQueryProcessor::RestoreCheckpoint(
    const Checkpoint& checkpoint) {
  if (checkpoint.contexts < 0) {
    return Status::InvalidArgument("negative context counter");
  }
  if (checkpoint.remaining.size() != remaining_.size() ||
      checkpoint.counters.size() != counters_.size()) {
    return Status::InvalidArgument(
        "sampler checkpoint shape does not match the graph's experiments");
  }
  for (const Checkpoint::Counter& c : checkpoint.counters) {
    if (c.attempts < 0 || c.successes < 0 || c.successes > c.attempts ||
        c.blocked_aims < 0) {
      return Status::InvalidArgument("inconsistent experiment counters");
    }
  }
  contexts_processed_ = checkpoint.contexts;
  remaining_ = checkpoint.remaining;
  for (size_t i = 0; i < counters_.size(); ++i) {
    const Checkpoint::Counter& c = checkpoint.counters[i];
    counters_[i].Restore(c.attempts, c.successes, c.blocked_aims);
  }
  return Status::OK();
}

std::vector<double> AdaptiveQueryProcessor::SuccessFrequencies(
    double fallback) const {
  std::vector<double> p;
  p.reserve(counters_.size());
  for (const ExperimentCounter& c : counters_) {
    p.push_back(c.SuccessFrequency(fallback));
  }
  return p;
}

}  // namespace stratlearn
