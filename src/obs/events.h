#ifndef STRATLEARN_OBS_EVENTS_H_
#define STRATLEARN_OBS_EVENTS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>

namespace stratlearn::obs {

/// Structured runtime events. Timestamps (`t_us`) are microseconds of
/// steady-clock time since the owning Observer was constructed; arc and
/// experiment ids are plain integers so this header stays independent of
/// the graph layer.
///
/// Each event describes itself once, and that description drives every
/// codec (obs/event_codec.h):
///   kType     its JSONL "type" (and its Chrome instant-event name);
///   kChrome   its Chrome instant-event category and scope;
///   Fields()  its serialised fields as {key, &Event::member}, in output
///             order, t_us first. JsonlSink writes them all, Chrome
///             instant events write all but t_us as "args", AuditLog
///             writes the certificate's, and TraceReader / ReadAuditLog
///             decode them (a missing or mistyped key leaves the
///             member's default).

/// One serialised field: its JSON key and the member that holds it.
template <typename Event, typename T>
struct EventField {
  std::string_view key;
  T Event::*member;
};

template <typename Event, typename T>
constexpr EventField<Event, T> Field(std::string_view key, T Event::*member) {
  return {key, member};
}

/// How ChromeTraceSink writes an event as an instant ("ph":"i"). An
/// empty `cat` means no instant: QueryStart and ArcAttempt are left out
/// of Chrome traces, and QueryEnd (a span) and QuotaProgress (a counter
/// track) have hand-written layouts in ChromeTraceSink.
struct ChromeInstant {
  std::string_view cat;
  std::string_view scope;  // "g": global, "t": thread
};

/// A query execution is starting (opens a span; closed by QueryEnd).
struct QueryStartEvent {
  int64_t query_index = 0;
  int64_t t_us = 0;

  static constexpr std::string_view kType = "query_start";
  static constexpr ChromeInstant kChrome{};  // not in Chrome traces
  static constexpr auto Fields() {
    using E = QueryStartEvent;
    return std::tuple{Field("t_us", &E::t_us),
                      Field("query_index", &E::query_index)};
  }
};

/// A query execution finished. `t_us` is the span's *start*; pairing it
/// with `duration_us` makes the event self-contained for span renderers.
struct QueryEndEvent {
  int64_t query_index = 0;
  int64_t t_us = 0;
  int64_t duration_us = 0;
  double cost = 0.0;
  int64_t attempts = 0;
  int64_t successes = 0;
  bool success = false;

  static constexpr std::string_view kType = "query_end";
  static constexpr ChromeInstant kChrome{};  // a hand-written span
  static constexpr auto Fields() {
    using E = QueryEndEvent;
    return std::tuple{Field("t_us", &E::t_us),
                      Field("query_index", &E::query_index),
                      Field("duration_us", &E::duration_us),
                      Field("cost", &E::cost), Field("attempts", &E::attempts),
                      Field("successes", &E::successes),
                      Field("success", &E::success)};
  }
};

/// One arc traversal attempt inside a query. `cost` is the full price of
/// this attempt — the arc's base cost plus its outcome-dependent extra —
/// so per-arc cost attribution can be rebuilt from the event stream
/// alone (the StrategyProfiler and trace_report rely on this).
struct ArcAttemptEvent {
  int64_t query_index = 0;
  int64_t t_us = 0;
  uint32_t arc = 0;
  int experiment = -1;  // -1: deterministic arc
  bool unblocked = false;
  double cost = 0.0;

  static constexpr std::string_view kType = "arc_attempt";
  static constexpr ChromeInstant kChrome{};  // not in Chrome traces
  static constexpr auto Fields() {
    using E = ArcAttemptEvent;
    return std::tuple{Field("t_us", &E::t_us),
                      Field("query_index", &E::query_index),
                      Field("arc", &E::arc),
                      Field("experiment", &E::experiment),
                      Field("unblocked", &E::unblocked),
                      Field("cost", &E::cost)};
  }
};

/// A hill-climber (PIB/PALO) adopted a neighbour strategy.
struct ClimbMoveEvent {
  int64_t t_us = 0;
  std::string learner;      // "pib" | "palo"
  int64_t move_index = 0;   // 0-based move ordinal
  int64_t at_context = 0;   // contexts processed when the move fired
  int64_t samples_used = 0; // |S| of the epoch that fired
  std::string swap;         // human-readable sibling swap
  double delta_sum = 0.0;   // winning sum of Delta~ under-estimates
  double threshold = 0.0;   // the Equation-6 threshold it crossed
  double margin = 0.0;      // delta_sum - threshold
  double delta_spent = 0.0; // delta_i consumed from the lifetime budget

  static constexpr std::string_view kType = "climb_move";
  static constexpr ChromeInstant kChrome{"learner", "g"};
  static constexpr auto Fields() {
    using E = ClimbMoveEvent;
    return std::tuple{Field("t_us", &E::t_us), Field("learner", &E::learner),
                      Field("move_index", &E::move_index),
                      Field("at_context", &E::at_context),
                      Field("samples_used", &E::samples_used),
                      Field("swap", &E::swap),
                      Field("delta_sum", &E::delta_sum),
                      Field("threshold", &E::threshold),
                      Field("margin", &E::margin),
                      Field("delta_spent", &E::delta_spent)};
  }
};

/// Outcome of one sequential-test round (the best neighbour's numbers,
/// whether or not it crossed the threshold).
struct SequentialTestEvent {
  int64_t t_us = 0;
  std::string learner;  // "pib" | "pib1" | "palo"
  int64_t at_context = 0;
  int64_t samples = 0;
  int64_t trial_count = 0;
  int64_t best_neighbor = -1;
  double best_delta_sum = 0.0;
  double best_threshold = 0.0;
  bool fired = false;

  static constexpr std::string_view kType = "sequential_test";
  static constexpr ChromeInstant kChrome{"learner", "t"};
  static constexpr auto Fields() {
    using E = SequentialTestEvent;
    return std::tuple{Field("t_us", &E::t_us), Field("learner", &E::learner),
                      Field("at_context", &E::at_context),
                      Field("samples", &E::samples),
                      Field("trial_count", &E::trial_count),
                      Field("best_neighbor", &E::best_neighbor),
                      Field("best_delta_sum", &E::best_delta_sum),
                      Field("best_threshold", &E::best_threshold),
                      Field("fired", &E::fired)};
  }
};

/// Per-context progress of QP^A toward its Equation 7/8 sample quotas.
struct QuotaProgressEvent {
  int64_t t_us = 0;
  int64_t context = 0;
  int aimed_experiment = -1;
  bool reached = false;
  int64_t remaining_max = 0;    // largest single remaining quota
  int64_t remaining_total = 0;  // sum of positive remaining quotas

  static constexpr std::string_view kType = "quota_progress";
  static constexpr ChromeInstant kChrome{};  // a hand-written counter track
  static constexpr auto Fields() {
    using E = QuotaProgressEvent;
    return std::tuple{Field("t_us", &E::t_us), Field("context", &E::context),
                      Field("aimed_experiment", &E::aimed_experiment),
                      Field("reached", &E::reached),
                      Field("remaining_max", &E::remaining_max),
                      Field("remaining_total", &E::remaining_total)};
  }
};

/// The resilient executor retried a faulted retrieval attempt (or gave
/// up after exhausting its retry budget). One event per *failed*
/// physical attempt; the backoff cost has already been charged to the
/// query's trace when the event is emitted.
struct RetryEvent {
  int64_t t_us = 0;
  int64_t query_index = 0;
  uint32_t arc = 0;
  int experiment = -1;
  std::string fault;         // "transient" | "timeout" | "corrupt"
  int64_t attempt = 0;       // 1-based physical attempt that faulted
  double backoff_cost = 0.0; // 0 when gave_up (no further attempt follows)
  /// Retries exhausted: the attempt is recorded as blocked with the
  /// arc's pessimistic failure cost charged, keeping Delta~ conservative.
  bool gave_up = false;

  static constexpr std::string_view kType = "retry";
  static constexpr ChromeInstant kChrome{"robust", "t"};
  static constexpr auto Fields() {
    using E = RetryEvent;
    return std::tuple{Field("t_us", &E::t_us),
                      Field("query_index", &E::query_index),
                      Field("arc", &E::arc),
                      Field("experiment", &E::experiment),
                      Field("fault", &E::fault), Field("attempt", &E::attempt),
                      Field("backoff_cost", &E::backoff_cost),
                      Field("gave_up", &E::gave_up)};
  }
};

/// A per-arc circuit breaker changed state. "open": the arc's retrieval
/// failed persistently (or was quarantined) and will be skipped (with
/// its pessimistic cost charged) until `cooldown_until`; "half_open":
/// the cooldown elapsed and a single probe attempt is admitted;
/// "closed": a probe (or ordinary physical attempt) succeeded and
/// normal execution resumed. A failed probe re-opens with capped
/// exponential backoff.
struct BreakerEvent {
  int64_t t_us = 0;
  int64_t query_index = 0;
  uint32_t arc = 0;
  int experiment = -1;
  std::string state;  // "open" | "half_open" | "closed"
  int64_t consecutive_failures = 0;
  int64_t cooldown_until = 0;  // resilient-query index when it re-arms

  static constexpr std::string_view kType = "breaker";
  static constexpr ChromeInstant kChrome{"robust", "g"};
  static constexpr auto Fields() {
    using E = BreakerEvent;
    return std::tuple{Field("t_us", &E::t_us),
                      Field("query_index", &E::query_index),
                      Field("arc", &E::arc),
                      Field("experiment", &E::experiment),
                      Field("state", &E::state),
                      Field("consecutive_failures", &E::consecutive_failures),
                      Field("cooldown_until", &E::cooldown_until)};
  }
};

/// A query exceeded its cost/deadline budget and was abandoned as
/// "unresolved" instead of crashing or running away (the trace's cost is
/// the truncated cost actually paid, an under-estimate of the full
/// c(Theta, I) — so Delta~ stays a valid under-estimate).
struct DegradedEvent {
  int64_t t_us = 0;
  int64_t query_index = 0;
  double cost = 0.0;    // cost accrued when the budget tripped
  double budget = 0.0;  // the configured per-query budget
  int64_t attempts = 0; // arc attempts completed before degrading

  static constexpr std::string_view kType = "degraded";
  static constexpr ChromeInstant kChrome{"robust", "g"};
  static constexpr auto Fields() {
    using E = DegradedEvent;
    return std::tuple{Field("t_us", &E::t_us),
                      Field("query_index", &E::query_index),
                      Field("cost", &E::cost), Field("budget", &E::budget),
                      Field("attempts", &E::attempts)};
  }
};

/// A statistical drift detector changed state for one monitored
/// series. "detected": the windowed statistic moved past the detector's
/// threshold relative to its reference; "cleared": a later window
/// passed the same test again. Exactly one of `arc` (>= 0) or
/// `counter` (non-empty) identifies the series, depending on the
/// detector family.
struct DriftEvent {
  int64_t t_us = 0;
  std::string detector;  // "p_hat" | "mean_cost" | "rate"
  std::string state;     // "detected" | "cleared"
  int64_t arc = -1;      // -1 for counter-rate detectors
  std::string counter;   // empty for per-arc detectors
  double statistic = 0.0;  // the windowed value that was tested
  double reference = 0.0;  // the reference it was tested against
  double threshold = 0.0;  // breach margin the test required
  int64_t window = 0;      // index of the window that fired the test
  int64_t window_start_us = 0;
  int64_t window_end_us = 0;

  static constexpr std::string_view kType = "drift";
  static constexpr ChromeInstant kChrome{"health", "g"};
  static constexpr auto Fields() {
    using E = DriftEvent;
    return std::tuple{Field("t_us", &E::t_us), Field("detector", &E::detector),
                      Field("state", &E::state), Field("arc", &E::arc),
                      Field("counter", &E::counter),
                      Field("statistic", &E::statistic),
                      Field("reference", &E::reference),
                      Field("threshold", &E::threshold),
                      Field("window", &E::window),
                      Field("window_start_us", &E::window_start_us),
                      Field("window_end_us", &E::window_end_us)};
  }
};

/// An alert rule crossed its firing/resolved transition. Emitted only
/// on transitions (not every breached window), so the event stream is a
/// transcript of state changes.
struct AlertEvent {
  int64_t t_us = 0;
  std::string rule;      // rule id from the alerts config
  std::string state;     // "firing" | "resolved"
  std::string severity;  // "warning" | "critical"
  std::string metric;    // the rule's metric selector
  double value = 0.0;    // selector value in the transition window
  double threshold = 0.0;
  int64_t window = 0;       // index of the transition window
  int64_t for_windows = 0;  // consecutive breaches required to fire

  static constexpr std::string_view kType = "alert";
  static constexpr ChromeInstant kChrome{"health", "g"};
  static constexpr auto Fields() {
    using E = AlertEvent;
    return std::tuple{Field("t_us", &E::t_us), Field("rule", &E::rule),
                      Field("state", &E::state),
                      Field("severity", &E::severity),
                      Field("metric", &E::metric), Field("value", &E::value),
                      Field("threshold", &E::threshold),
                      Field("window", &E::window),
                      Field("for_windows", &E::for_windows)};
  }
};

/// The recovery controller decided (and, in a live run, executed) one
/// graduated action from a "stratlearn-recovery v1" policy in response
/// to drift/alert transitions in a closed window. `matched` counts the
/// trigger transitions that justified the action (>= 1), and the
/// statistic/reference/threshold triple echoes the first matching
/// transition so humans can see what moved. `outcome` reports what the
/// executor actually did ("applied", "skipped_unsupported",
/// "skipped_no_checkpoint"); decide-only replays reconstruct decisions,
/// not outcomes.
struct RecoveryEvent {
  int64_t t_us = 0;
  std::string rule;     // policy rule id
  std::string trigger;  // e.g. "drift:p_hat" | "alert:<rule-id>"
  std::string action;   // "rebaseline"|"rollback"|"restart_scoped"|"quarantine"
  std::string outcome;  // "applied" | "skipped_*"
  int64_t arc = -1;     // target arc for scoped actions; -1 otherwise
  int64_t window = 0;   // index of the window whose transitions fired it
  int64_t matched = 0;  // trigger transitions matched in that window
  double statistic = 0.0;
  double reference = 0.0;
  double threshold = 0.0;

  static constexpr std::string_view kType = "recovery";
  static constexpr ChromeInstant kChrome{"health", "g"};
  static constexpr auto Fields() {
    using E = RecoveryEvent;
    return std::tuple{Field("t_us", &E::t_us), Field("rule", &E::rule),
                      Field("trigger", &E::trigger),
                      Field("action", &E::action),
                      Field("outcome", &E::outcome), Field("arc", &E::arc),
                      Field("window", &E::window),
                      Field("matched", &E::matched),
                      Field("statistic", &E::statistic),
                      Field("reference", &E::reference),
                      Field("threshold", &E::threshold)};
  }
};

/// PALO certified an epsilon-local optimum and stopped.
struct PaloStopEvent {
  int64_t t_us = 0;
  int64_t at_context = 0;
  int64_t moves = 0;
  double epsilon = 0.0;
  /// max over neighbours of (mean over-estimate + Hoeffding deviation);
  /// the stop fired because this dropped below epsilon.
  double worst_certificate = 0.0;

  static constexpr std::string_view kType = "palo_stop";
  static constexpr ChromeInstant kChrome{"learner", "g"};
  static constexpr auto Fields() {
    using E = PaloStopEvent;
    return std::tuple{Field("t_us", &E::t_us),
                      Field("at_context", &E::at_context),
                      Field("moves", &E::moves), Field("epsilon", &E::epsilon),
                      Field("worst_certificate", &E::worst_certificate)};
  }
};

/// A machine-checkable PAC certificate for one statistically
/// significant learner decision: the exact numbers that justified it,
/// the delta_i drawn from the learner's running delta-budget ledger,
/// and the Theorem 1-3 sample bound the decision is measured against.
/// tools/audit_verify re-derives every field from the raw ArcAttempt
/// stream and the src/stats formulas; emission is gated behind
/// Observer::audit_enabled() so runs without --audit-out stay
/// byte-identical to before this event existed.
struct DecisionCertificateEvent {
  int64_t t_us = 0;
  std::string learner;   // "pib" | "pib1" | "palo" | "pao"
  std::string decision;  // "climb" | "stop" | "quota"
  std::string verdict;   // "commit" | "reject" | "stop" | "met"
  int64_t at_context = 0;
  int64_t samples = 0;      // n: observations backing the test
  int64_t trials = 0;       // i: sequential-test index (1 for one-shot)
  int64_t subject = -1;     // neighbour index / experiment id; -1: n/a
  double mean = 0.0;        // Delta~ mean for climbers, p-hat for PAO
  double delta_sum = 0.0;   // the tested statistic (sum form)
  double threshold = 0.0;   // the threshold it was tested against
  double margin = 0.0;      // delta_sum - threshold
  double range = 0.0;       // d_i: the statistic's range
  double epsilon_n = 0.0;   // Hoeffding deviation eps(n, delta_step)
  double delta_step = 0.0;  // delta_i consumed by this decision
  double delta_budget = 0.0;       // the configured lifetime delta
  double delta_spent_total = 0.0;  // ledger after this decision
  /// Theorem 1-3 sample bound m(d_i) for this decision's parameters
  /// (0 when no closed-form bound applies).
  int64_t bound_samples = 0;
  double epsilon = 0.0;  // PALO/PAO epsilon; 0 for PIB/PIB1

  static constexpr std::string_view kType = "decision_certificate";
  static constexpr ChromeInstant kChrome{"audit", "g"};
  static constexpr auto Fields() {
    using E = DecisionCertificateEvent;
    return std::tuple{Field("t_us", &E::t_us), Field("learner", &E::learner),
                      Field("decision", &E::decision),
                      Field("verdict", &E::verdict),
                      Field("at_context", &E::at_context),
                      Field("samples", &E::samples),
                      Field("trials", &E::trials),
                      Field("subject", &E::subject), Field("mean", &E::mean),
                      Field("delta_sum", &E::delta_sum),
                      Field("threshold", &E::threshold),
                      Field("margin", &E::margin), Field("range", &E::range),
                      Field("epsilon_n", &E::epsilon_n),
                      Field("delta_step", &E::delta_step),
                      Field("delta_budget", &E::delta_budget),
                      Field("delta_spent_total", &E::delta_spent_total),
                      Field("bound_samples", &E::bound_samples),
                      Field("epsilon", &E::epsilon)};
  }
};

/// Every event type, in TraceSink handler order. X(Name) stands for the
/// struct Name##Event and its handler TraceSink::On##Name; TraceSink's
/// handlers, the sinks that treat every event alike (GenericSink) and
/// TraceReader's decoders are all generated from this list.
#define STRATLEARN_OBS_EVENTS(X) \
  X(QueryStart)                  \
  X(QueryEnd)                    \
  X(ArcAttempt)                  \
  X(ClimbMove)                   \
  X(SequentialTest)              \
  X(QuotaProgress)               \
  X(PaloStop)                    \
  X(Retry)                       \
  X(Breaker)                     \
  X(Degraded)                    \
  X(Drift)                       \
  X(Alert)                       \
  X(DecisionCertificate)         \
  X(Recovery)

}  // namespace stratlearn::obs

#endif  // STRATLEARN_OBS_EVENTS_H_
