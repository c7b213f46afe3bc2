// Byte pins for every trace event type. One event of each of the 14
// types, with awkward values (negative ids, 17-digit doubles, strings
// that need escaping, non-finite doubles written as null), goes through
// JsonlSink, ChromeTraceSink, a TeeSink of both, a LockingSink and an
// AuditLog; each output must equal its golden under
// tests/testdata/trace/. The JSONL golden is then replayed through
// TraceReader and every field compared bit for bit, and lines with
// missing or mistyped keys must decode to the structs' defaults.

#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/audit/audit_log.h"
#include "obs/sinks.h"
#include "obs/trace_reader.h"
#include "obs/trace_sink.h"

namespace stratlearn {
namespace {

using namespace obs;

const double kNaN = std::numeric_limits<double>::quiet_NaN();
const double kInf = std::numeric_limits<double>::infinity();

std::string ReadGolden(const std::string& name) {
  std::ifstream in(std::string(STRATLEARN_TESTDATA) + "/trace/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden " << name;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// One non-default event of every type. Doubles need all 17 digits,
/// strings carry quotes, backslashes and control characters, ids are
/// negative where the type allows it, and the two uint32_t arcs sit
/// above INT32_MAX so their widening to int64_t is visible.
struct AllEvents {
  QueryStartEvent query_start{-3, 1234567890123};
  QueryEndEvent query_end{-3, 1234567890123, -17, 0.1 + 0.2, 9, 4, true};
  ArcAttemptEvent arc_attempt{-3, 1234567890124, 4000000000u, -7, true,
                              1.0 / 3.0};
  ClimbMoveEvent climb_move{5,
                            "pa\"lo\\",
                            3,
                            -4097,
                            811,
                            "swap\t2<->5\nunder \x01node",
                            2.0 / 3.0,
                            1e-300 / 3.0,
                            -(1e21 / 7.0),
                            0.05 * 6.0 / (M_PI * M_PI * 49.0)};
  SequentialTestEvent sequential_test{
      6, "pib1", 511, 129, 17, -5, std::sqrt(2.0) * 100.0, -0.0, true};
  QuotaProgressEvent quota_progress{7, -8, -2, true, 123456789012345, -1};
  PaloStopEvent palo_stop{8, 4096, -1, 0.1, 1.0 / 7.0};
  RetryEvent retry{9, -10, 7, -3, "time\"out", 2, 2.5e-7 / 3.0, true};
  BreakerEvent breaker{10, -11, 4294967295u, -4, "half_open", 3, -12};
  DegradedEvent degraded{11, -13, 1.5e308,
                         std::numeric_limits<double>::denorm_min(), 14};
  DriftEvent drift{12, "p_hat", "detected", -15, "engine.\"q\"\\n", kNaN,
                   0.7 / 3.0, 3e-17, -16, 17, -18};
  AlertEvent alert{13,          "r\xc3\xa9gle",       "firing",
                   "critical",  "rate(obs.x)",        6.02214076e23 / 7.0,
                   -0.5 / 3.0,  -19,                  20};
  DecisionCertificateEvent certificate{
      14,
      "palo",
      "climb",
      "commit",
      300,
      96,
      12,
      -24,
      1.0 / 7.0,
      96.0 / 7.0,
      0.1 + 0.2,
      96.0 / 7.0 - (0.1 + 0.2),
      4.0,
      std::sqrt(3.0) / 10.0,
      0.05 * 6.0 / (M_PI * M_PI * 144.0),
      0.05,
      0.05 / 3.0,
      2048,
      0.125 / 3.0};
  RecoveryEvent recovery{15, "rb\\1", "alert:\x1f", "rollback",
                         "skipped_no_checkpoint", -21, 22, -23, -kInf,
                         1e-5 / 3.0, 123.456};
};

/// Emits every event once, in TraceSink declaration order.
void EmitAll(const AllEvents& a, TraceSink& sink) {
  sink.OnQueryStart(a.query_start);
  sink.OnQueryEnd(a.query_end);
  sink.OnArcAttempt(a.arc_attempt);
  sink.OnClimbMove(a.climb_move);
  sink.OnSequentialTest(a.sequential_test);
  sink.OnQuotaProgress(a.quota_progress);
  sink.OnPaloStop(a.palo_stop);
  sink.OnRetry(a.retry);
  sink.OnBreaker(a.breaker);
  sink.OnDegraded(a.degraded);
  sink.OnDrift(a.drift);
  sink.OnAlert(a.alert);
  sink.OnDecisionCertificate(a.certificate);
  sink.OnRecovery(a.recovery);
}

TEST(TraceEventBytesTest, JsonlGolden) {
  std::ostringstream out;
  {
    JsonlSink sink(&out);
    EmitAll(AllEvents{}, sink);
  }
  EXPECT_EQ(out.str(), ReadGolden("events.jsonl"));
}

TEST(TraceEventBytesTest, ChromeGolden) {
  std::ostringstream out;
  {
    ChromeTraceSink sink(&out);
    EmitAll(AllEvents{}, sink);
  }
  EXPECT_EQ(out.str(), ReadGolden("events.chrome.json"));
}

TEST(TraceEventBytesTest, TeeOfBothSinksMatchesEachGolden) {
  std::ostringstream jsonl_out;
  std::ostringstream chrome_out;
  {
    JsonlSink jsonl(&jsonl_out);
    ChromeTraceSink chrome(&chrome_out);
    TeeSink tee({&jsonl, nullptr, &chrome});
    EmitAll(AllEvents{}, tee);
    tee.Close();
  }
  EXPECT_EQ(jsonl_out.str(), ReadGolden("events.jsonl"));
  EXPECT_EQ(chrome_out.str(), ReadGolden("events.chrome.json"));
}

TEST(TraceEventBytesTest, LockingSinkMatchesEachGolden) {
  std::ostringstream jsonl_out;
  std::ostringstream chrome_out;
  {
    JsonlSink jsonl(&jsonl_out);
    ChromeTraceSink chrome(&chrome_out);
    LockingSink locked_jsonl(&jsonl);
    LockingSink locked_chrome(&chrome);
    EmitAll(AllEvents{}, locked_jsonl);
    EmitAll(AllEvents{}, locked_chrome);
    locked_jsonl.Close();
    locked_chrome.Close();
  }
  EXPECT_EQ(jsonl_out.str(), ReadGolden("events.jsonl"));
  EXPECT_EQ(chrome_out.str(), ReadGolden("events.chrome.json"));
}

TEST(TraceEventBytesTest, AuditLogGolden) {
  // Header, two certificates (each with its epoch's arc tally), a full
  // regret window, the trailing partial window and the summary.
  AuditLogOptions options;
  options.delta_budget = 0.05;
  options.window = 2;
  options.have_baselines = true;
  options.incumbent_expected_cost = 10.0 / 3.0;
  options.oracle_expected_cost = 7.0 / 3.0;
  std::ostringstream out;
  {
    AuditLog audit(&out, options);
    AllEvents a;
    EmitAll(a, audit);
    ArcAttemptEvent other = a.arc_attempt;
    other.arc = 2;
    other.experiment = 1;
    other.unblocked = false;
    other.cost = 2.0 / 7.0;
    audit.OnArcAttempt(other);
    audit.OnDecisionCertificate(a.certificate);
    audit.OnQueryEnd(a.query_end);
    audit.OnQueryEnd(a.query_end);
  }
  EXPECT_EQ(out.str(), ReadGolden("events.audit"));
}

/// Keeps every replayed event, by type.
struct CollectingSink final : public TraceSink {
  std::vector<QueryStartEvent> query_start;
  std::vector<QueryEndEvent> query_end;
  std::vector<ArcAttemptEvent> arc_attempt;
  std::vector<ClimbMoveEvent> climb_move;
  std::vector<SequentialTestEvent> sequential_test;
  std::vector<QuotaProgressEvent> quota_progress;
  std::vector<PaloStopEvent> palo_stop;
  std::vector<RetryEvent> retry;
  std::vector<BreakerEvent> breaker;
  std::vector<DegradedEvent> degraded;
  std::vector<DriftEvent> drift;
  std::vector<AlertEvent> alert;
  std::vector<DecisionCertificateEvent> certificate;
  std::vector<RecoveryEvent> recovery;

  void OnQueryStart(const QueryStartEvent& e) override {
    query_start.push_back(e);
  }
  void OnQueryEnd(const QueryEndEvent& e) override { query_end.push_back(e); }
  void OnArcAttempt(const ArcAttemptEvent& e) override {
    arc_attempt.push_back(e);
  }
  void OnClimbMove(const ClimbMoveEvent& e) override {
    climb_move.push_back(e);
  }
  void OnSequentialTest(const SequentialTestEvent& e) override {
    sequential_test.push_back(e);
  }
  void OnQuotaProgress(const QuotaProgressEvent& e) override {
    quota_progress.push_back(e);
  }
  void OnPaloStop(const PaloStopEvent& e) override { palo_stop.push_back(e); }
  void OnRetry(const RetryEvent& e) override { retry.push_back(e); }
  void OnBreaker(const BreakerEvent& e) override { breaker.push_back(e); }
  void OnDegraded(const DegradedEvent& e) override { degraded.push_back(e); }
  void OnDrift(const DriftEvent& e) override { drift.push_back(e); }
  void OnAlert(const AlertEvent& e) override { alert.push_back(e); }
  void OnDecisionCertificate(const DecisionCertificateEvent& e) override {
    certificate.push_back(e);
  }
  void OnRecovery(const RecoveryEvent& e) override { recovery.push_back(e); }
};

/// Field comparison: doubles bit for bit (so -0.0 differs from 0.0),
/// everything else with ==.
void ExpectField(const char* name, double got, double want) {
  EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
      << name << ": got " << got << ", want " << want;
}
template <typename T>
void ExpectField(const char* name, const T& got, const T& want) {
  EXPECT_EQ(got, want) << name;
}
#define SAME(field) ExpectField(#field, got.field, want.field)

void ExpectSame(const QueryStartEvent& got, const QueryStartEvent& want) {
  SAME(query_index);
  SAME(t_us);
}
void ExpectSame(const QueryEndEvent& got, const QueryEndEvent& want) {
  SAME(query_index);
  SAME(t_us);
  SAME(duration_us);
  SAME(cost);
  SAME(attempts);
  SAME(successes);
  SAME(success);
}
void ExpectSame(const ArcAttemptEvent& got, const ArcAttemptEvent& want) {
  SAME(query_index);
  SAME(t_us);
  SAME(arc);
  SAME(experiment);
  SAME(unblocked);
  SAME(cost);
}
void ExpectSame(const ClimbMoveEvent& got, const ClimbMoveEvent& want) {
  SAME(t_us);
  SAME(learner);
  SAME(move_index);
  SAME(at_context);
  SAME(samples_used);
  SAME(swap);
  SAME(delta_sum);
  SAME(threshold);
  SAME(margin);
  SAME(delta_spent);
}
void ExpectSame(const SequentialTestEvent& got,
                const SequentialTestEvent& want) {
  SAME(t_us);
  SAME(learner);
  SAME(at_context);
  SAME(samples);
  SAME(trial_count);
  SAME(best_neighbor);
  SAME(best_delta_sum);
  SAME(best_threshold);
  SAME(fired);
}
void ExpectSame(const QuotaProgressEvent& got,
                const QuotaProgressEvent& want) {
  SAME(t_us);
  SAME(context);
  SAME(aimed_experiment);
  SAME(reached);
  SAME(remaining_max);
  SAME(remaining_total);
}
void ExpectSame(const PaloStopEvent& got, const PaloStopEvent& want) {
  SAME(t_us);
  SAME(at_context);
  SAME(moves);
  SAME(epsilon);
  SAME(worst_certificate);
}
void ExpectSame(const RetryEvent& got, const RetryEvent& want) {
  SAME(t_us);
  SAME(query_index);
  SAME(arc);
  SAME(experiment);
  SAME(fault);
  SAME(attempt);
  SAME(backoff_cost);
  SAME(gave_up);
}
void ExpectSame(const BreakerEvent& got, const BreakerEvent& want) {
  SAME(t_us);
  SAME(query_index);
  SAME(arc);
  SAME(experiment);
  SAME(state);
  SAME(consecutive_failures);
  SAME(cooldown_until);
}
void ExpectSame(const DegradedEvent& got, const DegradedEvent& want) {
  SAME(t_us);
  SAME(query_index);
  SAME(cost);
  SAME(budget);
  SAME(attempts);
}
void ExpectSame(const DriftEvent& got, const DriftEvent& want) {
  SAME(t_us);
  SAME(detector);
  SAME(state);
  SAME(arc);
  SAME(counter);
  SAME(statistic);
  SAME(reference);
  SAME(threshold);
  SAME(window);
  SAME(window_start_us);
  SAME(window_end_us);
}
void ExpectSame(const AlertEvent& got, const AlertEvent& want) {
  SAME(t_us);
  SAME(rule);
  SAME(state);
  SAME(severity);
  SAME(metric);
  SAME(value);
  SAME(threshold);
  SAME(window);
  SAME(for_windows);
}
void ExpectSame(const DecisionCertificateEvent& got,
                const DecisionCertificateEvent& want) {
  SAME(t_us);
  SAME(learner);
  SAME(decision);
  SAME(verdict);
  SAME(at_context);
  SAME(samples);
  SAME(trials);
  SAME(subject);
  SAME(mean);
  SAME(delta_sum);
  SAME(threshold);
  SAME(margin);
  SAME(range);
  SAME(epsilon_n);
  SAME(delta_step);
  SAME(delta_budget);
  SAME(delta_spent_total);
  SAME(bound_samples);
  SAME(epsilon);
}
void ExpectSame(const RecoveryEvent& got, const RecoveryEvent& want) {
  SAME(t_us);
  SAME(rule);
  SAME(trigger);
  SAME(action);
  SAME(outcome);
  SAME(arc);
  SAME(window);
  SAME(matched);
  SAME(statistic);
  SAME(reference);
  SAME(threshold);
}
#undef SAME

/// Every collected list must hold exactly one event, equal to `want`'s.
void ExpectOneOfEach(const CollectingSink& got, const AllEvents& want) {
#define ONE(list, event)                         \
  ASSERT_EQ(got.list.size(), 1u) << #list;       \
  ExpectSame(got.list[0], want.event)
  ONE(query_start, query_start);
  ONE(query_end, query_end);
  ONE(arc_attempt, arc_attempt);
  ONE(climb_move, climb_move);
  ONE(sequential_test, sequential_test);
  ONE(quota_progress, quota_progress);
  ONE(palo_stop, palo_stop);
  ONE(retry, retry);
  ONE(breaker, breaker);
  ONE(degraded, degraded);
  ONE(drift, drift);
  ONE(alert, alert);
  ONE(certificate, certificate);
  ONE(recovery, recovery);
#undef ONE
}

TEST(TraceReaderRoundTripTest, EveryEventTypeBitExact) {
  CollectingSink collected;
  TraceReader reader(&collected);
  std::istringstream in(ReadGolden("events.jsonl"));
  ASSERT_TRUE(reader.ReplayStream(in).ok());
  EXPECT_EQ(reader.events(), 14);
  EXPECT_EQ(reader.skipped(), 0);
  // Non-finite doubles are written as null, which reads back as the
  // member's default.
  AllEvents want;
  want.drift.statistic = 0.0;
  want.recovery.statistic = 0.0;
  // Control bytes are written as \u00XX escapes and read back raw.
  EXPECT_EQ(want.climb_move.swap, "swap\t2<->5\nunder \x01node");
  EXPECT_EQ(want.recovery.trigger, "alert:\x1f");
  ExpectOneOfEach(collected, want);
}

TEST(TraceReaderRoundTripTest, MissingKeysDecodeToDefaults) {
  const char* kLines =
      "{\"type\":\"query_start\"}\n"
      "{\"type\":\"query_end\"}\n"
      "{\"type\":\"arc_attempt\"}\n"
      "{\"type\":\"climb_move\"}\n"
      "{\"type\":\"sequential_test\"}\n"
      "{\"type\":\"quota_progress\"}\n"
      "{\"type\":\"palo_stop\"}\n"
      "{\"type\":\"retry\"}\n"
      "{\"type\":\"breaker\"}\n"
      "{\"type\":\"degraded\"}\n"
      "{\"type\":\"drift\"}\n"
      "{\"type\":\"alert\"}\n"
      "{\"type\":\"decision_certificate\"}\n"
      "{\"type\":\"recovery\"}\n";
  CollectingSink collected;
  TraceReader reader(&collected);
  std::istringstream in(kLines);
  ASSERT_TRUE(reader.ReplayStream(in).ok());
  EXPECT_EQ(reader.events(), 14);
  // AllEvents with every member value-initialised to its default.
  AllEvents defaults{{}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}};
  ExpectOneOfEach(collected, defaults);
  EXPECT_EQ(defaults.arc_attempt.experiment, -1);
  EXPECT_EQ(defaults.sequential_test.best_neighbor, -1);
  EXPECT_EQ(defaults.quota_progress.aimed_experiment, -1);
  EXPECT_EQ(defaults.drift.arc, -1);
  EXPECT_EQ(defaults.recovery.arc, -1);
  EXPECT_EQ(defaults.certificate.subject, -1);
}

TEST(TraceReaderRoundTripTest, MistypedKeysDecodeToDefaults) {
  // Each key holds the wrong JSON kind: a string for numbers, a number
  // for strings and bools, null or a nested container elsewhere.
  const char* kLines =
      "{\"type\":\"arc_attempt\",\"query_index\":\"1\",\"t_us\":null,"
      "\"arc\":true,\"experiment\":\"3\",\"unblocked\":1,\"cost\":[1]}\n"
      "{\"type\":\"breaker\",\"t_us\":{},\"query_index\":false,"
      "\"arc\":\"2\",\"experiment\":[5],\"state\":7,"
      "\"consecutive_failures\":\"x\",\"cooldown_until\":null}\n"
      "{\"type\":\"drift\",\"detector\":1,\"state\":true,\"arc\":\"4\","
      "\"counter\":null,\"statistic\":\"0.5\",\"window\":[]}\n";
  CollectingSink collected;
  TraceReader reader(&collected);
  std::istringstream in(kLines);
  ASSERT_TRUE(reader.ReplayStream(in).ok());
  ASSERT_EQ(collected.arc_attempt.size(), 1u);
  ASSERT_EQ(collected.breaker.size(), 1u);
  ASSERT_EQ(collected.drift.size(), 1u);
  ExpectSame(collected.arc_attempt[0], ArcAttemptEvent{});
  ExpectSame(collected.breaker[0], BreakerEvent{});
  ExpectSame(collected.drift[0], DriftEvent{});
}

}  // namespace
}  // namespace stratlearn
