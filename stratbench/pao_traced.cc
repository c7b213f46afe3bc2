// pao_traced: PAO (Theorem 3, aim counting) on a random tree with
// internal experiments, under the same sidecars `stratlearn_cli
// learn-pao` wires up: a metrics registry, a JSONL trace (serialised
// into a byte-counting stream, no disk), an audit log with decision
// certificates, time-series windows feeding a HealthMonitor with alert
// rules, a checkpoint written every kCheckpointEvery contexts into a
// private scratch directory, and a seeded fault plan (transient faults
// and cost spikes, retries, circuit breaker). Telemetry runs on the
// context-count clock (the CLI's --obs-clock=fake), so every byte count
// repeats exactly at one seed.
#include <algorithm>
#include <filesystem>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "core/expected_cost.h"
#include "core/pao.h"
#include "core/upsilon.h"
#include "harness.h"
#include "obs/audit/audit_log.h"
#include "obs/health/alerts.h"
#include "obs/health/monitor.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/sinks.h"
#include "obs/timeseries.h"
#include "obs/trace_reader.h"
#include "replay.h"
#include "robust/checkpoint.h"
#include "robust/fault_injector.h"
#include "robust/fault_plan.h"
#include "util/rng.h"
#include "workload/random_tree.h"
#include "workload/synthetic_oracle.h"

namespace stratbench {
namespace {

using namespace stratlearn;  // NOLINT: a benchmark of the whole library

// Input sizes and learner settings.
constexpr uint64_t kShapeSeed = 2;  // fixes the tree's shape
constexpr int kEpisodes = 8;               // PAO runs per pass
constexpr int64_t kMaxContexts = 60000;    // replay pool per episode
constexpr double kEpsilon = 5.0;
constexpr double kDelta = 0.1;
constexpr int64_t kWindowContexts = 250;   // time-series window
constexpr int64_t kCheckpointEvery = 1000;
constexpr int kSetupRepeats = 101;         // setup_s is their median,
constexpr double kSetupSeconds = 2.0;      // over at least this long

/// A random AOT tree with internal experiments. Its shape and costs come
/// from a fixed seed; the run seed jitters each success probability by
/// up to 3% (and drives the contexts and the fault plan).
RandomTree MakeTree(uint64_t seed) {
  Rng shape(kShapeSeed);
  RandomTreeOptions options;
  options.depth = 3;
  options.min_branch = 2;
  options.max_branch = 3;
  options.internal_experiment_prob = 0.3;
  RandomTree tree = MakeRandomTree(shape, options);
  Rng jitter(seed * 0x9E3779B97F4A7C15ull + 3);
  for (double& p : tree.probs) {
    p = std::clamp(p * jitter.NextUniform(0.97, 1.03), 0.01, 0.99);
  }
  return tree;
}

robust::FaultPlan MakeFaultPlan(uint64_t seed) {
  robust::FaultPlan plan;
  plan.seed = seed;
  plan.rules.push_back({robust::FaultKind::kTransient, 0.03, -1, 1.0});
  plan.rules.push_back({robust::FaultKind::kCostSpike, 0.02, -1, 3.0});
  plan.resilience.max_retries = 5;
  plan.resilience.breaker_threshold = 8;
  plan.resilience.breaker_cooldown = 32;
  return plan;
}

obs::health::AlertRuleSet MakeAlertRules() {
  obs::health::AlertRuleSet rules;
  auto add = [&](const char* id, const char* metric, double threshold) {
    obs::health::AlertRule rule;
    rule.id = id;
    rule.metric = metric;
    rule.selector = obs::health::ParseMetricSelector(metric);
    rule.threshold = threshold;
    rule.for_windows = 2;
    rules.rules.push_back(rule);
  };
  add("fault_burst", "counter_delta:robust.faults", 200.0);
  add("cost_high", "histogram_mean:qp.query_cost", 20.0);
  add("drift", "drift_active", 0.0);
  return rules;
}

/// Counts (and optionally keeps) every byte written through it.
class CountingBuf : public std::streambuf {
 public:
  explicit CountingBuf(std::string* keep = nullptr) : keep_(keep) {}
  int64_t bytes() const { return bytes_; }

 protected:
  int_type overflow(int_type ch) override {
    if (ch != traits_type::eof()) {
      ++bytes_;
      if (keep_ != nullptr) keep_->push_back(static_cast<char>(ch));
    }
    return ch;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    bytes_ += n;
    if (keep_ != nullptr) keep_->append(s, static_cast<size_t>(n));
    return n;
  }

 private:
  std::string* keep_;
  int64_t bytes_ = 0;
};

/// The timing tee in front of the real sinks: one obs span per event,
/// an event count, and the answer check on every QueryEnd.
class TimingSink final : public obs::TraceSink {
 public:
  TimingSink(obs::TraceSink* inner, Tracer* tracer,
             const ReplayOracle* oracle)
      : inner_(inner), tracer_(tracer), oracle_(oracle) {}

  int64_t events = 0;
  int64_t queries = 0;
  int64_t wrong = 0;
  int64_t attempts = 0;
  double cost = 0.0;

#define STRATBENCH_FORWARD(Method, Event) \
  void Method(const obs::Event& e) override { \
    Span span(tracer_, SpanKind::kSink);     \
    ++events;                                \
    inner_->Method(e);                       \
  }
  STRATBENCH_FORWARD(OnQueryStart, QueryStartEvent)
  STRATBENCH_FORWARD(OnArcAttempt, ArcAttemptEvent)
  STRATBENCH_FORWARD(OnClimbMove, ClimbMoveEvent)
  STRATBENCH_FORWARD(OnSequentialTest, SequentialTestEvent)
  STRATBENCH_FORWARD(OnQuotaProgress, QuotaProgressEvent)
  STRATBENCH_FORWARD(OnPaloStop, PaloStopEvent)
  STRATBENCH_FORWARD(OnRetry, RetryEvent)
  STRATBENCH_FORWARD(OnBreaker, BreakerEvent)
  STRATBENCH_FORWARD(OnDegraded, DegradedEvent)
  STRATBENCH_FORWARD(OnDrift, DriftEvent)
  STRATBENCH_FORWARD(OnAlert, AlertEvent)
  STRATBENCH_FORWARD(OnDecisionCertificate, DecisionCertificateEvent)
  STRATBENCH_FORWARD(OnRecovery, RecoveryEvent)
#undef STRATBENCH_FORWARD

  void OnQueryEnd(const obs::QueryEndEvent& e) override {
    {
      Span span(tracer_, SpanKind::kSink);
      ++events;
      inner_->OnQueryEnd(e);
    }
    ++queries;
    attempts += e.attempts;
    cost += e.cost;
    if (e.success != oracle_->last_answer()) ++wrong;
  }
  void Flush() override { inner_->Flush(); }
  void Close() override { inner_->Close(); }

 private:
  obs::TraceSink* inner_;
  Tracer* tracer_;
  const ReplayOracle* oracle_;
};

/// Counts the events a TraceReader replays.
class CountingSink final : public obs::TraceSink {
 public:
  int64_t events = 0;
  void OnQueryStart(const obs::QueryStartEvent&) override { ++events; }
  void OnQueryEnd(const obs::QueryEndEvent&) override { ++events; }
  void OnArcAttempt(const obs::ArcAttemptEvent&) override { ++events; }
  void OnClimbMove(const obs::ClimbMoveEvent&) override { ++events; }
  void OnSequentialTest(const obs::SequentialTestEvent&) override {
    ++events;
  }
  void OnQuotaProgress(const obs::QuotaProgressEvent&) override { ++events; }
  void OnPaloStop(const obs::PaloStopEvent&) override { ++events; }
  void OnRetry(const obs::RetryEvent&) override { ++events; }
  void OnBreaker(const obs::BreakerEvent&) override { ++events; }
  void OnDegraded(const obs::DegradedEvent&) override { ++events; }
  void OnDrift(const obs::DriftEvent&) override { ++events; }
  void OnAlert(const obs::AlertEvent&) override { ++events; }
  void OnDecisionCertificate(const obs::DecisionCertificateEvent&) override {
    ++events;
  }
  void OnRecovery(const obs::RecoveryEvent&) override { ++events; }
};

/// The production sidecar stack for one PAO run. Members are declared
/// in wiring order so each outlives whatever points at it.
struct Stack {
  Stack(const ReplayOracle* oracle, Tracer* tracer, uint64_t seed,
        std::string* keep_trace)
      : trace_buf(keep_trace),
        trace_stream(&trace_buf),
        audit_stream(&audit_buf),
        jsonl(&trace_stream),
        audit(&audit_stream, obs::AuditLogOptions{.delta_budget = kDelta}),
        series(&registry, obs::TimeSeriesOptions{
                              .interval_us = kWindowContexts}),
        health(MakeAlertRules(), obs::health::HealthOptions{}, &registry),
        tee({&jsonl, &audit, &series}),
        timing(&tee, tracer, oracle),
        observer(&registry, &timing),
        injector(MakeFaultPlan(seed)) {
    jsonl.set_drop_counter(&registry.GetCounter("obs.trace_events_dropped"));
    series.SetWindowCallback([this, tracer](const obs::TimeSeriesWindow& w) {
      Span span(tracer, SpanKind::kHealth);
      health.OnWindow(w);
    });
    health.set_event_sink(&timing);
    observer.set_audit_enabled(true);
    observer.UseManualClock();
  }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  CountingBuf trace_buf;
  CountingBuf audit_buf;
  std::ostream trace_stream;
  std::ostream audit_stream;
  obs::MetricsRegistry registry;
  obs::JsonlSink jsonl;
  obs::AuditLog audit;
  obs::TimeSeriesCollector series;
  obs::health::HealthMonitor health;
  obs::TeeSink tee;
  TimingSink timing;
  obs::Observer observer;
  robust::FaultInjector injector;
};

/// What one PAO run under the stack produced.
struct Episode {
  Result<PaoResult> result = Status::Internal("not run");
  double elapsed_s = 0.0;
  int64_t queries = 0, events = 0, wrong = 0, attempts = 0;
  double cost = 0.0;
  int64_t trace_bytes = 0, audit_bytes = 0, windows = 0;
  int64_t faults = 0, retries = 0, degraded = 0, dropped = 0;
  int64_t checkpoints = 0, checkpoint_bytes = 0;
  std::string checkpoint_error;
};

/// Runs PAO once over episode `episode`'s contexts under a fresh stack,
/// appending one latency sample per context (hook to hook, so periodic
/// checkpoint and window work shows in the tail).
Episode RunEpisode(const InferenceGraph& graph, const ReplayPool& pool,
                   int episode, const PaoOptions& base, uint64_t seed,
                   const std::string& checkpoint_path, Tracer* tracer,
                   PhaseStats* stats, std::string* keep_trace) {
  Episode out;
  ReplayOracle replay(&pool, episode * kMaxContexts);
  // Times each draw of the replayed contexts as workload work.
  struct TimedOracle : ContextOracle {
    ReplayOracle* inner = nullptr;
    Tracer* tracer = nullptr;
    Context Next(Rng& rng) override {
      Span span(tracer, SpanKind::kOracleNext);
      return inner->Next(rng);
    }
    size_t num_experiments() const override {
      return inner->num_experiments();
    }
  } oracle;
  oracle.inner = &replay;
  oracle.tracer = tracer;

  Stack stack(&replay, tracer, seed, keep_trace);
  Rng rng(seed + static_cast<uint64_t>(episode));
  PaoOptions options = base;
  options.injector = &stack.injector;
  int64_t last = NowNs();
  options.on_context = [&](const AdaptiveQueryProcessor& qpa,
                           int64_t contexts) {
    if (tracer->enabled()) tracer->End();  // the QP^A span
    stack.observer.AdvanceManualClock(contexts);
    if (contexts % kCheckpointEvery == 0) {
      Span span(tracer, SpanKind::kCheckpoint);
      robust::CheckpointData data;
      data.learner = "pao";
      data.seed = seed;
      data.queries_done = contexts;
      data.rng_state = rng.SaveState();
      data.has_injector = true;
      data.injector = stack.injector.SaveState();
      data.qpa = qpa.GetCheckpoint();
      Status written = robust::WriteCheckpoint(checkpoint_path, data);
      if (!written.ok()) out.checkpoint_error = written.ToString();
      std::error_code ec;
      out.checkpoint_bytes += static_cast<int64_t>(
          std::filesystem::file_size(checkpoint_path, ec));
      ++out.checkpoints;
    }
    {
      Span span(tracer, SpanKind::kTick);
      stack.series.AdvanceTo(contexts);
    }
    if (tracer->enabled()) {
      tracer->Begin(qpa.QuotasMet() ? SpanKind::kUpsilon : SpanKind::kQpa);
    }
    int64_t now = NowNs();
    stats->Record(static_cast<double>(now - last) / 1e3);
    last = now;
  };

  int64_t start = NowNs();
  if (tracer->enabled()) {
    tracer->Begin(SpanKind::kPaoRun);
    tracer->Begin(SpanKind::kQpa);
  }
  out.result = Pao::Run(graph, oracle, rng, options, &stack.observer);
  if (tracer->enabled()) {
    tracer->End();
    tracer->End();
  }
  out.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  stack.series.Finalize(stack.timing.queries);
  stack.timing.Close();

  out.queries = stack.timing.queries;
  out.events = stack.timing.events;
  out.wrong = stack.timing.wrong;
  out.attempts = stack.timing.attempts;
  out.cost = stack.timing.cost;
  out.trace_bytes = stack.trace_buf.bytes();
  out.audit_bytes = stack.audit_buf.bytes();
  out.windows = stack.series.windows_closed();
  obs::MetricsRegistry& r = stack.registry;
  out.faults = r.GetCounter("robust.faults").value();
  out.retries = r.GetCounter("robust.retries").value();
  out.degraded = r.GetCounter("robust.degraded").value();
  out.dropped = r.GetCounter("obs.trace_events_dropped").value();
  return out;
}

}  // namespace

void RunPaoTraced(const RunOptions& options, Report* report) {
  ScratchDir scratch(options.scratch_root);
  if (!scratch.ok()) {
    report->Fail("pao_setup", "cannot create a scratch directory under " +
                                  options.scratch_root);
    return;
  }
  const std::string checkpoint_path = scratch.path() + "/pao.ckpt";

  // --- Inputs (not timed): the tree and every episode's contexts.
  RandomTree tree = MakeTree(options.seed);
  const InferenceGraph& graph = tree.graph;
  ReplayPool pool(graph, IndependentOracle(tree.probs),
                  kEpisodes * kMaxContexts, options.seed);
  if (options.sabotage == "pao_answers") pool.FlipAnswer(0);
  PaoOptions pao_options;
  pao_options.epsilon = kEpsilon;
  pao_options.delta = kDelta;
  pao_options.mode = PaoOptions::Mode::kTheorem3;
  pao_options.max_contexts = kMaxContexts;

  // Reference optimum under the true probabilities (not timed).
  Result<UpsilonResult> optimum = UpsilonAot(graph, tree.probs);
  if (!optimum.ok()) {
    report->Fail("pao_setup", optimum.status().ToString());
    return;
  }
  double optimum_cost =
      ExactExpectedCost(graph, optimum->strategy, tree.probs);

  // --- Setup (timed, repeated): assemble the stack, compute quotas.
  int64_t quota_sum = 0;
  Tracer off(false);
  ReplayOracle setup_oracle(&pool, 0);
  double setup_s = MedianSeconds(kSetupRepeats, kSetupSeconds, [&] {
    Stack stack(&setup_oracle, &off, options.seed, nullptr);
    std::vector<int64_t> quotas = Pao::ComputeQuotas(graph, pao_options);
    quota_sum = 0;
    for (int64_t q : quotas) quota_sum += q;
  });

  // First (deterministic) pass of the untraced phase, and the wall time
  // of every untraced run.
  std::vector<Episode> pass;
  std::vector<double> learn_s;
  std::string error;
  int64_t wrong = 0, attempts = 0, episodes_run = 0;
  auto run_phase = [&](Tracer* tracer, double seconds, PhaseStats* stats,
                       bool record_pass) {
    attempts = episodes_run = 0;
    Span phase(tracer, SpanKind::kPhase);
    LoopResult loop = TimedLoop(seconds, kEpisodes, [&](int64_t e) {
      Episode episode = RunEpisode(
          graph, pool, static_cast<int>(e % kEpisodes), pao_options,
          options.seed, checkpoint_path, tracer, stats, nullptr);
      ++episodes_run;
      if (!episode.result.ok()) {
        error = episode.result.status().ToString();
        return;
      }
      if (!episode.checkpoint_error.empty()) error = episode.checkpoint_error;
      if (episode.dropped > 0) error = "the JSONL trace dropped events";
      stats->contexts += episode.queries;
      wrong += episode.wrong;
      attempts += episode.attempts;
      if (record_pass) learn_s.push_back(episode.elapsed_s);
      if (record_pass && e < kEpisodes) pass.push_back(std::move(episode));
    });
    stats->elapsed_s = loop.elapsed_s;
  };

  PhaseStats untraced;
  run_phase(&off, options.trace ? options.seconds / 2 : options.seconds,
            &untraced, true);
  if (!error.empty() || pass.size() != kEpisodes) {
    report->Fail("pao_run", error);
    return;
  }

  std::vector<double> learn_contexts, final_ratio, final_costs;
  double pass_cost = 0.0;
  int64_t pass_contexts = 0, pass_events = 0, pass_trace_bytes = 0,
          pass_audit_bytes = 0, pass_windows = 0, faults = 0, retries = 0,
          degraded = 0, checkpoints = 0, checkpoint_bytes = 0;
  for (const Episode& e : pass) {
    learn_contexts.push_back(static_cast<double>(e.result->contexts_used));
    double cost = ExactExpectedCost(graph, e.result->strategy, tree.probs);
    final_costs.push_back(cost);
    final_ratio.push_back(cost / optimum_cost);
    pass_cost += e.cost;
    pass_contexts += e.queries;
    pass_events += e.events;
    pass_trace_bytes += e.trace_bytes;
    pass_audit_bytes += e.audit_bytes;
    pass_windows += e.windows;
    faults += e.faults;
    retries += e.retries;
    degraded += e.degraded;
    checkpoints += e.checkpoints;
    checkpoint_bytes += e.checkpoint_bytes;
  }

  report->Note("pao: " + std::to_string(graph.num_arcs()) + " arcs, " +
               std::to_string(graph.num_experiments()) + " experiments, " +
               std::to_string(kEpisodes) + " runs per pass, quota sum " +
               std::to_string(quota_sum) + ", " +
               std::to_string(pass_contexts) + " contexts in the first pass");
  report->Add("setup_s", setup_s, "s");
  AddServeMetrics(untraced, report);
  report->Add("mean_cost", pass_cost / static_cast<double>(pass_contexts),
              "cost");
  report->Add("final_cost_ratio", Median(final_ratio), "ratio");
  report->Add("learn_contexts", Median(learn_contexts), "count");
  report->Add("learn_s", Mean(learn_s), "s");

  PhaseStats traced;
  if (options.trace) {
    Tracer tracer(true);
    run_phase(&tracer, options.seconds / 2, &traced, false);
    if (!error.empty()) report->Fail("pao_run", error);
    double n = static_cast<double>(traced.contexts);
    double pass_n = static_cast<double>(pass_contexts);
    double qpa_ns = tracer.totals(SpanKind::kQpa).self_ns;
    // QP^A runs the engine with the observer inline, so the engine's
    // per-attempt time here includes the observer's event calls.
    report->Add("engine.qpa_us_per_ctx", qpa_ns / 1e3 / n, "us");
    report->Add("engine.execute_us_per_query", qpa_ns / 1e3 / n, "us");
    report->Add("engine.attempts_per_query", attempts / n, "count");
    report->Add("engine.ns_per_attempt", qpa_ns / attempts, "ns");
    report->Add("core.upsilon_us",
                tracer.totals(SpanKind::kUpsilon).total_ns / 1e3 /
                    static_cast<double>(episodes_run),
                "us");
    report->Add("core.pao_quota_sum", static_cast<double>(quota_sum),
                "count");
    report->Add("obs.sink_us_per_ctx",
                tracer.totals(SpanKind::kSink).self_ns / 1e3 / n, "us");
    report->Add("obs.events_per_ctx", pass_events / pass_n, "count");
    report->Add("obs.trace_bytes_per_ctx", pass_trace_bytes / pass_n, "B");
    report->Add("obs.audit_bytes_per_ctx", pass_audit_bytes / pass_n, "B");
    const Tracer::Totals& health = tracer.totals(SpanKind::kHealth);
    report->Add("obs.health_us_per_window",
                health.count > 0 ? health.total_ns / 1e3 / health.count : 0.0,
                "us");
    report->Add("obs.windows", static_cast<double>(pass_windows), "count");
    const Tracer::Totals& ckpt = tracer.totals(SpanKind::kCheckpoint);
    report->Add("robust.checkpoint_us",
                ckpt.count > 0 ? ckpt.total_ns / 1e3 / ckpt.count : 0.0, "us");
    report->Add("robust.checkpoint_bytes",
                checkpoints > 0 ? static_cast<double>(checkpoint_bytes) /
                                      static_cast<double>(checkpoints)
                                : 0.0,
                "B");
    report->Add("robust.faults", static_cast<double>(faults), "count");
    report->Add("robust.retries", static_cast<double>(retries), "count");
    report->Add("robust.degraded", static_cast<double>(degraded), "count");
    report->Add("workload.gen_us_per_ctx",
                tracer.totals(SpanKind::kOracleNext).self_ns / 1e3 / n, "us");
    AddTraceMetrics(tracer, untraced, traced, report);
    if (!options.spans_out.empty()) tracer.WriteRaw(options.spans_out);
  }

  // --- Checks (not timed).
  report->attempted = untraced.contexts + traced.contexts;
  report->failed = wrong;
  if (wrong > 0) {
    report->Fail("pao_answers", std::to_string(wrong) +
                                    " answers differ from root-path "
                                    "reachability");
  }
  for (size_t e = 0; e < final_costs.size(); ++e) {
    double cost = final_costs[e];
    if (options.sabotage == "pao_cost") cost += 2 * kEpsilon;
    if (cost > optimum_cost + kEpsilon) {
      report->Fail("pao_cost", "run " + std::to_string(e) + " ended at " +
                                   std::to_string(cost) + " > optimum " +
                                   std::to_string(optimum_cost) + " + eps");
    }
  }
  // The JSONL trace of one more run, kept in memory, must read back
  // through TraceReader with the event count the tee saw.
  std::string kept;
  PhaseStats unused;
  Tracer none(false);
  Episode check = RunEpisode(graph, pool, 0, pao_options, options.seed,
                             checkpoint_path, &none, &unused, &kept);
  if (options.sabotage == "pao_trace" && !kept.empty()) {
    kept.pop_back();  // drop the final newline, then the last line
    kept.resize(kept.rfind('\n') + 1);
  }
  std::istringstream in(kept);
  CountingSink replayed;
  obs::TraceReader reader(&replayed);
  Status read = reader.ReplayStream(in);
  if (!read.ok() || reader.skipped() != 0 || replayed.events != check.events) {
    report->Fail("pao_trace",
                 "JSONL read back " + std::to_string(replayed.events) +
                     " events (" + std::to_string(reader.skipped()) +
                     " skipped) of the " + std::to_string(check.events) +
                     " the tee saw" +
                     (read.ok() ? "" : ": " + read.ToString()));
  }
}

}  // namespace stratbench
