// stratlearn command-line tool.
//
// Subcommands:
//   query <program.dl> <atom>
//       Prove a query with the reference SLD evaluator.
//   dot <program.dl> <query-form>
//       Unfold the rules for a query form and print the inference graph
//       as Graphviz DOT.
//   learn-pib <program.dl> <query-form> <workload.txt> [options]
//       Watch the query stream with PIB and print the learned strategy.
//   learn-pao <program.dl> <query-form> <workload.txt> [options]
//       Run PAO sampling and print the (probably approximately) optimal
//       strategy.
//   eval <program.dl> <query-form> <workload.txt> [strategy-file]
//       Report expected costs: the given (or default) strategy, the
//       Smith fact-count baseline, and the workload optimum.
//   explain <program.dl> <query-form> <workload.txt> [options]
//       Run a learner (--learner=pib|pao) with the strategy profiler
//       attached and print the learned strategy as an annotated
//       inference-graph tree (visit order, p^ +/- eps, cost share, HOT
//       markers), the learner's estimate state (climb history and
//       Delta~ margins for PIB, quota progress for PAO), and the
//       per-arc attribution report. Output is deterministic for a
//       fixed seed.
//   bench [--workload=all|<name>] [--repetitions=N] [--warmup=N]
//         [--seed=S] [--out=DIR] [--fake-clock] [--timestamp=ISO]
//         [--list]
//       Run the canonical perf workloads (Datalog load, Figure-1/2
//       execution, PIB climb, PAO quota run, Upsilon ordering) with
//       warmup + N timed repetitions on the monotonic clock, print a
//       p50/p90/p99 table, and write one BENCH_<workload>.json (run
//       manifest + latency percentiles + throughput + peak RSS) per
//       workload into --out. --fake-clock reports deterministic
//       work-units as latencies, making the files byte-reproducible
//       for a fixed seed — the form the CI regression gate diffs with
//       tools/bench_compare. See README "Performance tracking".
//   health <series.jsonl> --alerts=RULES [--format=text|json]
//          [--health-out=FILE] [--recovery=POLICY]
//       Replay a serialized "stratlearn-timeseries-v1" file through the
//       statistical health monitor: the drift detectors (Hoeffding
//       two-window p^ test, Page-Hinkley mean-cost test, counter-delta
//       rate anomalies) and the declarative alert rules from a
//       "stratlearn-alerts v1" file. Prints the health report (text or
//       "stratlearn-health-v1" JSON). Because the series is serialized
//       at round-trip precision, the offline replay reaches decisions
//       byte-identical to the live run's. Exit code: 0 healthy, 1
//       alerts firing, 2 usage error (bad flags, unreadable inputs,
//       alert rules with verify errors).
//   audit <audit.jsonl> [--format=text|json]
//       Render a "stratlearn-audit v1" decision-audit file (written by
//       learn-pib/learn-pao --audit-out) as a deterministic convergence
//       report: the certificate table with per-decision efficiency
//       ratios (samples used vs. the Theorem 1-3 bound), the
//       per-learner delta-budget ledger, the regret curve and the run
//       summary. Exit code: 0 clean, 1 findings (overspent ledger,
//       non-conservative certificate), 2 usage/malformed input.
//   verify <files...> [--project=DIR] [--format=text|json|sarif]
//          [--profile=FILE] [--suppressions=FILE] [--suppress-out=FILE]
//          [--Werror]
//       Statically analyse artifacts without running anything: Datalog
//       programs (*.dl, with optional '% verify-form:',
//       '% verify-strategy:', '% verify-config:' and
//       '% verify-dataflow-cap:' directives), serialized graphs
//       ("stratlearn-graph v1"), AND/OR trees ("stratlearn-andor v1"),
//       strategies ("stratlearn-strategy v1") and learner configs
//       (*.cfg). Semantic passes run on top of the structural ones: a
//       fixpoint adornment dataflow over rule bases (V-D...) and an
//       abstract cost interpretation over strategies (V-X...), whose
//       probability intervals a --profile StrategyProfiler JSON report
//       narrows from the default [0, 1]. --project walks DIR
//       recursively and verifies every recognised artifact in a
//       deterministic context-threading order (programs before the
//       strategies/configs that need their graphs).
//       --suppressions applies a "stratlearn-suppressions v1" baseline
//       file; --suppress-out writes one capturing the current findings.
//       --format=sarif emits a deterministic SARIF 2.1.0 log for CI
//       annotation uploads. Exit code: 0 clean, 1 warnings, 2 errors
//       (--Werror promotes warnings). See README "Static verification"
//       for the diagnostic-code table.
//
// Options: --delta=D --epsilon=E --queries=N --theorem3 --seed=S
//          --learner=pib|pao --strategy-out=FILE --metrics-out=FILE
//          --trace-out=FILE --profile-out=FILE --format=text|json
//          --Werror
//
// Fault tolerance & checkpointing (learn-pib / learn-pao):
//   --fault-plan=FILE       load a "stratlearn-faultplan v1" file and run
//                           retrievals on the resilient path (retries,
//                           circuit breaker, cost budget; see README
//                           "Fault tolerance & checkpointing")
//   --checkpoint=FILE       crash-safe learner checkpoint (CRC-32
//                           checksummed, written atomically); the final
//                           state is always written on success
//   --checkpoint-every=N    additionally checkpoint every N queries
//   --resume                restore the checkpoint before running; a
//                           missing/corrupt checkpoint degrades to a
//                           V-K001 warning and a fresh start (exit 0)
//   --halt-after=K          (learn-pib) stop with exit code 3 after K
//                           queries without checkpointing — a scripted
//                           crash for kill-and-resume tests
//
// Every graph-based subcommand re-checks its loaded program and graph
// with the error-level verify passes first, so malformed inputs fail
// fast with exit code 2 instead of producing meaningless learner runs.
//
// Observability (learn-pib / learn-pao / eval / explain): --metrics-out
// writes a JSON metrics snapshot, --trace-out writes an event trace (a
// *.jsonl path gets one JSON object per line; any other extension gets
// a chrome://tracing-loadable JSON array), --profile-out writes the
// strategy profiler's aggregated JSON report, and a metrics summary is
// printed for the non-explain commands. Output paths that cannot be
// opened fail the command up front, before any work runs. See
// docs/OBSERVABILITY.md for the schema.
//
// Streaming telemetry (learn-pib / learn-pao):
//   --metrics-export=FILE   periodically overwrite FILE with an
//                           OpenMetrics / Prometheus text dump of the
//                           registry (atomic rename, scraper-safe); a
//                           final dump is always written at end of run
//   --export-every=N        export cadence in clock units (default:
//                           1000000 steady-clock us, or 100 queries on
//                           the fake clock)
//   --timeseries-out=FILE   write the windowed time-series ("stratlearn-
//                           timeseries v1" JSONL: per-window counter
//                           deltas/rates, histogram activity, per-arc
//                           p-hat / mean cost) at end of run; render it
//                           with tools/stats_report
//   --timeseries-every=N    window length in clock units (same defaults
//                           as --export-every)
//   --obs-clock=MODE        'steady' (default) stamps windows with real
//                           steady-clock microseconds; 'fake' advances
//                           the telemetry clock one unit per query, so
//                           runs are byte-deterministic for a fixed seed
//
// Health monitoring (learn-pib / learn-pao):
//   --alerts=FILE           load "stratlearn-alerts v1" rules and attach
//                           the statistical health monitor to the
//                           windowed time-series (implies the window
//                           collector even without --timeseries-out).
//                           Drift/alert transitions are traced
//                           (--trace-out), annotated onto the serialized
//                           series, and exported as alert_firing.<id>
//                           gauges (--metrics-export); the run prints a
//                           one-line health summary at the end. Rules
//                           with verify errors (V-AL...) fail the run up
//                           front with exit code 2.
//   --health-out=FILE       write the "stratlearn-health-v1" JSON report
//                           at end of run (requires --alerts)
//
// Drift reaction & self-healing (learn-pib / learn-pao):
//   --recovery=FILE         load a "stratlearn-recovery v1" policy
//                           (verified through the V-RC passes; errors
//                           exit 2) and attach the recovery controller
//                           to the health monitor (requires --alerts).
//                           Drift/alert transitions matched by a policy
//                           rule trigger graduated actions instead of a
//                           cold restart: rebaseline (rewind the
//                           sequential trial counter, widening epsilon),
//                           rollback (restore PIB state from the newest
//                           known-good ring checkpoint), restart_scoped
//                           (reset only the drifted subtree's tallies)
//                           and quarantine (force the arc's circuit
//                           breaker open with a half-open probe). Each
//                           applied action is traced as a RecoveryEvent
//                           and, with --audit-out, certified so
//                           tools/audit_verify --recovery=FILE
//                           re-derives why it fired. A `ring N`
//                           directive retains N health-stamped
//                           "<checkpoint>.ring<k>" rollback slots
//                           (requires --checkpoint). See README "Fault
//                           tolerance" and docs/OBSERVABILITY.md.
//
// Decision audit (learn-pib / learn-pao):
//   --audit-out=FILE        write the "stratlearn-audit v1" stream: one
//                           PAC decision certificate per statistically
//                           significant learner decision (climb
//                           commit/reject, sequential-test stop, PAO
//                           quota transition) with the exact counts,
//                           thresholds and the delta_i drawn from the
//                           running delta-budget ledger, plus windowed
//                           regret records against the incumbent and
//                           oracle strategies. tools/audit_verify
//                           re-derives every certificate from the
//                           --trace-out JSONL; `stratlearn_cli audit`
//                           renders the convergence report. Without the
//                           flag no certificate is ever emitted, so
//                           runs stay byte-identical to earlier builds.
//   --audit-every=N         subsample high-volume *reject* certificates
//                           to every N-th test round (commit/stop/quota
//                           certificates are never subsampled)
//   --audit-window=N        queries per regret-accounting window
//                           (default 100)
//
// Program files are Datalog ("instructor(X) :- prof(X). prof(russ).").
// Workload files hold one query per line: "<weight> <arg1> [<arg2> ...]";
// '#' starts a comment.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/expected_cost.h"
#include "robust/checkpoint.h"
#include "robust/fault_injector.h"
#include "robust/fault_plan.h"
#include "robust/recovery/controller.h"
#include "core/explain.h"
#include "core/pao.h"
#include "core/pib.h"
#include "core/smith.h"
#include "core/upsilon.h"
#include "datalog/evaluator.h"
#include "datalog/parser.h"
#include "engine/query_processor.h"
#include "graph/serialization.h"
#include "obs/audit/audit_log.h"
#include "obs/health/monitor.h"
#include "obs/health/series_io.h"
#include "obs/observer.h"
#include "obs/openmetrics.h"
#include "obs/perf/bench_runner.h"
#include "obs/perf/workloads.h"
#include "obs/profiler.h"
#include "obs/sinks.h"
#include "obs/timer.h"
#include "obs/timeseries.h"
#include "util/string_util.h"
#include "verify/diagnostics.h"
#include "verify/sarif.h"
#include "verify/suppressions.h"
#include "verify/verify.h"
#include "workload/datalog_oracle.h"

#include "offline_audit.h"
#include "offline_health.h"

namespace stratlearn {
namespace {

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

struct CliOptions {
  double delta = 0.05;
  double epsilon = 0.5;
  int64_t queries = 5000;
  bool theorem3 = false;
  uint64_t seed = 1;
  std::string learner = "pib";
  std::string format = "text";
  bool werror = false;
  // verify subcommand.
  std::string project;
  std::string profile;
  std::string suppressions;
  std::string suppress_out;
  int64_t max_contexts = 0;  // 0 = the LearnerConfig default
  std::string strategy_out;
  std::string metrics_out;
  std::string trace_out;
  std::string profile_out;
  // Streaming telemetry.
  std::string metrics_export;
  int64_t export_every = 0;  // 0 = auto for the clock mode
  std::string timeseries_out;
  int64_t timeseries_every = 0;  // 0 = auto for the clock mode
  std::string obs_clock = "steady";
  // Health monitoring.
  std::string alerts;
  std::string health_out;
  // Drift reaction (recovery controller).
  std::string recovery;
  // Decision audit.
  std::string audit_out;
  int64_t audit_every = 1;
  int64_t audit_window = 100;
  // Fault tolerance & checkpointing.
  std::string fault_plan;
  std::string checkpoint;
  int64_t checkpoint_every = 0;
  bool resume = false;
  int64_t halt_after = 0;
  // bench subcommand.
  std::string workload = "all";
  int repetitions = 10;
  int warmup = 2;
  std::string out_dir = ".";
  bool fake_clock = false;
  std::string timestamp;
  bool list = false;
  std::vector<std::string> positional;
};

/// Observability wiring for one CLI command: a registry, an optional
/// file trace sink chosen by --trace-out's extension, an optional
/// StrategyProfiler (always on for `explain`, otherwise only with
/// --profile-out), and the streaming-telemetry pair — a
/// TimeSeriesCollector (--timeseries-out) teed onto the same event
/// stream and a PeriodicOpenMetricsExporter (--metrics-export) — all
/// sharing one clock domain chosen by --obs-clock. All output paths are
/// opened (or probe-written) in the constructor so a bad path fails the
/// command before any work runs, instead of silently dropping telemetry
/// at the end; check `status` right after construction.
/// Regret baselines for the decision audit log: expected per-query
/// costs of the incumbent (initial) and oracle-optimal strategies under
/// the workload's true probabilities. Commands that know the truth
/// (learn-pib / learn-pao, whose workload generator is exact) fill this
/// in; `have` stays false otherwise and the audit log's regret records
/// carry realized cost only.
struct AuditBaselines {
  bool have = false;
  double incumbent = 0.0;
  double oracle = 0.0;
};

struct CliObserver {
  /// `recovery` (optional) is the drift-reaction controller built from
  /// --recovery=FILE; its hook is installed on the health monitor so
  /// every closed window's transitions are matched against the policy.
  /// `resume` (optional) is the loaded checkpoint of a --resume run:
  /// its retained time-series windows are restored into the collector
  /// and replayed through the monitor (decide-only — the controller is
  /// not yet live) so detector, alert, recovery-transcript and cooldown
  /// state match the uninterrupted run's, and its audit cursor reopens
  /// the --audit-out stream in place of truncating it.
  explicit CliObserver(const CliOptions& options, bool want_profiler = false,
                       const AuditBaselines& baselines = {},
                       robust::RecoveryController* recovery = nullptr,
                       const robust::CheckpointData* resume = nullptr) {
    if (options.obs_clock != "steady" && options.obs_clock != "fake") {
      status =
          Status::InvalidArgument("--obs-clock must be 'steady' or 'fake'");
      return;
    }
    fake_clock = options.obs_clock == "fake";
    if (options.export_every < 0 || options.timeseries_every < 0) {
      status = Status::InvalidArgument(
          "--export-every / --timeseries-every must be positive");
      return;
    }
    if (!options.trace_out.empty()) {
      if (options.trace_out.ends_with(".jsonl")) {
        file_sink = std::make_unique<obs::JsonlSink>(options.trace_out);
      } else {
        file_sink = std::make_unique<obs::ChromeTraceSink>(options.trace_out);
      }
      if (!file_sink->ok()) {
        status = CannotOpen("--trace-out", options.trace_out);
        return;
      }
      // Surface post-Close / post-failure event loss in the metrics
      // snapshot instead of only on stderr.
      file_sink->set_drop_counter(
          &registry.GetCounter("obs.trace_events_dropped"));
    }
    if (!options.metrics_out.empty()) {
      metrics_stream.open(options.metrics_out);
      if (!metrics_stream) {
        status = CannotOpen("--metrics-out", options.metrics_out);
        return;
      }
    }
    if (!options.profile_out.empty()) {
      profile_stream.open(options.profile_out);
      if (!profile_stream) {
        status = CannotOpen("--profile-out", options.profile_out);
        return;
      }
    }
    if (want_profiler || !options.profile_out.empty()) {
      profiler = std::make_unique<obs::StrategyProfiler>(
          obs::ProfilerOptions{.delta = options.delta});
    }
    if (options.alerts.empty() && !options.health_out.empty()) {
      status = Status::InvalidArgument("--health-out requires --alerts=FILE");
      return;
    }
    if (recovery != nullptr && options.alerts.empty()) {
      // The controller is driven by the monitor's window hook; without
      // alert rules there is no monitor and the policy could never fire.
      status = Status::InvalidArgument("--recovery requires --alerts=FILE");
      return;
    }
    // The health monitor consumes closed windows, so --alerts implies
    // the collector even when the series itself is not written out.
    if (!options.timeseries_out.empty() || !options.alerts.empty()) {
      if (!options.timeseries_out.empty()) {
        timeseries_stream.open(options.timeseries_out);
        if (!timeseries_stream) {
          status = CannotOpen("--timeseries-out", options.timeseries_out);
          return;
        }
      }
      obs::TimeSeriesOptions ts_options;
      ts_options.interval_us =
          ResolveInterval(options.timeseries_every, fake_clock);
      timeseries =
          std::make_unique<obs::TimeSeriesCollector>(&registry, ts_options);
    }
    if (!options.alerts.empty()) {
      Result<std::string> rules_text = ReadFile(options.alerts);
      if (!rules_text.ok()) {
        status = rules_text.status();
        return;
      }
      verify::DiagnosticSink rules_sink;
      rules_sink.set_file(options.alerts);
      obs::health::AlertRuleSet rules =
          verify::ParseAlertRules(*rules_text, &rules_sink);
      if (rules_sink.HasBlocking()) {
        // Same contract as the other pre-run guards: verify errors in
        // an input artifact are exit code 2, with the findings rendered.
        status = Status::FailedPrecondition(
            StrFormat("alert rules failed verification:\n%s",
                      rules_sink.RenderText().c_str()));
        return;
      }
      if (!rules_sink.empty()) {
        // Warnings (e.g. V-AL005 empty rule set) don't block the run.
        std::fprintf(stderr, "%s", rules_sink.RenderText().c_str());
      }
      if (!options.health_out.empty()) {
        health_stream.open(options.health_out);
        if (!health_stream) {
          status = CannotOpen("--health-out", options.health_out);
          return;
        }
      }
      health = std::make_unique<obs::health::HealthMonitor>(
          std::move(rules), obs::health::HealthOptions{}, &registry);
      // Delivered outside the collector's lock, so the monitor's events
      // can flow back through the sink tee (which includes the
      // collector, annotating the just-closed window).
      timeseries->SetWindowCallback([this](const obs::TimeSeriesWindow& w) {
        health->OnWindow(w);
      });
      if (recovery != nullptr) {
        health->set_recovery_hook(recovery->Hook());
      }
    }
    if (resume != nullptr && resume->has_timeseries && timeseries != nullptr) {
      // Reinstate the checkpointed windows, then replay them through the
      // monitor before the run's own events start. The checkpoint holds
      // raw window lines without a file header, so synthesize the one
      // LoadTimeSeries expects. Failures degrade to a warning: losing
      // detector warm-up is recoverable, refusing to resume is not.
      std::ostringstream series_text;
      series_text << "{\"schema\":\"stratlearn-timeseries-v1\",\"interval_us\":"
                  << ResolveInterval(options.timeseries_every, fake_clock)
                  << ",\"capacity\":512,\"windows_closed\":"
                  << resume->ts_next_index << ",\"windows_evicted\":"
                  << resume->ts_evicted << "}\n";
      for (const std::string& line : resume->ts_windows) {
        series_text << line << "\n";
      }
      std::istringstream series_in{series_text.str()};
      obs::health::LoadedSeries series;
      Status loaded = obs::health::LoadTimeSeries(series_in, &series);
      if (loaded.ok()) {
        loaded = timeseries->Restore(resume->ts_window_start,
                                     resume->ts_next_index,
                                     resume->ts_evicted,
                                     std::move(series.windows));
      }
      if (!loaded.ok()) {
        std::fprintf(stderr,
                     "warning: cannot restore checkpointed time series "
                     "(%s); detector state starts fresh\n",
                     loaded.ToString().c_str());
      } else if (health != nullptr) {
        // Decide-only replay: drift/alert transitions re-annotate the
        // restored windows (the sink tee is not assembled yet, so
        // nothing reaches the trace or audit log) and the recovery
        // hook rebuilds the controller's transcript and cooldowns.
        health->set_event_sink(timeseries.get());
        for (const obs::TimeSeriesWindow& w : timeseries->Windows()) {
          health->OnWindow(w);
        }
      }
    }
    if (!options.audit_out.empty()) {
      if (options.audit_every < 1 || options.audit_window < 1) {
        status = Status::InvalidArgument(
            "--audit-every / --audit-window must be >= 1");
        return;
      }
      obs::AuditLogOptions audit_options;
      audit_options.delta_budget = options.delta;
      audit_options.window = options.audit_window;
      audit_options.have_baselines = baselines.have;
      audit_options.incumbent_expected_cost = baselines.incumbent;
      audit_options.oracle_expected_cost = baselines.oracle;
      if (resume != nullptr && resume->has_audit) {
        // Continue the killed run's stream: the cursor truncates its
        // trailing summary and restores the writer's counters/ledger.
        audit_log = std::make_unique<obs::AuditLog>(
            options.audit_out, audit_options, resume->audit);
      } else {
        audit_log =
            std::make_unique<obs::AuditLog>(options.audit_out, audit_options);
      }
      if (!audit_log->ok()) {
        status = CannotOpen("--audit-out", options.audit_out);
        return;
      }
    }
    if (!options.metrics_export.empty()) {
      exporter = std::make_unique<obs::PeriodicOpenMetricsExporter>(
          options.metrics_export,
          ResolveInterval(options.export_every, fake_clock));
      // Probe dump: scrapers see the file immediately, and an unwritable
      // path fails the command up front like every other output flag.
      if (!exporter->ExportNow(registry)) {
        status = CannotOpen("--metrics-export", options.metrics_export);
        return;
      }
    }
    std::vector<obs::TraceSink*> sinks;
    if (file_sink != nullptr) sinks.push_back(file_sink.get());
    if (audit_log != nullptr) sinks.push_back(audit_log.get());
    if (profiler != nullptr) sinks.push_back(profiler.get());
    if (timeseries != nullptr) sinks.push_back(timeseries.get());
    obs::TraceSink* active = nullptr;
    if (sinks.size() == 1) {
      active = sinks.front();
    } else if (sinks.size() > 1) {
      tee = std::make_unique<obs::TeeSink>(sinks);
      active = tee.get();
    }
    if (health != nullptr) health->set_event_sink(active);
    observer = std::make_unique<obs::Observer>(&registry, active);
    if (audit_log != nullptr) {
      observer->set_audit_enabled(true);
      observer->set_audit_every(options.audit_every);
    }
    // Fake clock: event timestamps and qp.query_wall_us durations come
    // from the query ordinal, not the steady clock, so two identical
    // runs produce byte-identical telemetry. A resumed run re-enters
    // the clock domain at the checkpointed query ordinal — the first
    // post-resume event must not be stamped t_us=0.
    if (fake_clock) {
      observer->UseManualClock();
      if (resume != nullptr) {
        observer->AdvanceManualClock(resume->queries_done);
      }
    }
  }

  /// Clock-unit cadence: an explicit flag wins; otherwise one window /
  /// export per steady-clock second, or per 100 queries on the fake
  /// clock.
  static int64_t ResolveInterval(int64_t flag_value, bool fake) {
    if (flag_value > 0) return flag_value;
    return fake ? 100 : 1'000'000;
  }

  /// Telemetry clock: `queries_done` on the fake clock, the observer's
  /// steady-clock microseconds otherwise.
  int64_t Now(int64_t queries_done) const {
    return fake_clock ? queries_done : observer->NowUs();
  }

  bool NeedsTicks() const {
    return timeseries != nullptr || exporter != nullptr;
  }

  /// Per-query cadence driver: closes elapsed time-series windows and
  /// writes an OpenMetrics dump when its interval has passed. Cheap when
  /// neither flag is set (two null checks).
  void Tick(int64_t queries_done) {
    if (fake_clock) observer->AdvanceManualClock(queries_done);
    if (!NeedsTicks()) return;
    int64_t now = Now(queries_done);
    last_now_ = now;
    if (timeseries != nullptr) timeseries->AdvanceTo(now);
    if (exporter != nullptr) exporter->MaybeExport(now, registry);
  }

  /// Closes (finalises) the trace, optionally prints the summary, and
  /// writes the --metrics-out / --profile-out reports to the streams
  /// opened up front. Mid-run and end-of-run I/O failures (disk filled
  /// up, pipe closed) degrade to a single stderr warning per output:
  /// the learner's result was already computed and printed, and losing
  /// telemetry must not turn a successful run into a failed one.
  Status Finish(const CliOptions& options, bool print_summary = true) {
    if (file_sink != nullptr) {
      file_sink->Close();
      if (TraceSinkFailed()) {
        std::fprintf(stderr,
                     "warning: trace output to '%s' is incomplete (write "
                     "failure mid-run)\n",
                     options.trace_out.c_str());
      } else {
        std::printf("trace written to %s\n", options.trace_out.c_str());
      }
    }
    if (audit_log != nullptr) {
      audit_log->Close();
      if (audit_log->failed()) {
        std::fprintf(stderr,
                     "warning: audit log '%s' is incomplete (write failure "
                     "mid-run)\n",
                     options.audit_out.c_str());
      } else {
        std::printf("audit log written to %s (%lld certificates)\n",
                    options.audit_out.c_str(),
                    static_cast<long long>(
                        audit_log->certificates_written()));
      }
    }
    if (print_summary) {
      std::string summary = registry.Summary();
      if (!summary.empty()) {
        std::printf("metrics summary:\n%s", summary.c_str());
      }
    }
    if (metrics_stream.is_open()) {
      metrics_stream << registry.SnapshotJson() << "\n";
      metrics_stream.flush();
      if (!metrics_stream) {
        std::fprintf(stderr,
                     "warning: failed writing metrics to '%s' (disk full "
                     "or closed pipe?); continuing without it\n",
                     options.metrics_out.c_str());
      } else {
        std::printf("metrics written to %s\n", options.metrics_out.c_str());
      }
    }
    if (profile_stream.is_open() && profiler != nullptr) {
      profile_stream << profiler->ReportJson() << "\n";
      profile_stream.flush();
      if (!profile_stream) {
        std::fprintf(stderr,
                     "warning: failed writing profile to '%s' (disk full "
                     "or closed pipe?); continuing without it\n",
                     options.profile_out.c_str());
      } else {
        std::printf("profile written to %s\n", options.profile_out.c_str());
      }
    }
    if (timeseries != nullptr) {
      // Close the trailing partial window at the last tick (fake clock)
      // or at real end-of-run time, then write the series. The health
      // monitor (if attached) sees that final window via the callback
      // before anything below reads its state.
      timeseries->Finalize(fake_clock ? last_now_ : observer->NowUs());
      if (timeseries_stream.is_open()) {
        timeseries_stream << timeseries->SerializeJsonl();
        timeseries_stream.flush();
        if (!timeseries_stream) {
          std::fprintf(stderr,
                       "warning: failed writing time series to '%s' (disk "
                       "full or closed pipe?); continuing without it\n",
                       options.timeseries_out.c_str());
        } else {
          std::printf("time series written to %s (%lld windows)\n",
                      options.timeseries_out.c_str(),
                      static_cast<long long>(
                          timeseries->windows_closed()));
        }
      }
    }
    if (health != nullptr) {
      std::printf("health: %s (%lld windows, %lld drift series active, "
                  "%lld alert rules firing)\n",
                  health->AnyFiring() ? "ALERTS FIRING" : "healthy",
                  static_cast<long long>(health->windows_seen()),
                  static_cast<long long>(health->drift_active()),
                  static_cast<long long>(health->FiringCount()));
      if (health_stream.is_open()) {
        health_stream << health->RenderJson();
        health_stream.flush();
        if (!health_stream) {
          std::fprintf(stderr,
                       "warning: failed writing health report to '%s' "
                       "(disk full or closed pipe?); continuing without "
                       "it\n",
                       options.health_out.c_str());
        } else {
          std::printf("health report written to %s\n",
                      options.health_out.c_str());
        }
      }
    }
    if (exporter != nullptr) {
      // Final dump so the exported file reflects end-of-run state even
      // when the run ended mid-interval.
      if (exporter->ExportNow(registry)) {
        std::printf("metrics exported to %s (%lld dumps)\n",
                    exporter->path().c_str(),
                    static_cast<long long>(exporter->exports()));
      }
    }
    return Status::OK();
  }

  /// Whether the file trace sink disabled itself after a write failure.
  bool TraceSinkFailed() const {
    return file_sink != nullptr && file_sink->failed();
  }

  static Status CannotOpen(const char* flag, const std::string& path) {
    return Status::Internal(StrFormat("cannot open '%s' for %s output",
                                      path.c_str(), flag));
  }

  Status status;
  obs::MetricsRegistry registry;
  bool fake_clock = false;
  std::unique_ptr<obs::StreamSink> file_sink;
  std::unique_ptr<obs::AuditLog> audit_log;
  std::unique_ptr<obs::StrategyProfiler> profiler;
  std::unique_ptr<obs::TimeSeriesCollector> timeseries;
  std::unique_ptr<obs::health::HealthMonitor> health;
  std::unique_ptr<obs::PeriodicOpenMetricsExporter> exporter;
  std::unique_ptr<obs::TeeSink> tee;
  std::unique_ptr<obs::Observer> observer;
  std::ofstream metrics_stream;
  std::ofstream profile_stream;
  std::ofstream timeseries_stream;
  std::ofstream health_stream;
  /// Last telemetry-clock reading seen by Tick (fake-clock finalise).
  int64_t last_now_ = 0;
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

/// Exit code for a failed Status: verification failures
/// (FailedPrecondition, from verify::GuardLoadedProgram) use the verify
/// contract's error exit code 2; everything else stays 1.
int FailStatus(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return status.code() == StatusCode::kFailedPrecondition ? 2 : 1;
}

/// Builds the fault injector for --fault-plan, or null without the flag.
/// A --recovery run without a fault plan still gets a zero-fault
/// injector: the quarantine action drives the circuit breakers, which
/// live in the injector, and synthesizing it unconditionally keeps the
/// checkpoint's has-injector bit consistent across kill and resume.
Result<std::unique_ptr<robust::FaultInjector>> MakeInjector(
    const CliOptions& options) {
  if (options.fault_plan.empty()) {
    if (!options.recovery.empty()) {
      return std::make_unique<robust::FaultInjector>(robust::FaultPlan{});
    }
    return std::unique_ptr<robust::FaultInjector>();
  }
  Result<robust::FaultPlan> plan = robust::FaultPlan::Load(options.fault_plan);
  if (!plan.ok()) return plan.status();
  std::printf("fault plan: %s%s\n", options.fault_plan.c_str(),
              plan->ZeroFault() ? " (zero-fault)" : "");
  return std::make_unique<robust::FaultInjector>(*std::move(plan));
}

/// Loads and verifies the --recovery policy file. The V-RC passes are
/// the loader, so a policy that fails verification fails the run up
/// front with exit code 2 (FailedPrecondition), same as alert rules.
Result<robust::RecoveryPolicy> LoadRecoveryPolicy(const std::string& path) {
  Result<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();
  verify::DiagnosticSink sink;
  sink.set_file(path);
  robust::RecoveryPolicy policy = verify::ParseRecoveryPolicy(*text, &sink);
  if (sink.HasBlocking()) {
    return Status::FailedPrecondition(
        StrFormat("recovery policy failed verification:\n%s",
                  sink.RenderText().c_str()));
  }
  if (!sink.empty()) {
    std::fprintf(stderr, "%s", sink.RenderText().c_str());
  }
  return policy;
}

/// Graceful degradation on an unusable checkpoint (missing file, failed
/// CRC, malformed payload, state that does not fit this run): one
/// V-K001 warning diagnostic on stderr, then the caller starts from the
/// initial state. Deliberately not an error — a learner that survives a
/// crash must also survive losing its checkpoint.
void WarnBadCheckpoint(const std::string& path, const Status& status) {
  verify::DiagnosticSink sink;
  sink.set_file(path);
  sink.Warning("V-K001", "", status.message(),
               "cannot resume from this checkpoint; starting from the "
               "initial state instead (delete the file or drop --resume "
               "to silence this)");
  std::fprintf(stderr, "%s", sink.RenderText().c_str());
}

/// Pre-flight check of the learner parameters (and, for PAO, the
/// Equation 7/8 quotas against `graph`). Returns 0 to proceed; exit
/// code 2 on error-level findings — notably delta outside (0, 1), which
/// would otherwise abort inside the Pib constructor.
int CheckLearnerConfig(const CliOptions& options,
                       const InferenceGraph* graph) {
  verify::LearnerConfig config;
  config.delta = options.delta;
  config.epsilon = options.epsilon;
  config.queries = options.queries;
  config.theorem3 = options.theorem3;
  if (options.max_contexts > 0) config.max_contexts = options.max_contexts;
  verify::DiagnosticSink sink;
  verify::VerifyLearnerConfig(config, graph, &sink);
  if (graph != nullptr) {
    verify::VerifyQuotaFeasibility(config, *graph, nullptr, &sink);
  }
  if (!sink.HasBlocking()) return 0;
  std::fprintf(stderr, "%s", sink.RenderText().c_str());
  return 2;
}

CliOptions ParseArgs(int argc, char** argv) {
  CliOptions options;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (StartsWith(arg, "--delta=")) {
      options.delta = std::atof(arg.c_str() + 8);
    } else if (StartsWith(arg, "--epsilon=")) {
      options.epsilon = std::atof(arg.c_str() + 10);
    } else if (StartsWith(arg, "--queries=")) {
      options.queries = std::atoll(arg.c_str() + 10);
    } else if (arg == "--theorem3") {
      options.theorem3 = true;
    } else if (StartsWith(arg, "--seed=")) {
      options.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (StartsWith(arg, "--strategy-out=")) {
      options.strategy_out = arg.substr(15);
    } else if (StartsWith(arg, "--metrics-out=")) {
      options.metrics_out = arg.substr(14);
    } else if (StartsWith(arg, "--trace-out=")) {
      options.trace_out = arg.substr(12);
    } else if (StartsWith(arg, "--profile-out=")) {
      options.profile_out = arg.substr(14);
    } else if (StartsWith(arg, "--metrics-export=")) {
      options.metrics_export = arg.substr(17);
    } else if (StartsWith(arg, "--export-every=")) {
      options.export_every = std::atoll(arg.c_str() + 15);
    } else if (StartsWith(arg, "--timeseries-out=")) {
      options.timeseries_out = arg.substr(17);
    } else if (StartsWith(arg, "--timeseries-every=")) {
      options.timeseries_every = std::atoll(arg.c_str() + 19);
    } else if (StartsWith(arg, "--obs-clock=")) {
      options.obs_clock = arg.substr(12);
    } else if (StartsWith(arg, "--alerts=")) {
      options.alerts = arg.substr(9);
    } else if (StartsWith(arg, "--health-out=")) {
      options.health_out = arg.substr(13);
    } else if (StartsWith(arg, "--recovery=")) {
      options.recovery = arg.substr(11);
    } else if (StartsWith(arg, "--audit-out=")) {
      options.audit_out = arg.substr(12);
    } else if (StartsWith(arg, "--audit-every=")) {
      options.audit_every = std::atoll(arg.c_str() + 14);
    } else if (StartsWith(arg, "--audit-window=")) {
      options.audit_window = std::atoll(arg.c_str() + 15);
    } else if (StartsWith(arg, "--fault-plan=")) {
      options.fault_plan = arg.substr(13);
    } else if (StartsWith(arg, "--checkpoint=")) {
      options.checkpoint = arg.substr(13);
    } else if (StartsWith(arg, "--checkpoint-every=")) {
      options.checkpoint_every = std::atoll(arg.c_str() + 19);
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (StartsWith(arg, "--halt-after=")) {
      options.halt_after = std::atoll(arg.c_str() + 13);
    } else if (StartsWith(arg, "--learner=")) {
      options.learner = arg.substr(10);
    } else if (StartsWith(arg, "--workload=")) {
      options.workload = arg.substr(11);
    } else if (StartsWith(arg, "--repetitions=")) {
      options.repetitions = std::atoi(arg.c_str() + 14);
    } else if (StartsWith(arg, "--warmup=")) {
      options.warmup = std::atoi(arg.c_str() + 9);
    } else if (StartsWith(arg, "--out=")) {
      options.out_dir = arg.substr(6);
    } else if (arg == "--fake-clock") {
      options.fake_clock = true;
    } else if (StartsWith(arg, "--timestamp=")) {
      options.timestamp = arg.substr(12);
    } else if (arg == "--list") {
      options.list = true;
    } else if (StartsWith(arg, "--format=")) {
      options.format = arg.substr(9);
    } else if (arg == "--Werror") {
      options.werror = true;
    } else if (StartsWith(arg, "--project=")) {
      options.project = arg.substr(10);
    } else if (StartsWith(arg, "--profile=")) {
      options.profile = arg.substr(10);
    } else if (StartsWith(arg, "--suppressions=")) {
      options.suppressions = arg.substr(15);
    } else if (StartsWith(arg, "--suppress-out=")) {
      options.suppress_out = arg.substr(15);
    } else if (StartsWith(arg, "--max-contexts=")) {
      options.max_contexts = std::atoll(arg.c_str() + 15);
    } else {
      options.positional.push_back(arg);
    }
  }
  return options;
}

/// Shared loading pipeline for the graph-based subcommands.
struct Loaded {
  SymbolTable symbols;
  Database db;
  RuleBase rules;
  BuiltGraph built;
  QueryWorkload workload;
};

Result<std::unique_ptr<Loaded>> Load(const std::string& program_path,
                                     const std::string& form_text,
                                     const std::string& workload_path) {
  auto loaded = std::make_unique<Loaded>();
  Result<std::string> program = ReadFile(program_path);
  if (!program.ok()) return program.status();
  Parser parser(&loaded->symbols);
  STRATLEARN_RETURN_IF_ERROR(
      parser.LoadProgram(*program, &loaded->db, &loaded->rules));

  Result<QueryForm> form = QueryForm::Parse(form_text, &loaded->symbols);
  if (!form.ok()) return form.status();
  Result<BuiltGraph> built =
      BuildInferenceGraph(loaded->rules, *form, &loaded->symbols);
  if (!built.ok()) return built.status();
  loaded->built = std::move(*built);
  STRATLEARN_RETURN_IF_ERROR(verify::GuardLoadedProgram(
      loaded->rules, loaded->built, loaded->db, loaded->symbols));

  if (!workload_path.empty()) {
    Result<std::string> workload_text = ReadFile(workload_path);
    if (!workload_text.ok()) return workload_text.status();
    int line_number = 0;
    for (const std::string& raw : Split(*workload_text, '\n')) {
      ++line_number;
      std::string clipped = raw.substr(0, raw.find('#'));
      std::string_view line = Trim(clipped);
      if (line.empty()) continue;
      std::vector<std::string> fields;
      for (const std::string& f : Split(line, ' ')) {
        if (!Trim(f).empty()) fields.emplace_back(Trim(f));
      }
      if (fields.size() < 2) {
        return Status::InvalidArgument(StrFormat(
            "workload line %d needs '<weight> <args...>'", line_number));
      }
      QueryWorkload::Entry entry;
      entry.weight = std::atof(fields[0].c_str());
      if (entry.weight <= 0.0) {
        return Status::InvalidArgument(
            StrFormat("workload line %d has non-positive weight",
                      line_number));
      }
      for (size_t i = 1; i < fields.size(); ++i) {
        entry.args.push_back(loaded->symbols.Intern(fields[i]));
      }
      if (entry.args.size() != loaded->built.form.bound.size()) {
        return Status::InvalidArgument(StrFormat(
            "workload line %d has %zu args; the query form expects %zu "
            "(free positions still take a placeholder constant)",
            line_number, entry.args.size(),
            loaded->built.form.bound.size()));
      }
      loaded->workload.entries.push_back(std::move(entry));
    }
    if (loaded->workload.entries.empty()) {
      return Status::InvalidArgument("workload file has no entries");
    }
  }
  return loaded;
}

/// Regret baselines for --audit-out: the incumbent is the strategy the
/// learner starts from, the oracle is Upsilon_AOT on the workload's
/// true probabilities. Computed only when the audit log is requested
/// (UpsilonAot is a full ordering pass); an unsupported graph degrades
/// to realized-cost-only regret records instead of failing the run.
AuditBaselines MakeAuditBaselines(const CliOptions& options,
                                  const Loaded& loaded,
                                  const Strategy& initial,
                                  const std::vector<double>& truth) {
  AuditBaselines baselines;
  if (options.audit_out.empty()) return baselines;
  Result<UpsilonResult> optimal = UpsilonAot(loaded.built.graph, truth);
  if (!optimal.ok()) return baselines;
  baselines.have = true;
  baselines.incumbent = ExactExpectedCost(loaded.built.graph, initial, truth);
  baselines.oracle =
      ExactExpectedCost(loaded.built.graph, optimal->strategy, truth);
  return baselines;
}

void PrintStrategyReport(const Loaded& loaded, const char* label,
                         const Strategy& strategy,
                         const std::vector<double>& truth) {
  std::printf("%-14s %s\n", label,
              strategy.ToString(loaded.built.graph).c_str());
  std::printf("%-14s expected cost %.4f\n", "",
              ExactExpectedCost(loaded.built.graph, strategy, truth));
}

Status MaybeWriteStrategy(const CliOptions& options,
                          const Strategy& strategy) {
  if (options.strategy_out.empty()) return Status::OK();
  std::ofstream out(options.strategy_out);
  if (!out) {
    return Status::Internal("cannot write '" + options.strategy_out + "'");
  }
  out << strategy.Serialize() << "\n";
  std::printf("strategy written to %s\n", options.strategy_out.c_str());
  return Status::OK();
}

int CmdQuery(const CliOptions& options) {
  if (options.positional.size() != 2) {
    return Fail("usage: stratlearn_cli query <program.dl> <atom>");
  }
  SymbolTable symbols;
  Parser parser(&symbols);
  Database db;
  RuleBase rules;
  Result<std::string> program = ReadFile(options.positional[0]);
  if (!program.ok()) return Fail(program.status().ToString());
  Status loaded = parser.LoadProgram(*program, &db, &rules);
  if (!loaded.ok()) return Fail(loaded.ToString());
  Result<Atom> atom = parser.ParseAtom(options.positional[1]);
  if (!atom.ok()) return Fail(atom.status().ToString());
  Evaluator evaluator(&db, &rules);
  Result<ProofResult> proof = evaluator.Prove(*atom, &symbols);
  if (!proof.ok()) return Fail(proof.status().ToString());
  std::printf("%s: %s (%lld reductions, %lld retrievals)\n",
              atom->ToString(symbols).c_str(),
              proof->proved ? "proved" : "not provable",
              static_cast<long long>(proof->reductions),
              static_cast<long long>(proof->retrievals));
  return proof->proved ? 0 : 2;
}

int CmdDot(const CliOptions& options) {
  if (options.positional.size() != 2) {
    return Fail("usage: stratlearn_cli dot <program.dl> <query-form>");
  }
  Result<std::unique_ptr<Loaded>> loaded =
      Load(options.positional[0], options.positional[1], "");
  if (!loaded.ok()) return FailStatus(loaded.status());
  std::printf("%s", (*loaded)->built.graph.ToDot("inference_graph").c_str());
  return 0;
}

int CmdLearnPib(const CliOptions& options) {
  if (options.positional.size() != 3) {
    return Fail(
        "usage: stratlearn_cli learn-pib <program.dl> <query-form> "
        "<workload.txt> [--delta= --queries= --strategy-out= --seed= "
        "--metrics-out= --trace-out= --profile-out= --metrics-export= "
        "--export-every= --timeseries-out= --timeseries-every= "
        "--obs-clock=steady|fake --alerts= --health-out= --recovery= "
        "--audit-out= --audit-every= --audit-window= --fault-plan= "
        "--checkpoint= --checkpoint-every= --resume --halt-after=]");
  }
  if (options.resume && options.checkpoint.empty()) {
    return Fail("--resume requires --checkpoint=FILE");
  }
  Result<std::unique_ptr<Loaded>> loaded_or = Load(
      options.positional[0], options.positional[1], options.positional[2]);
  if (!loaded_or.ok()) return FailStatus(loaded_or.status());
  Loaded& loaded = **loaded_or;
  if (int rc = CheckLearnerConfig(options, nullptr); rc != 0) return rc;

  DatalogOracle oracle(&loaded.built, &loaded.db, loaded.workload);
  std::vector<double> truth = oracle.TrueMarginalProbs();
  Strategy initial = Strategy::DepthFirst(loaded.built.graph);
  PrintStrategyReport(loaded, "initial:", initial, truth);

  Result<std::unique_ptr<robust::FaultInjector>> injector_or =
      MakeInjector(options);
  if (!injector_or.ok()) return Fail(injector_or.status().ToString());
  robust::FaultInjector* injector = injector_or->get();

  // Drift-reaction controller (--recovery): built before the observer so
  // its hook can be installed on the health monitor, but kept in
  // decide-only mode until every live-action target exists.
  std::unique_ptr<robust::RecoveryController> controller;
  std::unique_ptr<robust::CheckpointRing> ring;
  if (!options.recovery.empty()) {
    Result<robust::RecoveryPolicy> policy = LoadRecoveryPolicy(options.recovery);
    if (!policy.ok()) return FailStatus(policy.status());
    if (policy->ring > 0 && !options.checkpoint.empty()) {
      ring = std::make_unique<robust::CheckpointRing>(options.checkpoint,
                                                      policy->ring);
    }
    std::printf("recovery policy: %s (%zu rules%s)\n",
                options.recovery.c_str(), policy->rules.size(),
                ring != nullptr
                    ? StrFormat(", ring of %lld", (long long)policy->ring)
                        .c_str()
                    : "");
    controller =
        std::make_unique<robust::RecoveryController>(*std::move(policy));
  }

  // Load the checkpoint before the observer exists: the restored
  // time-series windows and audit cursor feed its construction. Any
  // failure degrades to a fresh start — checkpointing accelerates
  // recovery, it must never block it. When the main checkpoint is
  // unusable and a recovery ring exists, the newest known-good ring
  // slot is the fallback; only when both paths fail does the single
  // V-K001 warning fire.
  robust::CheckpointData resume_data;
  bool resumed = false;
  if (options.resume) {
    auto validate = [&](Result<robust::CheckpointData>& ckpt) -> Status {
      if (!ckpt.ok()) return ckpt.status();
      if (ckpt->learner != "pib") {
        return Status::FailedPrecondition(
            "checkpoint belongs to learner '" + ckpt->learner + "', not pib");
      }
      if (ckpt->seed != options.seed) {
        return Status::FailedPrecondition(StrFormat(
            "checkpoint was taken with --seed=%llu, this run uses %llu",
            static_cast<unsigned long long>(ckpt->seed),
            static_cast<unsigned long long>(options.seed)));
      }
      if (ckpt->has_injector != (injector != nullptr)) {
        return Status::FailedPrecondition(
            "checkpoint and this run disagree on --fault-plan");
      }
      return Status::OK();
    };
    Result<robust::CheckpointData> ckpt =
        robust::LoadCheckpoint(options.checkpoint, loaded.built.graph);
    Status restored = validate(ckpt);
    if (restored.ok()) {
      resume_data = *std::move(ckpt);
      resumed = true;
      std::printf("resumed from %s at query %lld\n",
                  options.checkpoint.c_str(),
                  static_cast<long long>(resume_data.queries_done));
    } else if (ring != nullptr) {
      Result<robust::CheckpointData> slot =
          ring->LoadNewestGood(loaded.built.graph);
      Status slot_status = validate(slot);
      if (slot_status.ok()) {
        resume_data = *std::move(slot);
        resumed = true;
        std::printf("main checkpoint unusable (%s); resumed from ring "
                    "slot at query %lld\n",
                    restored.message().c_str(),
                    static_cast<long long>(resume_data.queries_done));
      } else {
        WarnBadCheckpoint(options.checkpoint, restored);
      }
    } else {
      WarnBadCheckpoint(options.checkpoint, restored);
    }
  }

  AuditBaselines baselines = MakeAuditBaselines(options, loaded, initial,
                                                truth);
  CliObserver cli_obs(options, /*want_profiler=*/false, baselines,
                      controller.get(), resumed ? &resume_data : nullptr);
  if (!cli_obs.status.ok()) return FailStatus(cli_obs.status);
  Pib pib(&loaded.built.graph, initial, PibOptions{.delta = options.delta},
          cli_obs.observer.get());
  QueryProcessor qp(&loaded.built.graph, cli_obs.observer.get());
  qp.set_fault_injector(injector);
  Rng rng(options.seed);

  int64_t done = 0;
  if (resumed) {
    Status restored = pib.RestoreCheckpoint(resume_data.pib);
    if (restored.ok() && injector != nullptr) {
      restored = injector->RestoreState(resume_data.injector);
    }
    if (restored.ok()) {
      rng.RestoreState(resume_data.rng_state);
      done = resume_data.queries_done;
      if (ring != nullptr) {
        ring->RestoreCursor(resume_data.ring_cursor,
                            resume_data.ring_writes);
      }
    } else {
      WarnBadCheckpoint(options.checkpoint, restored);
      resumed = false;
      done = 0;
    }
  }

  // All live-action targets exist now: bind them and go live. Cooldown
  // state from before a kill was already rebuilt by the observer's
  // decide-only replay of the restored windows.
  if (controller != nullptr) {
    controller->BindPib(&pib);
    controller->BindInjector(injector);
    controller->BindRing(ring.get());
    controller->BindObserver(cli_obs.observer.get());
    controller->BindGraph(&loaded.built.graph);
    controller->set_live(true);
  }

  auto write_checkpoint = [&]() -> Status {
    robust::CheckpointData data;
    data.learner = "pib";
    data.seed = options.seed;
    data.queries_done = done;
    data.rng_state = rng.SaveState();
    if (injector != nullptr) {
      data.has_injector = true;
      data.injector = injector->SaveState();
    }
    data.pib = pib.GetCheckpoint();
    if (cli_obs.health != nullptr) {
      data.health.present = true;
      data.health.healthy = !cli_obs.health->AnyFiring() &&
                            cli_obs.health->drift_active() == 0;
      data.health.windows_seen = cli_obs.health->windows_seen();
      data.health.drift_active = cli_obs.health->drift_active();
      data.health.firing = cli_obs.health->FiringCount();
    }
    if (ring != nullptr) {
      data.ring_cursor = ring->cursor();
      data.ring_writes = ring->writes();
    }
    if (cli_obs.timeseries != nullptr) {
      data.has_timeseries = true;
      data.ts_window_start = cli_obs.timeseries->window_start_us();
      data.ts_next_index = cli_obs.timeseries->windows_closed();
      data.ts_evicted = cli_obs.timeseries->windows_evicted();
      for (const obs::TimeSeriesWindow& w : cli_obs.timeseries->Windows()) {
        data.ts_windows.push_back(
            obs::TimeSeriesCollector::SerializeWindowJson(w));
      }
    }
    if (cli_obs.audit_log != nullptr) {
      data.has_audit = true;
      data.audit = cli_obs.audit_log->SaveCursor();
    }
    Status written = robust::WriteCheckpoint(options.checkpoint, data);
    if (written.ok() && ring != nullptr && data.health.present &&
        data.health.healthy) {
      // Only health-stamped-good states enter the rollback ring, so the
      // rollback action can never restore a state the detectors had
      // already flagged.
      (void)ring->Write(data);
    }
    return written;
  };

  {
    // Wall time is meaningless (and nondeterministic) on the fake
    // clock; skip the histogram there so fake-clock telemetry stays
    // byte-reproducible.
    obs::ScopedTimer timer(
        cli_obs.fake_clock
            ? nullptr
            : &cli_obs.registry.GetHistogram("cli.learn_wall_us"));
    for (int64_t i = done; i < options.queries; ++i) {
      if (pib.Observe(qp.Execute(pib.strategy(), oracle.Next(rng)))) {
        std::printf("  move at query %lld: %s\n",
                    static_cast<long long>(pib.contexts_processed()),
                    pib.moves().back().swap.ToString(loaded.built.graph)
                        .c_str());
      }
      done = i + 1;
      cli_obs.Tick(done);
      if (!options.checkpoint.empty() && options.checkpoint_every > 0 &&
          done % options.checkpoint_every == 0 && done < options.queries) {
        Status written = write_checkpoint();
        if (!written.ok()) return Fail(written.ToString());
      }
      if (options.halt_after > 0 && done == options.halt_after &&
          done < options.queries) {
        // Simulated crash for the kill-and-resume tests: stop without
        // writing anything, leaving the last periodic checkpoint as the
        // only recovery point.
        std::fprintf(stderr, "halting after %lld queries (--halt-after)\n",
                     static_cast<long long>(done));
        return 3;
      }
    }
  }
  if (!options.checkpoint.empty()) {
    Status written = write_checkpoint();
    if (!written.ok()) return Fail(written.ToString());
    std::printf("checkpoint written to %s\n", options.checkpoint.c_str());
  }
  PrintStrategyReport(loaded, "learned:", pib.strategy(), truth);
  Status written = MaybeWriteStrategy(options, pib.strategy());
  if (!written.ok()) return Fail(written.ToString());
  Status finished = cli_obs.Finish(options);
  if (!finished.ok()) return Fail(finished.ToString());
  return 0;
}

int CmdLearnPao(const CliOptions& options) {
  if (options.positional.size() != 3) {
    return Fail(
        "usage: stratlearn_cli learn-pao <program.dl> <query-form> "
        "<workload.txt> [--epsilon= --delta= --theorem3 --strategy-out= "
        "--seed= --metrics-out= --trace-out= --profile-out= "
        "--metrics-export= --export-every= --timeseries-out= "
        "--timeseries-every= --obs-clock=steady|fake --alerts= "
        "--health-out= --recovery= --audit-out= --audit-every= "
        "--audit-window= --fault-plan= --checkpoint= --checkpoint-every= "
        "--resume]");
  }
  if (options.resume && options.checkpoint.empty()) {
    return Fail("--resume requires --checkpoint=FILE");
  }
  Result<std::unique_ptr<Loaded>> loaded_or = Load(
      options.positional[0], options.positional[1], options.positional[2]);
  if (!loaded_or.ok()) return FailStatus(loaded_or.status());
  Loaded& loaded = **loaded_or;
  if (int rc = CheckLearnerConfig(options, &loaded.built.graph); rc != 0) {
    return rc;
  }

  DatalogOracle oracle(&loaded.built, &loaded.db, loaded.workload);
  std::vector<double> truth = oracle.TrueMarginalProbs();
  Result<std::unique_ptr<robust::FaultInjector>> injector_or =
      MakeInjector(options);
  if (!injector_or.ok()) return Fail(injector_or.status().ToString());
  robust::FaultInjector* injector = injector_or->get();

  // PAO recovery wiring is injector-scoped: quarantine acts on the
  // breakers, while the PIB-state actions (rebaseline, rollback,
  // restart_scoped) have no target here and degrade to
  // "skipped_unsupported" in the transcript.
  std::unique_ptr<robust::RecoveryController> controller;
  if (!options.recovery.empty()) {
    Result<robust::RecoveryPolicy> policy = LoadRecoveryPolicy(options.recovery);
    if (!policy.ok()) return FailStatus(policy.status());
    std::printf("recovery policy: %s (%zu rules)\n", options.recovery.c_str(),
                policy->rules.size());
    controller =
        std::make_unique<robust::RecoveryController>(*std::move(policy));
  }
  PaoOptions pao_options;
  pao_options.epsilon = options.epsilon;
  pao_options.delta = options.delta;
  if (options.theorem3) pao_options.mode = PaoOptions::Mode::kTheorem3;
  pao_options.injector = injector;
  Rng rng(options.seed);

  robust::CheckpointData resume_data;
  if (options.resume) {
    Result<robust::CheckpointData> ckpt =
        robust::LoadCheckpoint(options.checkpoint, loaded.built.graph);
    Status restored = ckpt.ok() ? Status::OK() : ckpt.status();
    if (restored.ok() && ckpt->learner != "pao") {
      restored = Status::FailedPrecondition(
          "checkpoint belongs to learner '" + ckpt->learner + "', not pao");
    }
    if (restored.ok() && ckpt->seed != options.seed) {
      restored = Status::FailedPrecondition(StrFormat(
          "checkpoint was taken with --seed=%llu, this run uses %llu",
          static_cast<unsigned long long>(ckpt->seed),
          static_cast<unsigned long long>(options.seed)));
    }
    if (restored.ok() && ckpt->has_injector != (injector != nullptr)) {
      restored = Status::FailedPrecondition(
          "checkpoint and this run disagree on --fault-plan");
    }
    if (restored.ok() && injector != nullptr) {
      restored = injector->RestoreState(ckpt->injector);
    }
    if (restored.ok()) {
      resume_data = *std::move(ckpt);
      rng.RestoreState(resume_data.rng_state);
      // Shape errors surface inside Pao::Run via RestoreCheckpoint;
      // they fail the run like any other bad sampler input.
      pao_options.resume = &resume_data.qpa;
      std::printf("resumed from %s at context %lld\n",
                  options.checkpoint.c_str(),
                  static_cast<long long>(resume_data.queries_done));
    } else {
      WarnBadCheckpoint(options.checkpoint, restored);
    }
  }
  if (!options.checkpoint.empty() && options.checkpoint_every > 0) {
    pao_options.on_context = [&options, &rng, injector](
                                 const AdaptiveQueryProcessor& qpa,
                                 int64_t contexts) {
      if (contexts % options.checkpoint_every != 0) return;
      robust::CheckpointData data;
      data.learner = "pao";
      data.seed = options.seed;
      data.queries_done = contexts;
      data.rng_state = rng.SaveState();
      if (injector != nullptr) {
        data.has_injector = true;
        data.injector = injector->SaveState();
      }
      data.qpa = qpa.GetCheckpoint();
      // Periodic checkpoints are best-effort; the final state below is
      // the one whose failure should be loud.
      (void)robust::WriteCheckpoint(options.checkpoint, data);
    };
  }

  AuditBaselines baselines = MakeAuditBaselines(
      options, loaded, Strategy::DepthFirst(loaded.built.graph), truth);
  CliObserver cli_obs(options, /*want_profiler=*/false, baselines,
                      controller.get());
  if (!cli_obs.status.ok()) return FailStatus(cli_obs.status);
  if (controller != nullptr) {
    controller->BindInjector(injector);
    controller->BindObserver(cli_obs.observer.get());
    controller->BindGraph(&loaded.built.graph);
    controller->set_live(true);
  }
  if (cli_obs.NeedsTicks() || cli_obs.fake_clock) {
    // Chain the telemetry cadence onto the per-context hook (after the
    // checkpoint writer, when one is installed). Fake-clock runs need
    // the tick even without --timeseries-out / --metrics-export so the
    // manual clock advances for trace timestamps.
    auto checkpoint_hook = pao_options.on_context;
    pao_options.on_context = [&cli_obs, checkpoint_hook](
                                 const AdaptiveQueryProcessor& qpa,
                                 int64_t contexts) {
      if (checkpoint_hook) checkpoint_hook(qpa, contexts);
      cli_obs.Tick(contexts);
    };
  }
  Result<PaoResult> result = [&] {
    obs::ScopedTimer timer(
        cli_obs.fake_clock
            ? nullptr
            : &cli_obs.registry.GetHistogram("cli.learn_wall_us"));
    return Pao::Run(loaded.built.graph, oracle, rng, pao_options,
                    cli_obs.observer.get());
  }();
  if (!result.ok()) return Fail(result.status().ToString());
  if (!options.checkpoint.empty()) {
    robust::CheckpointData data;
    data.learner = "pao";
    data.seed = options.seed;
    data.queries_done = result->contexts_used;
    data.rng_state = rng.SaveState();
    if (injector != nullptr) {
      data.has_injector = true;
      data.injector = injector->SaveState();
    }
    data.qpa.contexts = result->contexts_used;
    for (const AdaptiveQueryProcessor::Snapshot::Experiment& e :
         result->sampler.experiments) {
      data.qpa.remaining.push_back(e.remaining);
      data.qpa.counters.push_back(
          {e.attempts, e.successes, e.blocked_aims});
    }
    Status written = robust::WriteCheckpoint(options.checkpoint, data);
    if (!written.ok()) return Fail(written.ToString());
    std::printf("checkpoint written to %s\n", options.checkpoint.c_str());
  }
  std::printf("sampling used %lld contexts (upsilon %s)\n",
              static_cast<long long>(result->contexts_used),
              result->upsilon_exact ? "exact" : "approximate");
  PrintStrategyReport(loaded, "learned:", result->strategy, truth);
  Status written = MaybeWriteStrategy(options, result->strategy);
  if (!written.ok()) return Fail(written.ToString());
  Status finished = cli_obs.Finish(options);
  if (!finished.ok()) return Fail(finished.ToString());
  return 0;
}

int CmdEval(const CliOptions& options) {
  if (options.positional.size() < 3 || options.positional.size() > 4) {
    return Fail(
        "usage: stratlearn_cli eval <program.dl> <query-form> "
        "<workload.txt> [strategy-file]");
  }
  Result<std::unique_ptr<Loaded>> loaded_or = Load(
      options.positional[0], options.positional[1], options.positional[2]);
  if (!loaded_or.ok()) return FailStatus(loaded_or.status());
  Loaded& loaded = **loaded_or;

  CliObserver cli_obs(options);
  if (!cli_obs.status.ok()) return FailStatus(cli_obs.status);
  obs::Histogram& phase_us =
      cli_obs.registry.GetHistogram("cli.eval_phase_us");
  obs::Counter& evaluated =
      cli_obs.registry.GetCounter("cli.strategies_evaluated");

  DatalogOracle oracle(&loaded.built, &loaded.db, loaded.workload);
  std::vector<double> truth = oracle.TrueMarginalProbs();

  Strategy strategy = Strategy::DepthFirst(loaded.built.graph);
  const char* label = "default:";
  if (options.positional.size() == 4) {
    Result<std::string> text = ReadFile(options.positional[3]);
    if (!text.ok()) return Fail(text.status().ToString());
    Result<Strategy> parsed =
        Strategy::Deserialize(loaded.built.graph, *text);
    if (!parsed.ok()) return Fail(parsed.status().ToString());
    strategy = *parsed;
    label = "given:";
  }
  {
    obs::ScopedTimer timer(&phase_us);
    PrintStrategyReport(loaded, label, strategy, truth);
    evaluated.Increment();
  }

  std::vector<double> smith = SmithFactCountEstimates(loaded.built, loaded.db);
  {
    obs::ScopedTimer timer(&phase_us);
    Result<UpsilonResult> smith_strategy =
        UpsilonAot(loaded.built.graph, smith);
    if (smith_strategy.ok()) {
      PrintStrategyReport(loaded, "smith:", smith_strategy->strategy, truth);
      evaluated.Increment();
    }
  }
  {
    obs::ScopedTimer timer(&phase_us);
    Result<UpsilonResult> optimal = UpsilonAot(loaded.built.graph, truth);
    if (!optimal.ok()) return Fail(optimal.status().ToString());
    PrintStrategyReport(loaded, "optimal:", optimal->strategy, truth);
    evaluated.Increment();
  }
  Status finished = cli_obs.Finish(options);
  if (!finished.ok()) return Fail(finished.ToString());
  return 0;
}

int CmdExplain(const CliOptions& options) {
  if (options.positional.size() != 3) {
    return Fail(
        "usage: stratlearn_cli explain <program.dl> <query-form> "
        "<workload.txt> [--learner=pib|pao --delta= --epsilon= --queries= "
        "--theorem3 --seed= --profile-out= --metrics-out= --trace-out=]");
  }
  if (options.learner != "pib" && options.learner != "pao") {
    return Fail("--learner must be 'pib' or 'pao'");
  }
  Result<std::unique_ptr<Loaded>> loaded_or = Load(
      options.positional[0], options.positional[1], options.positional[2]);
  if (!loaded_or.ok()) return FailStatus(loaded_or.status());
  Loaded& loaded = **loaded_or;
  if (int rc = CheckLearnerConfig(
          options,
          options.learner == "pao" ? &loaded.built.graph : nullptr);
      rc != 0) {
    return rc;
  }

  DatalogOracle oracle(&loaded.built, &loaded.db, loaded.workload);
  std::vector<double> truth = oracle.TrueMarginalProbs();
  CliObserver cli_obs(options, /*want_profiler=*/true);
  if (!cli_obs.status.ok()) return FailStatus(cli_obs.status);
  Rng rng(options.seed);

  Strategy learned;
  std::string learner_state;
  if (options.learner == "pib") {
    Strategy initial = Strategy::DepthFirst(loaded.built.graph);
    Pib pib(&loaded.built.graph, initial,
            PibOptions{.delta = options.delta}, cli_obs.observer.get());
    QueryProcessor qp(&loaded.built.graph, cli_obs.observer.get());
    for (int64_t i = 0; i < options.queries; ++i) {
      pib.Observe(qp.Execute(pib.strategy(), oracle.Next(rng)));
    }
    learned = pib.strategy();
    learner_state = ExplainPibState(pib.Snapshot());
  } else {
    PaoOptions pao_options;
    pao_options.epsilon = options.epsilon;
    pao_options.delta = options.delta;
    if (options.theorem3) pao_options.mode = PaoOptions::Mode::kTheorem3;
    Result<PaoResult> result = Pao::Run(loaded.built.graph, oracle, rng,
                                        pao_options, cli_obs.observer.get());
    if (!result.ok()) return Fail(result.status().ToString());
    learned = result->strategy;
    learner_state = ExplainPaoState(loaded.built.graph, result->sampler);
  }

  ExplainOptions explain_options;
  explain_options.hot_share = cli_obs.profiler->options().hot_share;
  std::printf("%s", ExplainStrategyTree(loaded.built.graph, learned,
                                        cli_obs.profiler.get(),
                                        explain_options)
                        .c_str());
  std::printf("\n%s", learner_state.c_str());
  std::printf("\n%s", cli_obs.profiler->ReportText().c_str());
  std::printf("\nexpected cost %s (true p): %.4f\n",
              options.learner.c_str(),
              ExactExpectedCost(loaded.built.graph, learned, truth));
  Status written = MaybeWriteStrategy(options, learned);
  if (!written.ok()) return Fail(written.ToString());
  // The metrics summary holds wall-clock timers; skip it so explain
  // output is byte-identical across runs with the same seed.
  Status finished = cli_obs.Finish(options, /*print_summary=*/false);
  if (!finished.ok()) return Fail(finished.ToString());
  return 0;
}

int CmdBench(const CliOptions& options) {
  obs::perf::BenchRegistry registry;
  obs::perf::RegisterCanonicalWorkloads(&registry);
  if (options.list) {
    for (const obs::perf::BenchWorkload& w : registry.workloads()) {
      std::printf("%-16s %s\n", w.name.c_str(), w.description.c_str());
    }
    return 0;
  }
  if (options.repetitions < 1) return Fail("--repetitions must be >= 1");
  if (options.warmup < 0) return Fail("--warmup must be >= 0");

  std::vector<const obs::perf::BenchWorkload*> selected;
  if (options.workload == "all") {
    for (const obs::perf::BenchWorkload& w : registry.workloads()) {
      selected.push_back(&w);
    }
  } else {
    const obs::perf::BenchWorkload* w = registry.Find(options.workload);
    if (w == nullptr) {
      std::string names;
      for (const obs::perf::BenchWorkload& known : registry.workloads()) {
        names += (names.empty() ? "" : ", ") + known.name;
      }
      return Fail("unknown workload '" + options.workload +
                  "' (available: " + names + ", all)");
    }
    selected.push_back(w);
  }

  obs::perf::BenchOptions bench_options;
  bench_options.warmup = options.warmup;
  bench_options.repetitions = options.repetitions;
  bench_options.seed = options.seed;
  bench_options.fake_clock = options.fake_clock;
  bench_options.timestamp = options.timestamp;
  obs::perf::BenchRunner runner(bench_options);

  std::printf("%d warmup + %d timed repetitions, seed %llu, %s clock\n",
              options.warmup, options.repetitions,
              static_cast<unsigned long long>(options.seed),
              options.fake_clock ? "fake (work-unit)" : "steady wall");
  std::printf("  %-16s %12s %12s %12s %14s\n", "workload", "p50 us",
              "p90 us", "p99 us", "work units");
  std::printf("  %-16s %12s %12s %12s %14s\n", "----------------",
              "------------", "------------", "------------",
              "--------------");
  for (const obs::perf::BenchWorkload* workload : selected) {
    obs::perf::BenchRunResult result = runner.Run(*workload);
    std::printf("  %-16s %12s %12s %12s %14s\n", result.workload.c_str(),
                FormatDouble(result.wall_us.Percentile(50), 6).c_str(),
                FormatDouble(result.wall_us.Percentile(90), 6).c_str(),
                FormatDouble(result.wall_us.Percentile(99), 6).c_str(),
                FormatDouble(result.total_work_units, 6).c_str());
    Status written = obs::perf::WriteBenchFile(options.out_dir, result);
    if (!written.ok()) return Fail(written.ToString());
  }
  std::printf("BENCH reports written to %s/\n", options.out_dir.c_str());
  return 0;
}

int CmdVerify(const CliOptions& options) {
  if (options.positional.empty() && options.project.empty()) {
    return Fail(
        "usage: stratlearn_cli verify <files...> [--project=DIR] "
        "[--format=text|json|sarif] [--profile=FILE] "
        "[--suppressions=FILE] [--suppress-out=FILE] [--Werror]");
  }
  if (options.format != "text" && options.format != "json" &&
      options.format != "sarif") {
    return Fail("--format must be 'text', 'json' or 'sarif'");
  }
  verify::DiagnosticSink sink;
  verify::ArtifactVerifier verifier(&sink);
  if (!options.profile.empty()) {
    Result<std::string> text = ReadFile(options.profile);
    if (!text.ok()) return Fail(text.status().ToString());
    sink.set_file(options.profile);
    verifier.set_profile(verify::ParseArcProbProfile(*text, &sink));
  }
  if (!options.project.empty()) {
    Status walked =
        verify::VerifyProject(&verifier, options.project, &sink);
    if (!walked.ok()) return Fail(walked.ToString());
  }
  for (const std::string& path : options.positional) {
    Status added = verifier.AddFile(path);
    if (!added.ok()) return Fail(added.ToString());
  }
  if (!options.suppress_out.empty()) {
    // Baseline what the run found *before* any suppressions apply, so
    // regenerating a baseline does not need the old one removed first.
    std::ofstream out(options.suppress_out);
    if (!out) return Fail("cannot open '" + options.suppress_out + "'");
    out << verify::RenderSuppressionBaseline(sink);
  }
  if (!options.suppressions.empty()) {
    Result<std::string> text = ReadFile(options.suppressions);
    if (!text.ok()) return Fail(text.status().ToString());
    verify::SuppressionSet set =
        verify::ParseSuppressions(*text, options.suppressions, &sink);
    verify::ApplySuppressions(set, options.suppressions, &sink);
  }
  if (options.format == "json") {
    std::printf("%s\n", sink.RenderJson(options.werror).c_str());
  } else if (options.format == "sarif") {
    std::printf("%s\n", verify::RenderSarif(sink, options.werror).c_str());
  } else {
    std::printf("%s", sink.RenderText(options.werror).c_str());
  }
  return sink.ExitCode(options.werror);
}

int CmdHealth(const CliOptions& options) {
  static const char kUsage[] =
      "stratlearn_cli health <series.jsonl> --alerts=RULES "
      "[--format=text|json] [--health-out=FILE] [--recovery=POLICY]";
  if (options.positional.size() != 1) {
    std::fprintf(stderr, "usage: %s\n", kUsage);
    return 2;
  }
  return tools::RunOfflineHealth(options.positional[0], options.alerts,
                                 options.format, options.health_out,
                                 options.recovery, kUsage);
}

int CmdAudit(const CliOptions& options) {
  if (options.positional.size() != 1) {
    std::fprintf(stderr,
                 "usage: stratlearn_cli audit <audit.jsonl> "
                 "[--format=text|json]\n");
    return 2;
  }
  return tools::RunOfflineAudit(options.positional[0], options.format);
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(
        stderr,
        "usage: stratlearn_cli "
        "<query|dot|learn-pib|learn-pao|eval|explain|bench|health|audit|"
        "verify> ...\n");
    return 1;
  }
  std::string command = argv[1];
  CliOptions options = ParseArgs(argc, argv);
  if (command == "query") return CmdQuery(options);
  if (command == "dot") return CmdDot(options);
  if (command == "learn-pib") return CmdLearnPib(options);
  if (command == "learn-pao") return CmdLearnPao(options);
  if (command == "eval") return CmdEval(options);
  if (command == "explain") return CmdExplain(options);
  if (command == "bench") return CmdBench(options);
  if (command == "health") return CmdHealth(options);
  if (command == "audit") return CmdAudit(options);
  if (command == "verify") return CmdVerify(options);
  return Fail("unknown command '" + command + "'");
}

}  // namespace
}  // namespace stratlearn

int main(int argc, char** argv) { return stratlearn::Main(argc, argv); }
