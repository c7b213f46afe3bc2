#include "obs/perf/workloads.h"

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <utility>

#include <sstream>

#include "core/pao.h"
#include "core/pib.h"
#include "core/upsilon.h"
#include "datalog/parser.h"
#include "engine/query_processor.h"
#include "graph/examples.h"
#include "obs/audit/audit_log.h"
#include "obs/health/monitor.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/timeseries.h"
#include "obs/trace_sink.h"
#include "robust/checkpoint.h"
#include "robust/recovery/controller.h"
#include "robust/recovery/policy.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload/random_tree.h"
#include "workload/synthetic_oracle.h"

namespace stratlearn::obs::perf {
namespace {

/// Datalog parse + load: a transitive-closure rule set over a chain of
/// edge facts plus a family of unary facts — the substrate every
/// graph-based command pays before any learning starts.
class DatalogLoadInstance : public BenchWorkloadInstance {
 public:
  explicit DatalogLoadInstance(uint64_t seed) {
    Rng rng(seed);
    program_ =
        "path(X, Y) :- edge(X, Y)."
        "path(X, Y) :- edge(X, Z), path(Z, Y)."
        "reach(X) :- path(X, X)."
        "instructor(X) :- prof(X)."
        "instructor(X) :- grad(X).";
    clauses_ = 5;
    for (int i = 0; i < 400; ++i) {
      program_ += StrFormat("edge(n%d, n%d).", i, i + 1);
      ++clauses_;
    }
    for (int i = 0; i < 100; ++i) {
      // Membership varies with the seed so reloads are not all-hit or
      // all-miss in the symbol table, but the clause count is fixed.
      program_ += StrFormat(rng.NextBernoulli(0.5) ? "prof(p%d)."
                                                   : "grad(p%d).",
                            i);
      ++clauses_;
    }
  }

  RepResult RunOnce() override {
    SymbolTable symbols;
    Parser parser(&symbols);
    Database db;
    RuleBase rules;
    Status loaded = parser.LoadProgram(program_, &db, &rules);
    STRATLEARN_CHECK_MSG(loaded.ok(), "datalog_load program must load");
    RepResult result;
    result.work_units = static_cast<double>(clauses_);
    result.counters = {{"clauses", clauses_}};
    return result;
  }

 private:
  std::string program_;
  int64_t clauses_ = 0;
};

/// QueryProcessor::Execute over the paper's Figure 1 and Figure 2
/// graphs — the innermost hot path every learner drives.
class FigureExecuteInstance : public BenchWorkloadInstance {
 public:
  explicit FigureExecuteInstance(uint64_t seed)
      : fig1_(MakeFigureOne()),
        fig2_(MakeFigureTwo()),
        theta1_(Strategy::DepthFirst(fig1_.graph)),
        theta2_(Strategy::DepthFirst(fig2_.graph)),
        qp1_(&fig1_.graph),
        qp2_(&fig2_.graph),
        // Figure 1's workload is mostly grad students (the paper's
        // motivating skew); Figure 2's probabilities climb with depth.
        oracle1_({0.2, 0.75}),
        oracle2_({0.3, 0.5, 0.6, 0.8}),
        rng_(seed) {}

  RepResult RunOnce() override {
    constexpr int kFig1Contexts = 2000;
    constexpr int kFig2Contexts = 1000;
    double cost = 0.0;
    int64_t attempts = 0;
    int64_t successes = 0;
    for (int i = 0; i < kFig1Contexts; ++i) {
      Trace trace = qp1_.Execute(theta1_, oracle1_.Next(rng_));
      cost += trace.cost;
      attempts += static_cast<int64_t>(trace.attempts.size());
      successes += trace.successes;
    }
    for (int i = 0; i < kFig2Contexts; ++i) {
      Trace trace = qp2_.Execute(theta2_, oracle2_.Next(rng_));
      cost += trace.cost;
      attempts += static_cast<int64_t>(trace.attempts.size());
      successes += trace.successes;
    }
    RepResult result;
    result.work_units = cost;
    result.counters = {{"contexts", kFig1Contexts + kFig2Contexts},
                       {"arc_attempts", attempts},
                       {"successes", successes}};
    return result;
  }

 private:
  FigureOneGraph fig1_;
  FigureTwoGraph fig2_;
  Strategy theta1_;
  Strategy theta2_;
  QueryProcessor qp1_;
  QueryProcessor qp2_;
  IndependentOracle oracle1_;
  IndependentOracle oracle2_;
  Rng rng_;
};

/// A full PIB hill-climb: each repetition restarts the learner on the
/// same random tree and feeds it a fresh slice of the context stream,
/// measuring Observe + Execute together (the unobtrusive-PIB loop).
class PibClimbInstance : public BenchWorkloadInstance {
 public:
  explicit PibClimbInstance(uint64_t seed) : rng_(seed) {
    Rng tree_rng(seed ^ 0x9e3779b97f4a7c15ULL);
    RandomTreeOptions options;
    options.depth = 5;
    options.min_branch = 2;
    options.max_branch = 3;
    options.early_leaf_prob = 0.1;
    tree_ = MakeRandomTree(tree_rng, options);
    oracle_ = std::make_unique<IndependentOracle>(tree_.probs);
  }

  RepResult RunOnce() override {
    constexpr int kContexts = 400;
    Pib pib(&tree_.graph, Strategy::DepthFirst(tree_.graph),
            PibOptions{.delta = 0.2});
    QueryProcessor qp(&tree_.graph);
    double cost = 0.0;
    for (int i = 0; i < kContexts; ++i) {
      Trace trace = qp.Execute(pib.strategy(), oracle_->Next(rng_));
      cost += trace.cost;
      pib.Observe(trace);
    }
    RepResult result;
    result.work_units = cost;
    result.counters = {{"contexts", kContexts},
                       {"moves", static_cast<int64_t>(pib.moves().size())},
                       {"trials", pib.trial_count()}};
    return result;
  }

 private:
  RandomTree tree_;
  std::unique_ptr<IndependentOracle> oracle_;
  Rng rng_;
};

/// A PAO Theorem-3 quota run over Figure 2: QP^A adaptive sampling
/// until every aim quota is met, then the Upsilon step.
class PaoQuotaInstance : public BenchWorkloadInstance {
 public:
  explicit PaoQuotaInstance(uint64_t seed)
      : fig2_(MakeFigureTwo()), oracle_({0.3, 0.5, 0.6, 0.8}), rng_(seed) {}

  RepResult RunOnce() override {
    PaoOptions options;
    options.epsilon = 0.75;
    options.delta = 0.2;
    options.mode = PaoOptions::Mode::kTheorem3;
    Result<PaoResult> run = Pao::Run(fig2_.graph, oracle_, rng_, options);
    STRATLEARN_CHECK_MSG(run.ok(), "pao_quota run must meet its quotas");
    RepResult result;
    result.work_units = static_cast<double>(run->contexts_used);
    result.counters = {{"contexts", run->contexts_used},
                       {"upsilon_exact", run->upsilon_exact ? 1 : 0}};
    return result;
  }

 private:
  FigureTwoGraph fig2_;
  IndependentOracle oracle_;
  Rng rng_;
};

/// Upsilon_AOT ordering of a 2048-leaf flat tree — the O(n log n)
/// block-merge that closes every PAO run and the eval command.
class UpsilonOrderInstance : public BenchWorkloadInstance {
 public:
  explicit UpsilonOrderInstance(uint64_t seed) {
    Rng rng(seed);
    tree_ = MakeFlatTree(rng, 2048);
  }

  RepResult RunOnce() override {
    Result<UpsilonResult> ordered = UpsilonAot(tree_.graph, tree_.probs);
    STRATLEARN_CHECK_MSG(ordered.ok(), "upsilon_order must solve the tree");
    RepResult result;
    result.work_units =
        static_cast<double>(tree_.graph.num_arcs());
    result.counters = {
        {"arcs", static_cast<int64_t>(tree_.graph.num_arcs())},
        {"exact", ordered->exact ? 1 : 0}};
    return result;
  }

 private:
  RandomTree tree_;
};

/// Instrumentation overhead on the fig1_execute hot path: the same
/// Figure-1 context stream run with (a) no observer, (b) metrics only,
/// (c) metrics + a locked null trace sink. Work units are the arc
/// attempts actually made — identical across the three variants for a
/// given seed (instrumentation must not change execution semantics), so
/// a fake-clock baseline diff catches a variant whose observation path
/// alters behaviour, while wall-clock p50/p99 across the three
/// workloads price the telemetry itself.
class ObsOverheadInstance : public BenchWorkloadInstance {
 public:
  enum class Mode { kOff, kMetrics, kMetricsAndTrace };

  ObsOverheadInstance(uint64_t seed, Mode mode)
      : fig1_(MakeFigureOne()),
        theta_(Strategy::DepthFirst(fig1_.graph)),
        qp_(&fig1_.graph),
        oracle_({0.2, 0.75}),
        rng_(seed) {
    if (mode != Mode::kOff) {
      obs::TraceSink* sink = nullptr;
      if (mode == Mode::kMetricsAndTrace) {
        locked_null_ = std::make_unique<obs::LockingSink>(&null_sink_);
        sink = locked_null_.get();
      }
      observer_ = std::make_unique<obs::Observer>(&registry_, sink);
      qp_.set_observer(observer_.get());
    }
  }

  RepResult RunOnce() override {
    constexpr int kContexts = 3000;
    int64_t attempts = 0;
    int64_t successes = 0;
    for (int i = 0; i < kContexts; ++i) {
      Trace trace = qp_.Execute(theta_, oracle_.Next(rng_));
      attempts += static_cast<int64_t>(trace.attempts.size());
      successes += trace.successes;
    }
    RepResult result;
    result.work_units = static_cast<double>(attempts);
    result.counters = {{"contexts", kContexts},
                       {"arc_attempts", attempts},
                       {"successes", successes}};
    return result;
  }

 private:
  FigureOneGraph fig1_;
  Strategy theta_;
  QueryProcessor qp_;
  IndependentOracle oracle_;
  Rng rng_;
  obs::MetricsRegistry registry_;
  obs::NullSink null_sink_;
  std::unique_ptr<obs::LockingSink> locked_null_;
  std::unique_ptr<obs::Observer> observer_;
};

/// End-to-end statistical drift detection: a flat-tree satisficing
/// search driven by a DriftingOracle whose first experiment steps from
/// p = 0.8 to p = 0.2 mid-run, with the full health pipeline attached
/// (observer -> time-series windows -> drift detectors). Each
/// repetition runs the pipeline twice — drifting, then a stationary
/// control with the same seed — and checks the detection contract in
/// process: the shifted arc must raise a p-hat DriftDetected, the
/// control must stay silent. The counters land in the fake-clock
/// baseline, so a regression in detector sensitivity (missed drift) or
/// specificity (control false positive) fails both the run and the
/// bench diff.
class DriftDetectInstance : public BenchWorkloadInstance {
 public:
  explicit DriftDetectInstance(uint64_t seed) : rng_(seed) {
    Rng tree_rng(seed ^ 0x9e3779b97f4a7c15ULL);
    tree_ = MakeFlatTree(tree_rng, 4);
  }

  struct PipelineOutcome {
    double cost = 0.0;
    int64_t shifted_detections = 0;  // p-hat detections on the shifted arc
    int64_t other_detections = 0;    // anything else (should stay 0)
    int64_t windows = 0;
  };

  PipelineOutcome RunPipeline(uint64_t seed, bool drifting) {
    constexpr int64_t kContexts = 2000;
    constexpr int64_t kDriftAt = 1000;
    constexpr int64_t kWindowUnits = 100;
    std::vector<double> before = {0.8, 0.5, 0.5, 0.5};
    std::vector<double> after = before;
    if (drifting) after[0] = 0.2;
    DriftingOracle oracle(before, after, kDriftAt);

    MetricsRegistry registry;
    TimeSeriesOptions ts_options;
    ts_options.interval_us = kWindowUnits;
    TimeSeriesCollector collector(&registry, ts_options);
    health::HealthMonitor monitor(health::AlertRuleSet{},
                                  health::HealthOptions{}, &registry);
    monitor.set_event_sink(&collector);
    collector.SetWindowCallback([&monitor](const TimeSeriesWindow& w) {
      monitor.OnWindow(w);
    });
    Observer observer(&registry, &collector);
    observer.UseManualClock();
    QueryProcessor qp(&tree_.graph, &observer);
    Strategy theta = Strategy::DepthFirst(tree_.graph);

    Rng rng(seed);
    PipelineOutcome out;
    for (int64_t i = 0; i < kContexts; ++i) {
      out.cost += qp.Execute(theta, oracle.Next(rng)).cost;
      observer.AdvanceManualClock(i + 1);
      collector.AdvanceTo(i + 1);
    }
    collector.Finalize(kContexts);
    out.windows = collector.windows_closed();
    ArcId shifted_arc = tree_.graph.experiments()[0];
    for (const DriftEvent& e : monitor.drift_log()) {
      if (e.state != "detected") continue;
      if (e.detector == "p_hat" && e.arc == shifted_arc) {
        ++out.shifted_detections;
      } else {
        ++out.other_detections;
      }
    }
    return out;
  }

  RepResult RunOnce() override {
    uint64_t rep_seed = rng_.NextUint64();
    PipelineOutcome drift = RunPipeline(rep_seed, /*drifting=*/true);
    PipelineOutcome control = RunPipeline(rep_seed, /*drifting=*/false);
    STRATLEARN_CHECK_MSG(drift.shifted_detections >= 1,
                         "drift_detect must flag the shifted arc");
    STRATLEARN_CHECK_MSG(
        control.shifted_detections + control.other_detections == 0,
        "drift_detect control run must stay silent");
    RepResult result;
    result.work_units = drift.cost + control.cost;
    result.counters = {
        {"contexts", 4000},
        {"windows", drift.windows + control.windows},
        {"drift_detected", drift.shifted_detections},
        {"drift_other", drift.other_detections},
        {"control_detected",
         control.shifted_detections + control.other_detections}};
    return result;
  }

 private:
  RandomTree tree_;
  Rng rng_;
};

/// The decision-audit layer's price on the pib_climb loop: the same
/// depth-5 random-tree hill-climb, but with a full observer attached
/// and certificate emission enabled, every certificate landing in an
/// in-memory AuditLog. The untouched pib_climb workload doubles as the
/// certificates-off control — its fake-clock baseline must stay
/// byte-identical with the audit layer merely compiled in — while this
/// workload's wall clock prices emission + serialisation and its
/// counters pin the certificate volume and encoded size.
class AuditOverheadInstance : public BenchWorkloadInstance {
 public:
  explicit AuditOverheadInstance(uint64_t seed) : rng_(seed) {
    Rng tree_rng(seed ^ 0x9e3779b97f4a7c15ULL);
    RandomTreeOptions options;
    options.depth = 5;
    options.min_branch = 2;
    options.max_branch = 3;
    options.early_leaf_prob = 0.1;
    tree_ = MakeRandomTree(tree_rng, options);
    oracle_ = std::make_unique<IndependentOracle>(tree_.probs);
  }

  RepResult RunOnce() override {
    constexpr int kContexts = 400;
    constexpr double kDelta = 0.2;
    std::ostringstream audit_out;
    AuditLogOptions audit_options;
    audit_options.delta_budget = kDelta;
    audit_options.window = 100;
    AuditLog audit(&audit_out, audit_options);
    MetricsRegistry registry;
    Observer observer(&registry, &audit);
    observer.UseManualClock();
    observer.set_audit_enabled(true);
    Pib pib(&tree_.graph, Strategy::DepthFirst(tree_.graph),
            PibOptions{.delta = kDelta}, &observer);
    QueryProcessor qp(&tree_.graph, &observer);
    double cost = 0.0;
    for (int i = 0; i < kContexts; ++i) {
      Trace trace = qp.Execute(pib.strategy(), oracle_->Next(rng_));
      cost += trace.cost;
      pib.Observe(trace);
      observer.AdvanceManualClock(i + 1);
    }
    audit.Close();
    STRATLEARN_CHECK_MSG(audit.ok(), "in-memory audit log cannot fail");
    RepResult result;
    result.work_units = cost;
    result.counters = {
        {"contexts", kContexts},
        {"moves", static_cast<int64_t>(pib.moves().size())},
        {"certificates", audit.certificates_written()},
        {"audit_bytes", static_cast<int64_t>(audit_out.str().size())}};
    return result;
  }

 private:
  RandomTree tree_;
  std::unique_ptr<IndependentOracle> oracle_;
  Rng rng_;
};

/// Drift reaction end-to-end: a 4-leaf satisficing search whose best
/// experiment transiently degrades (p 0.9 -> 0.25, then reverts), with
/// the full detect -> decide -> recover pipeline attached. Each
/// repetition runs the same context stream four times: once per
/// graduated recovery policy (rebaseline, restart_scoped, rollback
/// against an on-disk checkpoint ring) and once with the naive
/// cold-restart reaction (drift detected => throw the learner away).
/// The rep hard-asserts the tentpole claim of the recovery layer: every
/// policy re-converges on the optimal ordering in strictly fewer
/// post-revert contexts than the cold restart, because the graduated
/// actions preserve (or restore) the pre-drift strategy instead of
/// discarding it. The per-policy re-convergence counters land in the
/// fake-clock baseline, so a recovery regression fails both the run
/// and the bench diff. Quarantine is deliberately absent: it isolates
/// a faulty arc rather than re-converging the learner, so it has no
/// convergence race to win.
class DriftRecoverInstance : public BenchWorkloadInstance {
 public:
  static constexpr int64_t kContexts = 3200;
  static constexpr int64_t kDriftAt = 1600;
  static constexpr int64_t kRevertAt = 2100;
  static constexpr int64_t kWindowUnits = 100;
  static constexpr double kDelta = 0.2;
  static constexpr int kBestExperiment = 2;

  explicit DriftRecoverInstance(uint64_t seed) : seed_(seed), rng_(seed) {
    Rng tree_rng(seed ^ 0x9e3779b97f4a7c15ULL);
    RandomTreeOptions options;
    options.min_cost = 1.0;  // equal costs: the optimal order is by p
    options.max_cost = 1.0;
    tree_ = MakeFlatTree(tree_rng, 4, options);
  }

  struct RunOutcome {
    double cost = 0.0;
    int64_t converged_at = 0;   // first context from which the best
                                // experiment stays in front to the end
    int64_t detections = 0;     // drift "detected" transitions
    int64_t actions = 0;        // recovery actions applied / cold restarts
  };

  /// Post-revert contexts until the learner is (back) on the optimal
  /// ordering; 0 when it never lost it.
  static int64_t RecoveryContexts(const RunOutcome& run) {
    return run.converged_at <= kRevertAt ? 0
                                         : run.converged_at - kRevertAt;
  }

  /// One full pipeline run. `policy` empty = cold-restart control.
  RunOutcome RunPipeline(uint64_t seed, const std::string& policy) {
    // The drift collapses the best experiment onto the others' success
    // rate: a 0.6 p-hat step the Hoeffding test flags within a window,
    // but zero ordering signal during the transient — so no learner
    // commits a *wrong* swap while drifted, and what separates the runs
    // is purely how their drift reaction treats the pre-drift strategy.
    std::vector<double> before = {0.3, 0.3, 0.9, 0.3};
    std::vector<double> after = before;
    after[kBestExperiment] = 0.3;
    DriftingOracle oracle(before, after, kDriftAt);
    oracle.set_revert_at(kRevertAt);

    MetricsRegistry registry;
    TimeSeriesOptions ts_options;
    ts_options.interval_us = kWindowUnits;
    TimeSeriesCollector collector(&registry, ts_options);
    health::HealthMonitor monitor(health::AlertRuleSet{},
                                  health::HealthOptions{}, &registry);
    monitor.set_event_sink(&collector);
    collector.SetWindowCallback([&monitor](const TimeSeriesWindow& w) {
      monitor.OnWindow(w);
    });
    Observer observer(&registry, &collector);
    observer.UseManualClock();
    QueryProcessor qp(&tree_.graph, &observer);
    auto pib = std::make_unique<Pib>(&tree_.graph,
                                     Strategy::DepthFirst(tree_.graph),
                                     PibOptions{.delta = kDelta}, &observer);

    // A fresh directory per run, so concurrent runs never share slots.
    std::string ring_dir = (std::filesystem::temp_directory_path() /
                            "stratlearn_drift_recover_XXXXXX")
                               .string();
    STRATLEARN_CHECK_MSG(mkdtemp(ring_dir.data()) != nullptr,
                         "drift_recover: cannot create a temporary directory");
    robust::CheckpointRing ring(ring_dir + "/ring", 3);
    std::unique_ptr<robust::RecoveryController> controller;
    int64_t cold_restarts = 0;
    if (!policy.empty()) {
      robust::RecoveryPolicy p;
      robust::RecoveryRule rule;
      rule.id = "drift->" + policy;
      rule.trigger = "drift:p_hat";
      rule.action = policy;
      rule.cooldown = 2;
      rule.trials_factor = 0.5;
      p.rules.push_back(rule);
      controller = std::make_unique<robust::RecoveryController>(std::move(p));
      controller->BindPib(pib.get());
      controller->BindRing(&ring);
      controller->BindObserver(&observer);
      controller->BindGraph(&tree_.graph);
      controller->set_live(true);
      monitor.set_recovery_hook(controller->Hook());
    } else {
      // The naive reaction the policies must beat: any detected drift
      // transition throws the learner away wholesale (same 2-window
      // cooldown as the policy rules, so the comparison is fair).
      int64_t last_restart_window = -100;
      monitor.set_recovery_hook(
          [&, last_restart_window](
              const TimeSeriesWindow& w, const std::vector<DriftEvent>& drift,
              const std::vector<AlertEvent>&) mutable {
            bool detected = false;
            for (const DriftEvent& e : drift) {
              if (e.state == "detected") detected = true;
            }
            if (detected && w.index - last_restart_window > 2) {
              last_restart_window = w.index;
              pib = std::make_unique<Pib>(&tree_.graph,
                                          Strategy::DepthFirst(tree_.graph),
                                          PibOptions{.delta = kDelta},
                                          &observer);
              ++cold_restarts;
            }
            return std::vector<health::RecoveryLogEntry>{};
          });
    }

    ArcId best_arc = tree_.graph.experiments()[kBestExperiment];
    Rng rng(seed);
    RunOutcome out;
    int64_t converged_since = -1;
    for (int64_t i = 0; i < kContexts; ++i) {
      Trace trace = qp.Execute(pib->strategy(), oracle.Next(rng));
      out.cost += trace.cost;
      pib->Observe(trace);
      observer.AdvanceManualClock(i + 1);
      collector.AdvanceTo(i + 1);
      if ((i + 1) % (4 * kWindowUnits) == 0 && monitor.drift_active() == 0 &&
          policy == "rollback") {
        // Known-good rollback targets, stamped with the monitor's
        // verdict the way the CLI's checkpoint writer stamps them.
        robust::CheckpointData data;
        data.learner = "pib";
        data.seed = seed_;
        data.queries_done = i + 1;
        data.rng_state = rng.SaveState();
        data.pib = pib->GetCheckpoint();
        data.health.present = true;
        data.health.healthy = true;
        data.health.windows_seen = monitor.windows_seen();
        (void)ring.Write(data);
      }
      bool in_front =
          pib->strategy().LeafOrder(tree_.graph)[0] == best_arc;
      if (in_front && converged_since < 0) converged_since = i;
      if (!in_front) converged_since = -1;
    }
    collector.Finalize(kContexts);
    out.converged_at = converged_since >= 0 ? converged_since : kContexts;
    for (const DriftEvent& e : monitor.drift_log()) {
      if (e.state == "detected") ++out.detections;
    }
    out.actions =
        controller != nullptr ? controller->actions_applied() : cold_restarts;
    std::error_code ignored;
    std::filesystem::remove_all(ring_dir, ignored);
    return out;
  }

  RepResult RunOnce() override {
    uint64_t rep_seed = rng_.NextUint64();
    RunOutcome control = RunPipeline(rep_seed, "");
    RunOutcome rebaseline = RunPipeline(rep_seed, "rebaseline");
    RunOutcome scoped = RunPipeline(rep_seed, "restart_scoped");
    RunOutcome rollback = RunPipeline(rep_seed, "rollback");

    STRATLEARN_CHECK_MSG(control.detections >= 1 && control.actions >= 1,
                         "drift_recover control must detect and restart");
    STRATLEARN_CHECK_MSG(RecoveryContexts(control) > 0,
                         "drift_recover control must pay a re-convergence "
                         "price for its cold restart");
    const struct {
      const char* name;
      const RunOutcome* run;
    } policies[] = {{"rebaseline", &rebaseline},
                    {"restart_scoped", &scoped},
                    {"rollback", &rollback}};
    for (const auto& p : policies) {
      STRATLEARN_CHECK_MSG(p.run->detections >= 1,
                           "drift_recover policy run must detect the drift");
      STRATLEARN_CHECK_MSG(p.run->actions >= 1,
                           "drift_recover policy must apply an action");
      // The tentpole claim, hard-asserted per repetition: a graduated
      // recovery re-converges in strictly fewer contexts than the
      // cold restart.
      STRATLEARN_CHECK_MSG(
          RecoveryContexts(*p.run) < RecoveryContexts(control),
          "drift_recover: policy must re-converge faster than cold restart");
    }

    RepResult result;
    result.work_units =
        control.cost + rebaseline.cost + scoped.cost + rollback.cost;
    result.counters = {
        {"contexts", 4 * kContexts},
        {"control_recovery_ctx", RecoveryContexts(control)},
        {"rebaseline_recovery_ctx", RecoveryContexts(rebaseline)},
        {"restart_scoped_recovery_ctx", RecoveryContexts(scoped)},
        {"rollback_recovery_ctx", RecoveryContexts(rollback)},
        {"recovery_actions",
         rebaseline.actions + scoped.actions + rollback.actions},
        {"cold_restarts", control.actions}};
    return result;
  }

 private:
  RandomTree tree_;
  uint64_t seed_;
  Rng rng_;
};

template <typename Instance>
BenchWorkload Workload(const char* name, const char* description) {
  return BenchWorkload{
      name, description,
      [](uint64_t seed) -> std::unique_ptr<BenchWorkloadInstance> {
        return std::make_unique<Instance>(seed);
      }};
}

}  // namespace

void RegisterCanonicalWorkloads(BenchRegistry* registry) {
  registry->Register(Workload<DatalogLoadInstance>(
      "datalog_load", "Datalog parse + load, 505-clause program"));
  registry->Register(Workload<FigureExecuteInstance>(
      "fig1_execute",
      "QueryProcessor::Execute, Figure 1 + Figure 2, 3000 contexts/rep"));
  registry->Register(Workload<PibClimbInstance>(
      "pib_climb", "PIB hill-climb, depth-5 random tree, 400 contexts/rep"));
  registry->Register(Workload<PaoQuotaInstance>(
      "pao_quota", "PAO Theorem-3 quota run on Figure 2"));
  registry->Register(Workload<UpsilonOrderInstance>(
      "upsilon_order", "Upsilon_AOT ordering, 2048-leaf flat tree"));
  registry->Register(Workload<AuditOverheadInstance>(
      "audit_overhead",
      "PIB hill-climb with decision-certificate emission into an "
      "in-memory audit log"));
  registry->Register(Workload<DriftDetectInstance>(
      "drift_detect",
      "health pipeline end-to-end: p-hat drift on a shifted arc + "
      "stationary control"));
  registry->Register(Workload<DriftRecoverInstance>(
      "drift_recover",
      "recovery controller end-to-end: transient drift, each policy "
      "must re-converge faster than a cold restart"));
  auto obs_overhead = [](const char* name, const char* description,
                         ObsOverheadInstance::Mode mode) {
    return BenchWorkload{
        name, description,
        [mode](uint64_t seed) -> std::unique_ptr<BenchWorkloadInstance> {
          return std::make_unique<ObsOverheadInstance>(seed, mode);
        }};
  };
  registry->Register(obs_overhead(
      "obs_overhead_off", "Figure-1 execute, no observer (baseline)",
      ObsOverheadInstance::Mode::kOff));
  registry->Register(obs_overhead(
      "obs_overhead_metrics", "Figure-1 execute, atomic metrics attached",
      ObsOverheadInstance::Mode::kMetrics));
  registry->Register(obs_overhead(
      "obs_overhead_trace",
      "Figure-1 execute, metrics + locked null trace sink",
      ObsOverheadInstance::Mode::kMetricsAndTrace));
}

}  // namespace stratlearn::obs::perf
