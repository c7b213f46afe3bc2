// kb_serve: serve a seeded synthetic Datalog knowledge base with a fixed,
// planned strategy. Setup parses and loads the program, unfolds the rule
// base into an inference graph and plans the strategy (TrueMarginalProbs
// + UpsilonAot). The timed loop answers a Zipf-skewed mix of bound
// queries: DatalogOracle::ContextFor (every experiment's database
// lookup) then QueryProcessor::Execute. No learner, no telemetry.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/expected_cost.h"
#include "core/upsilon.h"
#include "datalog/evaluator.h"
#include "datalog/parser.h"
#include "engine/query_processor.h"
#include "graph/builder.h"
#include "harness.h"
#include "util/rng.h"
#include "workload/datalog_oracle.h"

namespace stratbench {
namespace {

using namespace stratlearn;  // NOLINT: a benchmark of the whole library

// Input sizes.
// The KB is sized so that its fact index stays in one core's private L2
// cache (2 MiB on the reference host). A KB of 3e5 facts sits in the
// L3 that a shared host's other tenants use too, and there its p50
// moved 2.5x within one run as they came and went.
constexpr int kConstants = 2000;       // distinct bound queries q(c_i)
constexpr int kGroups = 4;             // q(X) :- r_i(X)
constexpr int kPerGroup = 3;           // r_i(X) :- s_ij(X)
constexpr int kSecondArgs = 1000;      // domain of b_ij's second argument
// Query popularity is Zipf over groups of kZipfGroup queries: the query
// of rank k (from 0) has weight ~ (k / kZipfGroup + 1) ^ -kZipfExponent.
// About 75% of the traffic goes to 160 hot queries; the rest spreads
// over the whole fact index.
constexpr double kZipfExponent = 1.5;
constexpr int kZipfGroup = 32;
constexpr int64_t kPassQueries = 200000;  // queries per deterministic pass
constexpr int kSetupRepeats = 5;       // setup_s is their median,
constexpr double kSetupSeconds = 2.0;  // over at least this long
// learn_s is the mean of this many re-plans, spread evenly over the
// timed phase so that they meet the same interference as the serving.
constexpr int kPlanSamples = 24;
// Fixes which facts the query of each popularity rank has.
constexpr uint64_t kFactSeed = 0x5EEDFAC7;

/// Density ladders of the per-predicate selectivities.
double Ladder(int t, int stride, int offset, double lo, double hi) {
  return lo + (hi - lo) * static_cast<double>((stride * t + offset) % 12) /
                  11.0;
}

/// The program text: 41 rules in three levels (q -> r -> s -> base
/// predicates; each s has one single-atom and one conjunctive rule, and
/// q has one guarded rule) over about 1.2e4 facts. The facts of the query
/// of popularity rank k are the same for every seed; the seed only picks
/// which constant `by_rank[k]` names it. Every seed thus serves the same
/// problem, and the metrics do not spread over seeds with the luck of
/// which facts the most popular queries have.
std::string GenerateProgram(const std::vector<int>& by_rank) {
  Rng rng(kFactSeed);
  std::string text;
  text.reserve(8 << 20);
  char buf[96];
  for (int i = 0; i < kGroups; ++i) {
    std::snprintf(buf, sizeof(buf), "q(X) :- r%d(X).\n", i);
    text += buf;
    for (int j = 0; j < kPerGroup; ++j) {
      std::snprintf(buf, sizeof(buf),
                    "r%d(X) :- s%d_%d(X).\ns%d_%d(X) :- p%d_%d(X).\n"
                    "s%d_%d(X) :- a%d_%d(X), b%d_%d(X, Y).\n",
                    i, i, j, i, j, i, j, i, j, i, j, i, j);
      text += buf;
    }
  }
  text += "q(c0) :- vip(c0).\nvip(c0).\n";
  for (int i = 0; i < kGroups; ++i) {
    for (int j = 0; j < kPerGroup; ++j) {
      int t = i * kPerGroup + j;
      double dp = Ladder(t, 5, 0, 0.02, 0.18);
      double da = Ladder(t, 7, 3, 0.10, 0.30);
      double db = Ladder(t, 11, 5, 0.05, 0.25);
      for (int k = 0; k < kConstants; ++k) {
        int c = by_rank[k];
        if (rng.NextBernoulli(dp)) {
          std::snprintf(buf, sizeof(buf), "p%d_%d(c%d).\n", i, j, c);
          text += buf;
        }
        if (rng.NextBernoulli(da)) {
          std::snprintf(buf, sizeof(buf), "a%d_%d(c%d).\n", i, j, c);
          text += buf;
        }
        if (rng.NextBernoulli(db)) {
          int n = 1 + static_cast<int>(rng.NextBounded(2));
          for (int k = 0; k < n; ++k) {
            std::snprintf(buf, sizeof(buf), "b%d_%d(c%d, d%d).\n", i, j, c,
                          static_cast<int>(rng.NextBounded(kSecondArgs)));
            text += buf;
          }
        }
      }
    }
  }
  return text;
}

/// Everything setup builds; the last setup repetition is served.
struct Kb {
  SymbolTable symbols;
  Database db;
  RuleBase rules;
  BuiltGraph built;
  QueryWorkload workload;
  std::unique_ptr<DatalogOracle> oracle;
  UpsilonResult plan;
  std::vector<double> probs;
  double load_s = 0.0;
  double build_s = 0.0;
  double plan_s = 0.0;
};

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

/// Parse + load, build, plan. `weights[k]` is the popularity of c_k.
std::unique_ptr<Kb> Setup(const std::string& program,
                          const std::vector<double>& weights,
                          Report* report) {
  auto kb = std::make_unique<Kb>();
  int64_t t0 = NowNs();
  Parser parser(&kb->symbols);
  Status loaded = parser.LoadProgram(program, &kb->db, &kb->rules);
  if (!loaded.ok()) {
    report->Fail("kb_setup", loaded.ToString());
    return nullptr;
  }
  kb->load_s = SecondsSince(t0);

  int64_t t1 = NowNs();
  Result<QueryForm> form = QueryForm::Parse("q(b)", &kb->symbols);
  Result<BuiltGraph> built =
      form.ok() ? BuildInferenceGraph(kb->rules, *form, &kb->symbols)
                : Result<BuiltGraph>(form.status());
  if (!built.ok()) {
    report->Fail("kb_setup", built.status().ToString());
    return nullptr;
  }
  kb->built = *std::move(built);
  kb->build_s = SecondsSince(t1);

  // Planning reads every distinct query's context once, which is also
  // the first touch of every lookup structure the serving loop uses.
  int64_t t2 = NowNs();
  kb->workload.entries.resize(kConstants);
  for (int c = 0; c < kConstants; ++c) {
    kb->workload.entries[c].args = {
        kb->symbols.Intern(std::string("c").append(std::to_string(c)))};
    kb->workload.entries[c].weight = weights[c];
  }
  kb->oracle = std::make_unique<DatalogOracle>(&kb->built, &kb->db,
                                               kb->workload);
  kb->probs = kb->oracle->TrueMarginalProbs();
  Result<UpsilonResult> plan = UpsilonAot(kb->built.graph, kb->probs);
  if (!plan.ok()) {
    report->Fail("kb_setup", plan.status().ToString());
    return nullptr;
  }
  kb->plan = *std::move(plan);
  kb->plan_s = SecondsSince(t2);
  return kb;
}

}  // namespace

void RunKbServe(const RunOptions& options, Report* report) {
  // --- Inputs (not timed): popularity, program text, query sequence.
  Rng rng(options.seed);
  std::vector<int> rank(kConstants);
  for (int c = 0; c < kConstants; ++c) rank[c] = c;
  rng.Shuffle(rank);
  std::vector<int> by_rank(kConstants);
  for (int c = 0; c < kConstants; ++c) by_rank[rank[c]] = c;
  std::string program = GenerateProgram(by_rank);
  std::vector<double> weights(kConstants);
  std::vector<double> cdf(kConstants);
  double total = 0.0;
  for (int c = 0; c < kConstants; ++c) {
    weights[c] =
        1.0 / std::pow(rank[c] / kZipfGroup + 1.0, kZipfExponent);
    total += weights[c];
    cdf[c] = total;
  }
  std::vector<int> sequence(kPassQueries);
  for (int& q : sequence) {
    double u = rng.NextDouble() * total;
    q = static_cast<int>(std::upper_bound(cdf.begin(), cdf.end(), u) -
                         cdf.begin());
    if (q >= kConstants) q = kConstants - 1;
  }

  // --- Setup (timed, repeated; the median is setup_s).
  std::vector<double> setup_s, load_s, build_s, plan_s;
  std::unique_ptr<Kb> kb;
  int64_t setup_start = WallNs();
  while (static_cast<int>(setup_s.size()) < kSetupRepeats ||
         static_cast<double>(WallNs() - setup_start) / 1e9 < kSetupSeconds) {
    kb.reset();
    int64_t t0 = NowNs();
    kb = Setup(program, weights, report);
    if (kb == nullptr) return;
    setup_s.push_back(SecondsSince(t0));
    load_s.push_back(kb->load_s);
    build_s.push_back(kb->build_s);
    plan_s.push_back(kb->plan_s);
  }
  program.clear();
  program.shrink_to_fit();
  const InferenceGraph& graph = kb->built.graph;
  const Strategy& strategy = kb->plan.strategy;

  // --- Reference answers (not timed): the SLD evaluator on every
  // distinct query.
  std::vector<char> reference(kConstants);
  {
    Evaluator evaluator(&kb->db, &kb->rules);
    SymbolId q = kb->symbols.Lookup("q");
    for (int c = 0; c < kConstants; ++c) {
      Atom goal(q, {Term::Constant(kb->workload.entries[c].args[0])});
      Result<ProofResult> proof = evaluator.Prove(goal, &kb->symbols);
      if (!proof.ok()) {
        report->Fail("kb_reference", proof.status().ToString());
        return;
      }
      reference[c] = proof->proved ? 1 : 0;
    }
  }
  if (options.sabotage == "kb_answers") {
    reference[sequence[0]] = !reference[sequence[0]];
  }

  size_t retrievals = kb->built.retrievals.size();
  QueryProcessor processor(&graph);
  int64_t wrong = 0;
  double pass_cost = 0.0;
  int64_t attempts = 0, experiment_attempts = 0;

  // Re-plans as setup does, outside the serving time.
  std::vector<double> replan_s;
  auto replan = [&] {
    int64_t t0 = NowNs();
    std::vector<double> probs = kb->oracle->TrueMarginalProbs();
    Result<UpsilonResult> plan = UpsilonAot(graph, probs);
    replan_s.push_back(SecondsSince(t0));
    if (!plan.ok()) report->Fail("kb_setup", plan.status().ToString());
  };

  // Serves in kPlanSamples equal segments; the first one covers at least
  // the deterministic pass. With `measure_plan`, re-plans after each.
  auto run_phase = [&](Tracer* tracer, double seconds, PhaseStats* stats,
                       bool measure_plan) {
    attempts = experiment_attempts = 0;
    Span phase(tracer, SpanKind::kPhase);
    int64_t served = 0;
    auto serve = [&](int64_t i) {
      int q = sequence[i % kPassQueries];
      int64_t t0 = NowNs();
      Context context = [&] {
        Span span(tracer, SpanKind::kContextFor);
        return kb->oracle->ContextFor(kb->workload.entries[q].args);
      }();
      Trace trace = [&] {
        Span span(tracer, SpanKind::kExecute);
        return processor.Execute(strategy, context);
      }();
      stats->Record(static_cast<double>(NowNs() - t0) / 1e3);
      if (trace.success != (reference[q] != 0)) ++wrong;
      if (i < kPassQueries) pass_cost += trace.cost;
      attempts += static_cast<int64_t>(trace.attempts.size());
      for (const ArcAttempt& a : trace.attempts) {
        if (graph.arc(a.arc).experiment >= 0) ++experiment_attempts;
      }
    };
    for (int s = 0; s < kPlanSamples; ++s) {
      LoopResult segment =
          TimedLoop(seconds / kPlanSamples, s == 0 ? kPassQueries : 1,
                    [&](int64_t k) { serve(served + k); });
      served += segment.units;
      stats->elapsed_s += segment.elapsed_s;
      if (measure_plan) replan();
    }
    stats->contexts = served;
  };

  Tracer off(false);
  PhaseStats untraced;
  run_phase(&off, options.trace ? options.seconds / 2 : options.seconds,
            &untraced, true);
  double expected_cost = ExactExpectedCost(graph, strategy, kb->probs);

  report->Note("kb: " + std::to_string(kb->db.TotalFacts()) + " facts, " +
               std::to_string(kConstants) + " distinct queries, " +
               std::to_string(graph.num_experiments()) + " experiments");
  report->Add("setup_s", Median(setup_s), "s");
  AddServeMetrics(untraced, report);
  report->Add("mean_cost", pass_cost / kPassQueries, "cost");
  // The served strategy is the plan itself; the planner examined every
  // distinct query once.
  report->Add("final_cost_ratio", expected_cost / kb->plan.expected_cost,
              "ratio");
  report->Add("learn_contexts", kConstants, "count");
  report->Add("learn_s", Mean(replan_s), "s");

  PhaseStats traced;
  if (options.trace) {
    Tracer tracer(true);
    run_phase(&tracer, options.seconds / 2, &traced, false);
    double n = static_cast<double>(traced.contexts);
    report->Add("datalog.lookup_us_per_query",
                tracer.totals(SpanKind::kContextFor).self_ns / 1e3 / n, "us");
    report->Add("datalog.lookups_per_query", static_cast<double>(retrievals),
                "count");
    report->Add("datalog.lookup_useful_frac",
                static_cast<double>(experiment_attempts) /
                    (n * static_cast<double>(graph.num_experiments())),
                "frac");
    report->Add("datalog.load_s", Median(load_s), "s");
    report->Add("datalog.facts", static_cast<double>(kb->db.TotalFacts()),
                "count");
    report->Add("graph.build_s", Median(build_s), "s");
    report->Add("graph.arcs", static_cast<double>(graph.num_arcs()), "count");
    report->Add("graph.experiments",
                static_cast<double>(graph.num_experiments()), "count");
    report->Add("core.plan_s", Median(plan_s), "s");
    double exec_ns = tracer.totals(SpanKind::kExecute).self_ns;
    report->Add("engine.execute_us_per_query", exec_ns / 1e3 / n, "us");
    report->Add("engine.attempts_per_query", attempts / n, "count");
    report->Add("engine.ns_per_attempt", exec_ns / attempts, "ns");
    AddTraceMetrics(tracer, untraced, traced, report);
    if (!options.spans_out.empty()) tracer.WriteRaw(options.spans_out);
  }

  report->attempted = untraced.contexts + traced.contexts;
  report->failed = wrong;
  if (wrong > 0) {
    report->Fail("kb_answers", std::to_string(wrong) +
                                   " served answers differ from the "
                                   "evaluator's reference");
  }
}

}  // namespace stratbench
