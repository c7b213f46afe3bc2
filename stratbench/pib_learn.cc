// pib_learn: online PIB hill-climbing while serving. Each episode starts
// a fresh Pib at the worst leaf order of a seeded flat graph and serves
// a replayed stream of independent contexts: ContextOracle::Next ->
// QueryProcessor::Execute -> Pib::Observe. Telemetry is off.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/delta_estimator.h"
#include "core/expected_cost.h"
#include "core/pib.h"
#include "core/transformations.h"
#include "core/upsilon.h"
#include "engine/query_processor.h"
#include "harness.h"
#include "replay.h"
#include "util/rng.h"
#include "workload/synthetic_oracle.h"

namespace stratbench {
namespace {

using namespace stratlearn;  // NOLINT: a benchmark of the whole library

// Input sizes.
constexpr int kLeaves = 12;               // 66 sibling-swap neighbours
constexpr int kEpisodes = 18;             // fresh learners per pass
constexpr int64_t kEpisodeContexts = 60000;
constexpr double kDelta = 0.2;
constexpr int kSetupRepeats = 101;        // setup_s is their median,
constexpr double kSetupSeconds = 2.0;     // over at least this long
constexpr int kDeltaCheckContexts = 200;  // sampled traces for Delta~ <= Delta

/// A flat graph: leaf i gets cost and success probability from fixed
/// ladders; the seed permutes which leaf gets which rung and jitters each
/// value by up to 3%, so every seed poses an equally hard problem.
struct Problem {
  InferenceGraph graph;
  std::vector<double> probs;
};

Problem MakeProblem(uint64_t seed) {
  Rng rng(seed * 0x2545F4914F6CDD1Dull + 7);
  std::vector<int> rung(kLeaves);
  for (int i = 0; i < kLeaves; ++i) rung[i] = i;
  rng.Shuffle(rung);
  Problem p;
  NodeId root = p.graph.AddRoot("goal");
  for (int i = 0; i < kLeaves; ++i) {
    double step = 1.0 / (kLeaves - 1);
    double cost = (0.3 + 2.7 * step * ((5 * rung[i] + 1) % kLeaves)) *
                  rng.NextUniform(0.97, 1.03);
    double prob = (0.01 + 0.94 * step * ((7 * rung[i] + 2) % kLeaves)) *
                  rng.NextUniform(0.97, 1.03);
    std::string label = "d";
    p.graph.AddRetrieval(root, cost, label.append(std::to_string(i)));
    p.probs.push_back(std::min(prob, 0.97));
  }
  return p;
}

/// What setup produces: the optimum (for the cost ratio) and the worst
/// leaf order PIB starts from.
struct Plan {
  Strategy optimal;
  double optimal_cost = 0.0;
  Strategy initial;
};

Plan MakePlan(const Problem& p, Report* report) {
  Plan plan;
  Result<UpsilonResult> upsilon = UpsilonAot(p.graph, p.probs);
  if (!upsilon.ok()) {
    report->Fail("pib_setup", upsilon.status().ToString());
    return plan;
  }
  plan.optimal = upsilon->strategy;
  plan.optimal_cost = upsilon->expected_cost;
  // On a flat graph the reverse of the optimal order is the worst one.
  std::vector<ArcId> order = plan.optimal.LeafOrder(p.graph);
  std::reverse(order.begin(), order.end());
  plan.initial = Strategy::FromLeafOrder(p.graph, order);
  return plan;
}

}  // namespace

void RunPibLearn(const RunOptions& options, Report* report) {
  // --- Inputs (not timed): the graph and every episode's contexts.
  Problem problem = MakeProblem(options.seed);
  const InferenceGraph& graph = problem.graph;
  ReplayPool pool(graph, IndependentOracle(problem.probs),
                  kEpisodes * kEpisodeContexts, options.seed);
  if (options.sabotage == "pib_answers") pool.FlipAnswer(0);

  // --- Setup (timed, repeated): plan + learner construction.
  Plan plan;
  size_t swaps_found = 0;
  double setup_s = MedianSeconds(kSetupRepeats, kSetupSeconds, [&] {
    plan = MakePlan(problem, report);
    Pib probe(&graph, plan.initial, PibOptions{.delta = kDelta});
    swaps_found = probe.num_neighbors();
  });
  if (swaps_found == 0) report->Fail("pib_setup", "the graph has no swaps");
  if (!report->correct()) return;
  // Starting at the optimum leaves PIB nothing to climb to.
  if (options.sabotage == "pib_climbs") plan.initial = plan.optimal;
  double initial_cost = ExactExpectedCost(graph, plan.initial, problem.probs);

  QueryProcessor processor(&graph);
  int64_t wrong = 0;
  // Per-episode results of the first (deterministic) pass, and the time
  // to the last climb of every untraced episode, summed per episode.
  std::vector<double> last_climb_ctx, final_ratio;
  std::vector<double> last_climb_s(kEpisodes, 0.0);
  std::vector<double> climb_runs(kEpisodes, 0.0);
  std::vector<Strategy> finals;
  double pass_cost = 0.0;
  int64_t pass_moves = 0, pass_rounds = 0;
  double pass_neighbors = 0.0;
  double neighbors_seen = 0.0;
  // Traced-phase accumulators.
  int64_t attempts = 0;
  double climb_ns = 0.0;
  int64_t climbs = 0;

  auto run_phase = [&](Tracer* tracer, double seconds, PhaseStats* stats,
                       bool record_pass) {
    attempts = climbs = 0;
    climb_ns = neighbors_seen = 0.0;
    Span phase(tracer, SpanKind::kPhase);
    LoopResult loop = TimedLoop(seconds, kEpisodes, [&](int64_t e) {
      bool first_pass = record_pass && e < kEpisodes;
      int episode = static_cast<int>(e % kEpisodes);
      ReplayOracle oracle(&pool, episode * kEpisodeContexts);
      Rng unused(0);
      Pib pib(&graph, plan.initial, PibOptions{.delta = kDelta});
      int64_t start = NowNs();
      int64_t last_climb = 0, last_climb_at = start;
      for (int64_t k = 0; k < kEpisodeContexts; ++k) {
        int64_t t0 = NowNs();
        Context context = [&] {
          Span span(tracer, SpanKind::kOracleNext);
          return oracle.Next(unused);
        }();
        Trace trace = [&] {
          Span span(tracer, SpanKind::kExecute);
          return processor.Execute(pib.strategy(), context);
        }();
        size_t neighbors = pib.num_neighbors();
        int64_t t1 = NowNs();
        bool moved = [&] {
          Span span(tracer, SpanKind::kPibObserve);
          return pib.Observe(trace);
        }();
        int64_t t2 = NowNs();
        stats->Record(static_cast<double>(t2 - t0) / 1e3);
        if (trace.success != oracle.last_answer()) ++wrong;
        attempts += static_cast<int64_t>(trace.attempts.size());
        neighbors_seen += static_cast<double>(neighbors);
        if (moved) {
          last_climb = k + 1;
          last_climb_at = t2;
          climb_ns += static_cast<double>(t2 - t1);
          ++climbs;
        }
        if (first_pass) {
          pass_cost += trace.cost;
          pass_neighbors += static_cast<double>(neighbors);
        }
      }
      stats->contexts += kEpisodeContexts;
      if (record_pass) {
        last_climb_s[episode] +=
            static_cast<double>(last_climb_at - start) / 1e9;
        climb_runs[episode] += 1.0;
      }
      if (!first_pass) return;
      last_climb_ctx.push_back(static_cast<double>(last_climb));
      final_ratio.push_back(
          ExactExpectedCost(graph, pib.strategy(), problem.probs) /
          plan.optimal_cost);
      finals.push_back(pib.strategy());
      pass_moves += static_cast<int64_t>(pib.moves().size());
      pass_rounds += pib.contexts_processed();
    });
    stats->elapsed_s = loop.elapsed_s;
  };

  Tracer off(false);
  PhaseStats untraced;
  run_phase(&off, options.trace ? options.seconds / 2 : options.seconds,
            &untraced, true);

  report->Note("pib: " + std::to_string(kLeaves) + "-leaf flat graph, " +
               std::to_string(kEpisodes) + " episodes x " +
               std::to_string(kEpisodeContexts) + " contexts per pass, " +
               std::to_string(pass_moves) + " climbs in the first pass");
  report->Add("setup_s", setup_s, "s");
  AddServeMetrics(untraced, report);
  report->Add("mean_cost", pass_cost / (kEpisodes * kEpisodeContexts),
              "cost");
  report->Add("final_cost_ratio", Median(final_ratio), "ratio");
  report->Add("learn_contexts", Median(last_climb_ctx), "count");
  // Every episode weighs the same, however many times the run repeated it.
  std::vector<double> per_episode;
  for (int e = 0; e < kEpisodes; ++e) {
    if (climb_runs[e] > 0.0) {
      per_episode.push_back(last_climb_s[e] / climb_runs[e]);
    }
  }
  report->Add("learn_s", Mean(per_episode), "s");

  PhaseStats traced;
  if (options.trace) {
    Tracer tracer(true);
    run_phase(&tracer, options.seconds / 2, &traced, false);
    double n = static_cast<double>(traced.contexts);
    double exec_ns = tracer.totals(SpanKind::kExecute).self_ns;
    double observe_ns = tracer.totals(SpanKind::kPibObserve).self_ns;
    report->Add("engine.execute_us_per_query", exec_ns / 1e3 / n, "us");
    report->Add("engine.attempts_per_query", attempts / n, "count");
    report->Add("engine.ns_per_attempt", exec_ns / attempts, "ns");
    report->Add("core.pib_observe_us_per_ctx", observe_ns / 1e3 / n, "us");
    report->Add("core.pib_observe_ns_per_neighbor",
                observe_ns / neighbors_seen, "ns");
    report->Add("core.learn_over_serve", observe_ns / exec_ns, "ratio");
    report->Add("core.pib_climb_us",
                climbs > 0 ? climb_ns / 1e3 / climbs : 0.0, "us");
    report->Add("core.pib_neighbors",
                pass_neighbors / (kEpisodes * kEpisodeContexts), "count");
    report->Add("core.pib_moves", static_cast<double>(pass_moves), "count");
    report->Add("core.pib_accept_frac",
                static_cast<double>(pass_moves) / pass_rounds, "frac");
    report->Add("workload.gen_us_per_ctx",
                tracer.totals(SpanKind::kOracleNext).self_ns / 1e3 / n, "us");
    AddTraceMetrics(tracer, untraced, traced, report);
    if (!options.spans_out.empty()) tracer.WriteRaw(options.spans_out);
  }

  // --- Checks (not timed).
  report->attempted = untraced.contexts + traced.contexts;
  report->failed = wrong;
  if (wrong > 0) {
    report->Fail("pib_answers", std::to_string(wrong) +
                                    " answers differ from root-path "
                                    "reachability");
  }
  if (pass_moves == 0) report->Fail("pib_climbs", "no climb in the pass");
  for (size_t e = 0; e < finals.size(); ++e) {
    double final_cost = ExactExpectedCost(graph, finals[e], problem.probs);
    if (options.sabotage == "pib_cost") final_cost += graph.TotalCost();
    if (final_cost > initial_cost + 1e-9) {
      report->Fail("pib_cost", "episode " + std::to_string(e) +
                                   " ended at expected cost " +
                                   std::to_string(final_cost) + " > initial " +
                                   std::to_string(initial_cost));
    }
  }
  DeltaEstimator estimator(&graph);
  std::vector<SiblingSwap> swaps = AllSiblingSwaps(graph);
  int64_t violations = 0;
  for (const Strategy& strategy : {plan.initial, finals.front()}) {
    for (int k = 0; k < kDeltaCheckContexts; ++k) {
      const Context& context = pool.context(k * 97 % pool.size());
      Trace trace = processor.Execute(strategy, context);
      for (const SiblingSwap& swap : swaps) {
        Strategy alternative = ApplySwap(graph, strategy, swap);
        double under = estimator.UnderEstimate(trace, alternative);
        if (options.sabotage == "pib_delta") under += graph.TotalCost();
        double exact = estimator.ExactDelta(strategy, alternative, context);
        if (under > exact + 1e-9) ++violations;
      }
    }
  }
  if (violations > 0) {
    report->Fail("pib_delta", std::to_string(violations) +
                                  " sampled traces have Delta~ > Delta");
  }
}

}  // namespace stratbench
