// stratbench: the end-to-end and per-layer benchmark of stratlearn.
//
//   stratbench --workload kb_serve|pib_learn|pao_traced --seed N
//              --seconds S --trace 0|1 [--commit REV] [--spans-out FILE]
//              [--scratch-root DIR] [--sabotage CHECK]
//
// Prints every metric by name and unit, then one JSON line with
// "correct", "attempted", "failed" and "metrics" (the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1). Exits 1 when a
// correctness check fails and 2 on a usage error or unoptimised build.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"

namespace stratbench {
namespace {

using MetricTable = std::vector<std::pair<std::string, std::string>>;

// Name and unit of every metric a run reports.
const MetricTable kEndToEnd = {
    {"setup_s", "s"},          {"queries_per_s", "1/s"},
    {"query_us_p50", "us"},    {"query_us_p99", "us"},
    {"mean_cost", "cost"},     {"answered_frac", "frac"},
    {"final_cost_ratio", "ratio"}, {"learn_contexts", "count"},
    {"learn_s", "s"},          {"peak_rss_mb", "MiB"},
};

const MetricTable kPerLayer = {
    {"datalog.lookup_us_per_query", "us"},
    {"datalog.lookups_per_query", "count"},
    {"datalog.lookup_useful_frac", "frac"},
    {"datalog.load_s", "s"},
    {"datalog.facts", "count"},
    {"graph.build_s", "s"},
    {"graph.arcs", "count"},
    {"graph.experiments", "count"},
    {"core.plan_s", "s"},
    {"engine.execute_us_per_query", "us"},
    {"engine.attempts_per_query", "count"},
    {"engine.ns_per_attempt", "ns"},
    {"core.pib_observe_us_per_ctx", "us"},
    {"core.pib_observe_ns_per_neighbor", "ns"},
    {"core.learn_over_serve", "ratio"},
    {"core.pib_climb_us", "us"},
    {"core.pib_neighbors", "count"},
    {"core.pib_moves", "count"},
    {"core.pib_accept_frac", "frac"},
    {"engine.qpa_us_per_ctx", "us"},
    {"core.upsilon_us", "us"},
    {"core.pao_quota_sum", "count"},
    {"obs.sink_us_per_ctx", "us"},
    {"obs.events_per_ctx", "count"},
    {"obs.trace_bytes_per_ctx", "B"},
    {"obs.audit_bytes_per_ctx", "B"},
    {"obs.health_us_per_window", "us"},
    {"obs.windows", "count"},
    {"robust.checkpoint_us", "us"},
    {"robust.checkpoint_bytes", "B"},
    {"robust.faults", "count"},
    {"robust.retries", "count"},
    {"robust.degraded", "count"},
    {"workload.gen_us_per_ctx", "us"},
    {"bench.trace_overhead", "frac"},
    {"bench.self_frac", "frac"},
    {"datalog.self_frac", "frac"},
    {"engine.self_frac", "frac"},
    {"core.self_frac", "frac"},
    {"obs.self_frac", "frac"},
    {"robust.self_frac", "frac"},
    {"workload.self_frac", "frac"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "stratbench: %s\nusage: stratbench --workload "
               "kb_serve|pib_learn|pao_traced --seed N --seconds S "
               "--trace 0|1 [--commit REV] [--spans-out FILE] "
               "[--scratch-root DIR] [--sabotage CHECK]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace stratbench

int main(int argc, char** argv) {
  using namespace stratbench;  // NOLINT
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "stratbench: refusing to measure an unoptimised build "
               "(configure with -DCMAKE_BUILD_TYPE=Release)\n");
  return 2;
#endif
  RunOptions options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     options.seconds > 0.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (flag == "--commit") {
      options.commit = value;
    } else if (flag == "--spans-out") {
      options.spans_out = value;
    } else if (flag == "--scratch-root") {
      options.scratch_root = value;
    } else if (flag == "--sabotage") {
      options.sabotage = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }
  const std::vector<std::string> checks = {
      "kb_answers", "pib_answers", "pib_delta", "pib_cost", "pib_climbs",
      "pao_answers", "pao_cost", "pao_trace"};
  if (!options.sabotage.empty() &&
      std::find(checks.begin(), checks.end(), options.sabotage) ==
          checks.end()) {
    return Usage(("unknown check '" + options.sabotage + "'").c_str());
  }

  Report report;
  if (options.workload == "kb_serve") {
    RunKbServe(options, &report);
  } else if (options.workload == "pib_learn") {
    RunPibLearn(options, &report);
  } else if (options.workload == "pao_traced") {
    RunPaoTraced(options, &report);
  } else {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  report.Add("answered_frac",
             report.attempted > 0
                 ? 1.0 - static_cast<double>(report.failed) /
                             static_cast<double>(report.attempted)
                 : 0.0,
             "frac");
  // A per-layer metric a workload does not exercise reads 0; a missing
  // end-to-end metric is a defect of the benchmark itself.
  const MetricTable& table = options.trace ? kPerLayer : kEndToEnd;
  std::vector<std::string> keep;
  for (const auto& [name, unit] : table) {
    keep.push_back(name);
    report.Expect(name, unit, /*zero_if_missing=*/options.trace);
  }
  report.Print(options, keep);
  return report.correct() ? 0 : 1;
}
