#include "obs/perf/bench_report.h"

#include <cmath>

#include <fstream>
#include <sstream>

#include "obs/json_reader.h"
#include "util/string_util.h"

namespace stratlearn::obs::perf {

Result<BenchReport> ParseBenchReport(const std::string& json_text) {
  JsonValue root;
  if (!ParseJson(json_text, &root) ||
      root.kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("not well-formed JSON");
  }
  std::string schema = ReadJsonString(root, "schema");
  if (schema != "stratlearn-bench-v1") {
    return Status::InvalidArgument(
        schema.empty() ? "missing \"schema\" tag"
                       : "unknown schema '" + schema + "'");
  }
  BenchReport report;
  report.workload = ReadJsonString(root, "workload");
  if (report.workload.empty()) {
    return Status::InvalidArgument("missing \"workload\" name");
  }
  if (const JsonValue* manifest = root.Get("manifest");
      manifest != nullptr && manifest->kind == JsonValue::Kind::kObject) {
    report.git_sha = ReadJsonString(*manifest, "git_sha");
    report.timestamp = ReadJsonString(*manifest, "timestamp");
    report.build_type = ReadJsonString(*manifest, "build_type");
    int64_t seed = 0;
    if (ReadJsonInt(*manifest, "seed", &seed)) {
      report.seed = static_cast<uint64_t>(seed);
    }
  }
  if (const JsonValue* config = root.Get("config");
      config != nullptr && config->kind == JsonValue::Kind::kObject) {
    (void)ReadJsonInt(*config, "repetitions", &report.repetitions);
    (void)ReadJsonBool(*config, "fake_clock", &report.fake_clock);
  }
  const JsonValue* wall = root.Get("wall_us");
  if (wall == nullptr || wall->kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("missing \"wall_us\" section");
  }
  if (!ReadJsonInt(*wall, "count", &report.count) ||
      !ReadJsonDouble(*wall, "p50", &report.p50) ||
      !ReadJsonDouble(*wall, "p90", &report.p90) ||
      !ReadJsonDouble(*wall, "p99", &report.p99)) {
    return Status::InvalidArgument(
        "wall_us needs numeric count/p50/p90/p99");
  }
  (void)ReadJsonDouble(*wall, "sum", &report.sum);
  (void)ReadJsonDouble(*wall, "min", &report.min);
  (void)ReadJsonDouble(*wall, "max", &report.max);
  (void)ReadJsonDouble(*wall, "mean", &report.mean);
  if (const JsonValue* counters = root.Get("counters");
      counters != nullptr && counters->kind == JsonValue::Kind::kObject) {
    for (const auto& [name, value] : counters->object) {
      if (value.kind == JsonValue::Kind::kNumber) {
        report.counters[name] = static_cast<int64_t>(value.number);
      }
    }
  }
  if (const JsonValue* throughput = root.Get("throughput");
      throughput != nullptr &&
      throughput->kind == JsonValue::Kind::kObject) {
    for (const auto& [name, value] : throughput->object) {
      if (value.kind == JsonValue::Kind::kNumber) {
        report.throughput[name] = value.number;
      }
    }
  }
  (void)ReadJsonDouble(root, "work_units", &report.work_units);
  (void)ReadJsonInt(root, "peak_rss_kb", &report.peak_rss_kb);
  return report;
}

Result<BenchReport> LoadBenchReport(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Result<BenchReport> parsed = ParseBenchReport(buffer.str());
  if (!parsed.ok()) {
    return Status::InvalidArgument(path + ": " +
                                   parsed.status().message());
  }
  return parsed;
}

Result<BenchComparison> CompareBenchReports(
    const BenchReport& baseline, const BenchReport& candidate,
    const BenchCompareOptions& options) {
  if (baseline.workload != candidate.workload) {
    return Status::InvalidArgument(
        StrFormat("workload mismatch: baseline '%s' vs candidate '%s'",
                  baseline.workload.c_str(), candidate.workload.c_str()));
  }
  BenchComparison comparison;
  comparison.workload = baseline.workload;
  bool confident = baseline.count >= options.min_count &&
                   candidate.count >= options.min_count;
  if (!confident) {
    comparison.notes.push_back(StrFormat(
        "low sample count (baseline %lld, candidate %lld, need %lld): "
        "deltas reported but not gated",
        static_cast<long long>(baseline.count),
        static_cast<long long>(candidate.count),
        static_cast<long long>(options.min_count)));
  }
  if (baseline.fake_clock != candidate.fake_clock) {
    comparison.notes.push_back(
        "clock-mode mismatch: one report is fake-clock, the other is wall "
        "time; deltas are not meaningful");
  }
  auto add_metric = [&](const char* name, double base, double cand) {
    BenchMetricDelta delta;
    delta.metric = name;
    delta.baseline = base;
    delta.candidate = cand;
    delta.rel_delta = base > 0.0 ? (cand - base) / base
                                 : (cand > 0.0 ? 1.0 : 0.0);
    delta.regression = confident &&
                       baseline.fake_clock == candidate.fake_clock &&
                       delta.rel_delta > options.rel_threshold &&
                       (cand - base) > options.abs_threshold_us;
    comparison.has_regression |= delta.regression;
    comparison.metrics.push_back(delta);
  };
  add_metric("p50", baseline.p50, candidate.p50);
  add_metric("p99", baseline.p99, candidate.p99);
  return comparison;
}

std::string RenderComparisonTable(
    const std::vector<BenchComparison>& comparisons) {
  std::string out;
  out += StrFormat("  %-18s %-6s %14s %14s %9s  %s\n", "workload", "metric",
                   "baseline us", "candidate us", "delta", "verdict");
  out += StrFormat("  %-18s %-6s %14s %14s %9s  %s\n", "------------------",
                   "------", "--------------", "--------------",
                   "---------", "----------");
  for (const BenchComparison& c : comparisons) {
    for (const BenchMetricDelta& m : c.metrics) {
      out += StrFormat("  %-18s %-6s %14s %14s %8.1f%%  %s\n",
                       c.workload.c_str(), m.metric.c_str(),
                       FormatDouble(m.baseline, 6).c_str(),
                       FormatDouble(m.candidate, 6).c_str(),
                       m.rel_delta * 100.0,
                       m.regression ? "REGRESSION" : "ok");
    }
    for (const std::string& note : c.notes) {
      out += StrFormat("  note (%s): %s\n", c.workload.c_str(),
                       note.c_str());
    }
  }
  return out;
}

}  // namespace stratlearn::obs::perf
