#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "obs/json_writer.h"

namespace stratbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kBench: return "bench";
    case Layer::kDatalog: return "datalog";
    case Layer::kEngine: return "engine";
    case Layer::kCore: return "core";
    case Layer::kObs: return "obs";
    case Layer::kRobust: return "robust";
    case Layer::kWorkload: return "workload";
    case Layer::kCount: break;
  }
  return "?";
}

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kPhase: return "bench.phase";
    case SpanKind::kContextFor: return "datalog.context_for";
    case SpanKind::kExecute: return "engine.execute";
    case SpanKind::kPibObserve: return "core.pib_observe";
    case SpanKind::kOracleNext: return "workload.oracle_next";
    case SpanKind::kPaoRun: return "core.pao_run";
    case SpanKind::kQpa: return "engine.qpa";
    case SpanKind::kUpsilon: return "core.upsilon";
    case SpanKind::kSink: return "obs.sink";
    case SpanKind::kTick: return "obs.tick";
    case SpanKind::kHealth: return "obs.health";
    case SpanKind::kCheckpoint: return "robust.checkpoint";
    case SpanKind::kCount: break;
  }
  return "?";
}

Layer SpanLayer(SpanKind kind) {
  switch (kind) {
    case SpanKind::kPhase: return Layer::kBench;
    case SpanKind::kContextFor: return Layer::kDatalog;
    case SpanKind::kExecute:
    case SpanKind::kQpa: return Layer::kEngine;
    case SpanKind::kPibObserve:
    case SpanKind::kPaoRun:
    case SpanKind::kUpsilon: return Layer::kCore;
    case SpanKind::kOracleNext: return Layer::kWorkload;
    case SpanKind::kSink:
    case SpanKind::kTick:
    case SpanKind::kHealth: return Layer::kObs;
    case SpanKind::kCheckpoint: return Layer::kRobust;
    case SpanKind::kCount: break;
  }
  return Layer::kBench;
}

Tracer::Tracer(bool enabled, size_t raw_capacity)
    : enabled_(enabled), raw_capacity_(enabled ? raw_capacity : 0) {
  raw_.reserve(raw_capacity_);
  stack_.reserve(16);
}

void Tracer::Begin(SpanKind kind) {
  if (!enabled_) return;
  int64_t raw_index = -1;
  int64_t now = NowNs();
  if (raw_.size() < raw_capacity_) {
    raw_index = static_cast<int64_t>(raw_.size());
    int64_t parent = stack_.empty() ? -1 : stack_.back().raw_index;
    raw_.push_back({kind, parent, now, now});
  }
  stack_.push_back({kind, now, 0, raw_index});
}

void Tracer::End() {
  if (!enabled_ || stack_.empty()) return;
  int64_t now = NowNs();
  Open open = stack_.back();
  stack_.pop_back();
  int64_t duration = now - open.start_ns;
  Totals& t = totals_[static_cast<size_t>(open.kind)];
  ++t.count;
  t.total_ns += duration;
  t.self_ns += duration - open.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += duration;
  if (open.raw_index >= 0) raw_[open.raw_index].end_ns = now;
}

int64_t Tracer::LayerSelfNs(Layer layer) const {
  int64_t sum = 0;
  for (size_t k = 0; k < static_cast<size_t>(SpanKind::kCount); ++k) {
    if (SpanLayer(static_cast<SpanKind>(k)) == layer) {
      sum += totals_[k].self_ns;
    }
  }
  return sum;
}

bool Tracer::WriteRaw(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  int64_t origin = raw_.empty() ? 0 : raw_.front().start_ns;
  for (size_t i = 0; i < raw_.size(); ++i) {
    const Raw& r = raw_[i];
    out << "{\"id\":" << i << ",\"parent\":" << r.parent << ",\"name\":\""
        << SpanName(r.kind) << "\",\"layer\":\"" << LayerName(SpanLayer(r.kind))
        << "\",\"start_ns\":" << (r.start_ns - origin)
        << ",\"end_ns\":" << (r.end_ns - origin) << "}\n";
  }
  return static_cast<bool>(out);
}

double Quantile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  if (rank > 0) --rank;
  rank = std::min(rank, samples.size() - 1);
  std::nth_element(samples.begin(), samples.begin() + rank, samples.end());
  return samples[rank];
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Note(const std::string& text) { notes_.push_back(text); }

void Report::Fail(const std::string& check, const std::string& detail) {
  failures_.push_back(check + ": " + detail);
}

void Report::Expect(const std::string& name, const std::string& unit,
                    bool zero_if_missing) {
  for (const Entry& m : metrics_) {
    if (m.name != name) continue;
    if (m.unit != unit) Fail("report", name + " has unit " + m.unit);
    return;
  }
  if (zero_if_missing) {
    Add(name, 0.0, unit);
  } else {
    Fail("report", "metric " + name + " was not measured");
  }
}

void Report::Print(const RunOptions& options,
                   const std::vector<std::string>& keep) const {
  for (const std::string& note : notes_) std::printf("# %s\n", note.c_str());
  for (const Entry& m : metrics_) {
    std::printf("%-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& f : failures_) {
    std::printf("CHECK FAILED %s\n", f.c_str());
  }

  using stratlearn::obs::JsonWriter;
  JsonWriter info;
  info.BeginObject();
  info.Key("workload").Value(std::string_view(options.workload));
  info.Key("seed").Value(static_cast<int64_t>(options.seed));
  info.Key("seconds").Value(options.seconds);
  info.Key("trace").Value(options.trace);
  info.Key("commit").Value(std::string_view(options.commit));
  info.Key("compiler").Value(STRATBENCH_COMPILER);
  info.Key("build_type").Value(STRATBENCH_BUILD_TYPE);
  info.Key("nproc").Value(
      static_cast<int64_t>(std::thread::hardware_concurrency()));
  info.Key("loop").Value("closed, one caller, single thread");
  info.EndObject();
  std::printf("run %s\n", info.str().c_str());

  JsonWriter w(JsonWriter::kRoundTripDigits);
  w.BeginObject();
  w.Key("correct").Value(correct());
  w.Key("attempted").Value(attempted);
  w.Key("failed").Value(failed);
  w.Key("metrics").BeginObject();
  for (const Entry& m : metrics_) {
    if (!keep.empty() &&
        std::find(keep.begin(), keep.end(), m.name) == keep.end()) {
      continue;
    }
    w.Key(m.name).BeginObject();
    w.Key("value").Value(m.value);
    w.Key("unit").Value(std::string_view(m.unit));
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
}

ScratchDir::ScratchDir(const std::string& root) {
  std::error_code ec;
  std::filesystem::create_directories(root, ec);
  std::string pattern = root + "/stratbench-XXXXXX";
  std::vector<char> buf(pattern.begin(), pattern.end());
  buf.push_back('\0');
  if (mkdtemp(buf.data()) != nullptr) path_ = buf.data();
}

ScratchDir::~ScratchDir() {
  if (path_.empty()) return;
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void PhaseStats::Record(double latency_us) {
  ++samples_;
  if (block_.capacity() < kBlock) block_.reserve(kBlock);
  block_.push_back(latency_us);
  if (block_.size() == kBlock) {
    block_p50_.push_back(Quantile(block_, 0.50));
    block_p99_.push_back(Quantile(block_, 0.99));
    block_.clear();
  }
}

double PhaseStats::BlockMean(const std::vector<double>& per_block,
                             double q) const {
  if (per_block.empty()) {
    std::vector<double> partial = block_;
    return Quantile(partial, q);
  }
  double sum = 0.0;
  for (double v : per_block) sum += v;
  return sum / static_cast<double>(per_block.size());
}

double PhaseStats::P50() const { return BlockMean(block_p50_, 0.50); }
double PhaseStats::P99() const { return BlockMean(block_p99_, 0.99); }

void AddServeMetrics(const PhaseStats& untraced, Report* report) {
  // The p50 of every 32 blocks shows interference that comes and goes
  // during the run (other tenants of a shared machine).
  constexpr size_t kGroup = 32;
  std::string groups = "mean block p50 per " +
                       std::to_string(kGroup * PhaseStats::kBlock) +
                       " contexts (us):";
  const std::vector<double>& p50 = untraced.block_p50();
  for (size_t g = 0; g + kGroup <= p50.size(); g += kGroup) {
    double sum = 0.0;
    for (size_t i = g; i < g + kGroup; ++i) sum += p50[i];
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.2f", sum / kGroup);
    groups += buf;
  }
  report->Note(groups);
  report->Note("latency: " + std::to_string(untraced.samples()) +
               " contexts in " + std::to_string(untraced.elapsed_s) +
               " s; p50 and p99 are means over " +
               std::to_string(untraced.full_blocks()) + " blocks of " +
               std::to_string(PhaseStats::kBlock) + " contexts");
  char speed[96];
  std::snprintf(speed, sizeof(speed),
                "clock: NowNs runs at %.3f x wall time at the end of the run",
                CoreSpeed());
  report->Note(speed);
  report->Add("queries_per_s", untraced.QueriesPerS(), "1/s");
  report->Add("query_us_p50", untraced.P50(), "us");
  report->Add("query_us_p99", untraced.P99(), "us");
  report->Add("peak_rss_mb", PeakRssMb(), "MiB");
}

void AddTraceMetrics(const Tracer& tracer, const PhaseStats& untraced,
                     const PhaseStats& traced, Report* report) {
  int64_t phase_ns = tracer.totals(SpanKind::kPhase).total_ns;
  int64_t accounted = 0;
  for (size_t l = 0; l < static_cast<size_t>(Layer::kCount); ++l) {
    Layer layer = static_cast<Layer>(l);
    int64_t self = tracer.LayerSelfNs(layer);
    accounted += self;
    report->Add(std::string(LayerName(layer)) + ".self_frac",
                phase_ns > 0 ? static_cast<double>(self) / phase_ns : 0.0,
                "frac");
  }
  report->Note("traced time " + std::to_string(phase_ns / 1e9) +
               " s; layer self times sum to " +
               std::to_string(accounted / 1e9) + " s");
  double traced_qps = traced.QueriesPerS();
  report->Add("bench.trace_overhead",
              traced_qps > 0.0 ? untraced.QueriesPerS() / traced_qps - 1.0
                               : 0.0,
              "frac");
}

}  // namespace stratbench
