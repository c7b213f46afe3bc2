// Shared pieces of the stratbench program: run options, the span tracer
// that attributes wall time to stratlearn's layers, exact order
// statistics, the metric report and a private per-run scratch directory.
#ifndef STRATBENCH_HARNESS_H_
#define STRATBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace stratbench {

/// Command-line options of one benchmark run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Provenance stamped into the report (the source revision).
  std::string commit = "unknown";
  /// Where the traced run writes its raw spans (empty: not written).
  std::string spans_out;
  /// Directory under which the run creates its private scratch dir.
  std::string scratch_root = ".";
  /// Name of a correctness check to sabotage, proving the check fires.
  std::string sabotage;
};

/// Wall time, for deciding how long to run; no metric reads it.
inline int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The clock every timing metric reads: wall time scaled to a core on
/// which the calibration kernel of refclock.cc takes kReferenceKernelNs.
/// It tracks the speed changes of a shared host's cores (see
/// refclock.cc); the kernel's own runs are not counted.
int64_t NowNs();
constexpr double kReferenceKernelNs = 200000.0;
/// The current scale factor of NowNs over wall time.
double CoreSpeed();

/// The modules of stratlearn that a span can be charged to, plus the
/// benchmark's own loop. graph has no span: it only runs during setup,
/// which graph.build_s times.
enum class Layer : uint8_t {
  kBench,
  kDatalog,
  kEngine,
  kCore,
  kObs,
  kRobust,
  kWorkload,
  kCount,
};
const char* LayerName(Layer layer);

/// Every span the benchmark records, each charged to one layer.
enum class SpanKind : uint8_t {
  kPhase,         // bench: the timed loop itself
  kContextFor,    // datalog: DatalogOracle::ContextFor (database lookups)
  kExecute,       // engine: QueryProcessor::Execute
  kPibObserve,    // core: Pib::Observe
  kOracleNext,    // workload: replayed ContextOracle::Next
  kPaoRun,        // core: Pao::Run outside its children
  kQpa,           // engine: QP^A work between two on_context hooks
  kUpsilon,       // core: Pao::Run after the last context (Upsilon_AOT)
  kSink,          // obs: one event through the JSONL/audit/series sinks
  kTick,          // obs: time-series AdvanceTo outside window callbacks
  kHealth,        // obs: HealthMonitor::OnWindow
  kCheckpoint,    // robust: one checkpoint write
  kCount,
};
const char* SpanName(SpanKind kind);
Layer SpanLayer(SpanKind kind);

/// Records spans from the benchmark's wrappers around calls into each
/// layer. Spans must nest. Aggregates (count, total, self time) are kept
/// online; the first `raw_capacity` raw spans are kept in memory and
/// written out at exit. A disabled tracer makes Begin/End no-ops.
class Tracer {
 public:
  explicit Tracer(bool enabled, size_t raw_capacity = 20000);

  bool enabled() const { return enabled_; }
  void Begin(SpanKind kind);
  void End();

  struct Totals {
    int64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  const Totals& totals(SpanKind kind) const {
    return totals_[static_cast<size_t>(kind)];
  }
  int64_t LayerSelfNs(Layer layer) const;
  /// Writes the kept raw spans as one JSON object per line.
  bool WriteRaw(const std::string& path) const;

 private:
  struct Open {
    SpanKind kind;
    int64_t start_ns;
    int64_t child_ns;
    int64_t raw_index;
  };
  struct Raw {
    SpanKind kind;
    int64_t parent;
    int64_t start_ns;
    int64_t end_ns;
  };
  bool enabled_;
  size_t raw_capacity_;
  std::vector<Open> stack_;
  std::vector<Raw> raw_;
  Totals totals_[static_cast<size_t>(SpanKind::kCount)];
};

/// RAII span; free when the tracer is disabled.
class Span {
 public:
  Span(Tracer* tracer, SpanKind kind)
      : tracer_(tracer->enabled() ? tracer : nullptr) {
    if (tracer_ != nullptr) tracer_->Begin(kind);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

/// Exact order statistic (nearest rank) of `samples`; reorders them.
double Quantile(std::vector<double>& samples, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Metrics of one run, printed by name and unit, plus the correctness
/// verdict. Any failed check makes the run fail.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  void Note(const std::string& text);
  /// Records a failed correctness check.
  void Fail(const std::string& check, const std::string& detail);
  bool correct() const { return failures_.empty(); }
  /// Checks that metric `name` was added with `unit`; a missing one is
  /// added as 0 when `zero_if_missing`, else recorded as a failure.
  void Expect(const std::string& name, const std::string& unit,
              bool zero_if_missing);

  int64_t attempted = 0;
  int64_t failed = 0;

  /// Prints human-readable lines, a provenance line and, last, the JSON
  /// result line with the metrics named in `keep` (all when empty).
  void Print(const RunOptions& options,
             const std::vector<std::string>& keep) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
};

/// A private scratch directory created under `root` and removed with
/// everything in it when the object goes away.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& root);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  bool ok() const { return !path_.empty(); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

struct LoopResult {
  double elapsed_s = 0.0;
  int64_t units = 0;
};

/// Runs `unit(i)` for i = 0, 1, ... over passes of `units_per_pass`
/// units until at least one full pass is done and `seconds` of wall time
/// have passed. Returns the NowNs seconds spent and the units run.
template <typename Fn>
LoopResult TimedLoop(double seconds, int64_t units_per_pass, Fn&& unit) {
  LoopResult r;
  int64_t wall_start = WallNs();
  int64_t start = NowNs();
  int64_t budget_ns = static_cast<int64_t>(seconds * 1e9);
  while (true) {
    unit(r.units);
    ++r.units;
    if (r.units >= units_per_pass && WallNs() - wall_start >= budget_ns) {
      break;
    }
  }
  r.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  return r;
}

/// Runs `setup` at least `min_reps` times and until `min_seconds` of wall
/// time have passed, and returns the median duration in seconds. A short
/// setup is repeated for long enough that a slow start of the process
/// does not decide its median.
template <typename Fn>
double MedianSeconds(int min_reps, double min_seconds, Fn&& setup) {
  std::vector<double> seconds;
  int64_t start = WallNs();
  while (static_cast<int>(seconds.size()) < min_reps ||
         static_cast<double>(WallNs() - start) / 1e9 < min_seconds) {
    int64_t t0 = NowNs();
    setup();
    seconds.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  return Median(std::move(seconds));
}

/// Per-context timings of one measured phase of a serving loop. Latency
/// quantiles are taken within each block of kBlock consecutive contexts
/// and averaged over the full blocks. A neighbour on a shared host that
/// slows the core for part of a run then moves them in proportion to
/// that part; a quantile over the whole run would jump from the fast to
/// the slow latency once the slow part crosses it. Memory stays small
/// however many contexts a run serves, so peak_rss_mb does not grow with
/// throughput.
class PhaseStats {
 public:
  static constexpr size_t kBlock = 4096;

  void Record(double latency_us);
  /// Mean of the per-block p50 and p99 (of the partial block when no
  /// block is full).
  double P50() const;
  double P99() const;
  int64_t samples() const { return samples_; }
  int64_t full_blocks() const {
    return static_cast<int64_t>(block_p50_.size());
  }
  const std::vector<double>& block_p50() const { return block_p50_; }

  int64_t contexts = 0;
  double elapsed_s = 0.0;
  double QueriesPerS() const {
    return elapsed_s > 0.0 ? static_cast<double>(contexts) / elapsed_s
                           : 0.0;
  }

 private:
  double BlockMean(const std::vector<double>& per_block, double q) const;

  std::vector<double> block_;
  std::vector<double> block_p50_;
  std::vector<double> block_p99_;
  int64_t samples_ = 0;
};

/// Adds queries_per_s, query_us_p50/p99 (with the sample count as a
/// note) and peak_rss_mb for the untraced phase.
void AddServeMetrics(const PhaseStats& untraced, Report* report);

/// Adds the per-layer self-time shares and bench.trace_overhead.
void AddTraceMetrics(const Tracer& tracer, const PhaseStats& untraced,
                     const PhaseStats& traced, Report* report);

/// The three workloads. Each adds every end-to-end metric it measures
/// and, when `options.trace` is set, the per-layer metrics of its
/// traced phase.
void RunKbServe(const RunOptions& options, Report* report);
void RunPibLearn(const RunOptions& options, Report* report);
void RunPaoTraced(const RunOptions& options, Report* report);

}  // namespace stratbench

#endif  // STRATBENCH_HARNESS_H_
