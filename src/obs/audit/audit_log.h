#ifndef STRATLEARN_OBS_AUDIT_AUDIT_LOG_H_
#define STRATLEARN_OBS_AUDIT_AUDIT_LOG_H_

#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "obs/json_writer.h"
#include "obs/trace_sink.h"

namespace stratlearn::obs {

/// Configuration of one audit log. The regret baselines are *expected*
/// per-query costs under the workload's true success probabilities —
/// the CLI computes them with ExactExpectedCost when the workload
/// generator knows the truth; otherwise `have_baselines` stays false
/// and regret records carry realized cost only.
struct AuditLogOptions {
  /// Lifetime confidence budget the run was configured with; 0 defers
  /// to the per-certificate `delta_budget` field.
  double delta_budget = 0.0;
  /// Queries per regret-accounting window.
  int64_t window = 100;
  bool have_baselines = false;
  /// Expected per-query cost of the incumbent (initial) strategy.
  double incumbent_expected_cost = 0.0;
  /// Expected per-query cost of the oracle-optimal strategy.
  double oracle_expected_cost = 0.0;
};

/// Writes the `stratlearn-audit v1` decision-audit stream: a magic
/// first line, then one JSON record per line —
///
///   {"record":"header",...}        run configuration, written eagerly
///   {"record":"certificate",...}   one per DecisionCertificateEvent,
///                                  with the per-arc attempt tallies of
///                                  the epoch since the previous
///                                  certificate (so tools/audit_verify
///                                  can re-derive every count from the
///                                  raw arc_attempt stream)
///   {"record":"regret",...}        per-window realized cost vs. the
///                                  incumbent / oracle baselines
///   {"record":"summary",...}       totals + final delta-ledger verdict
///
/// The sink is deterministic: fields are written in a fixed order at
/// kRoundTripDigits, and no wall-clock value is ever consulted, so an
/// offline TraceReader replay of the run's JSONL trace into a fresh
/// AuditLog with the same options reproduces the online file
/// byte-for-byte. Mid-run I/O failure disables the sink after one
/// stderr warning, like JsonlSink.
class AuditLog final : public TraceSink {
 public:
  /// Borrow an open stream (e.g. a std::ostringstream in tests).
  explicit AuditLog(std::ostream* out, const AuditLogOptions& options = {});
  /// Own a file stream; `ok()` reports whether it opened.
  explicit AuditLog(const std::string& path,
                    const AuditLogOptions& options = {});

  /// Everything a mid-run audit stream needs to continue after a kill:
  /// the byte offset at a checkpoint boundary plus the writer's counter
  /// state. The byte offset matters because even a halted process runs
  /// the destructor, whose Close() appends a trailing regret/summary —
  /// resuming must truncate those bytes away before appending.
  struct Cursor {
    int64_t bytes = -1;  // stream size at the checkpoint; -1: not a file
    int64_t certificates = 0;
    int64_t commits = 0;
    int64_t rejects = 0;
    int64_t stops = 0;
    int64_t quotas_met = 0;
    int64_t queries = 0;
    int64_t window_queries = 0;
    int64_t windows_written = 0;
    double window_cost = 0.0;
    double total_cost = 0.0;
    struct EpochArc {
      int64_t arc = 0;
      int64_t experiment = -1;
      int64_t attempts = 0;
      int64_t successes = 0;
      double cost = 0.0;
    };
    std::vector<EpochArc> epoch;  // tallies since the last certificate
    struct LedgerEntry {
      std::string learner;
      double spent = 0.0;
      double budget = 0.0;
    };
    std::vector<LedgerEntry> ledgers;
  };

  /// Resume a killed run's audit file: truncates `path` to
  /// `cursor.bytes`, reopens it for append and reinstates the counter
  /// state, so the continued stream is byte-identical to one that was
  /// never interrupted. Falls back to a fresh stream (with a stderr
  /// warning) when the file cannot be truncated to the cursor.
  AuditLog(const std::string& path, const AuditLogOptions& options,
           const Cursor& cursor);

  /// Flushes and snapshots the stream for a checkpoint. `bytes` is -1
  /// for borrowed streams (resume then restarts the stream).
  Cursor SaveCursor();

  ~AuditLog() override;

  bool ok() const { return out_ != nullptr && out_->good(); }
  bool failed() const { return failed_; }
  int64_t certificates_written() const { return certificates_; }

  void OnArcAttempt(const ArcAttemptEvent& e) override;
  void OnQueryEnd(const QueryEndEvent& e) override;
  void OnDecisionCertificate(const DecisionCertificateEvent& e) override;
  void Flush() override;
  /// Writes the trailing partial regret window (if any queries landed
  /// after the last full window) and the summary record, then seals the
  /// stream. Idempotent; called by the destructor.
  void Close() override;

 private:
  /// Per-arc attempt tallies of the current epoch (since the last
  /// certificate). Keyed by arc id, so the serialized "arcs" array is
  /// deterministically ordered.
  struct ArcTally {
    int64_t experiment = -1;
    int64_t attempts = 0;
    int64_t successes = 0;
    double cost = 0.0;
  };
  /// Last-seen delta ledger of one learner (certificates carry the
  /// running total, so the latest value is the learner's spend).
  struct Ledger {
    double spent = 0.0;
    double budget = 0.0;
  };

  /// Resets writer_ for the next record; WriteLine emits it. One
  /// writer per log, so every record reuses one buffer.
  JsonWriter& StartLine();
  void WriteLine();
  void WriteHeader();
  void WriteRegret();

  JsonWriter writer_{JsonWriter::kRoundTripDigits};
  std::unique_ptr<std::ofstream> owned_;
  std::ostream* out_ = nullptr;
  AuditLogOptions options_;
  bool closed_ = false;
  bool failed_ = false;

  std::map<uint32_t, ArcTally> epoch_arcs_;
  std::map<std::string, Ledger> ledgers_;
  int64_t certificates_ = 0;
  int64_t commits_ = 0;
  int64_t rejects_ = 0;
  int64_t stops_ = 0;
  int64_t quotas_met_ = 0;
  int64_t queries_ = 0;
  int64_t window_queries_ = 0;
  int64_t windows_written_ = 0;
  double total_cost_ = 0.0;
  double window_cost_ = 0.0;
};

}  // namespace stratlearn::obs

#endif  // STRATLEARN_OBS_AUDIT_AUDIT_LOG_H_
