#include "obs/audit/audit_log.h"

#include <cstdio>
#include <filesystem>
#include <system_error>

#include "obs/event_codec.h"

namespace stratlearn::obs {

namespace {

void WarnWriteFailed() {
  std::fprintf(stderr,
               "warning: audit log write failed (disk full or closed "
               "pipe?); disabling further audit output for this run\n");
}

}  // namespace

AuditLog::AuditLog(std::ostream* out, const AuditLogOptions& options)
    : out_(out), options_(options) {
  WriteHeader();
}

AuditLog::AuditLog(const std::string& path, const AuditLogOptions& options)
    : owned_(std::make_unique<std::ofstream>(path)),
      out_(owned_.get()),
      options_(options) {
  WriteHeader();
}

AuditLog::AuditLog(const std::string& path, const AuditLogOptions& options,
                   const Cursor& cursor)
    : options_(options) {
  std::error_code ec;
  if (cursor.bytes >= 0) {
    std::filesystem::resize_file(path, static_cast<uintmax_t>(cursor.bytes),
                                 ec);
  }
  if (cursor.bytes < 0 || ec) {
    std::fprintf(stderr,
                 "warning: cannot resume audit log '%s' at byte %lld; "
                 "restarting the stream\n",
                 path.c_str(), static_cast<long long>(cursor.bytes));
    owned_ = std::make_unique<std::ofstream>(path);
    out_ = owned_.get();
    WriteHeader();
    return;
  }
  owned_ = std::make_unique<std::ofstream>(path, std::ios::app);
  out_ = owned_.get();
  certificates_ = cursor.certificates;
  commits_ = cursor.commits;
  rejects_ = cursor.rejects;
  stops_ = cursor.stops;
  quotas_met_ = cursor.quotas_met;
  queries_ = cursor.queries;
  window_queries_ = cursor.window_queries;
  windows_written_ = cursor.windows_written;
  window_cost_ = cursor.window_cost;
  total_cost_ = cursor.total_cost;
  for (const Cursor::EpochArc& a : cursor.epoch) {
    ArcTally& tally = epoch_arcs_[static_cast<uint32_t>(a.arc)];
    tally.experiment = a.experiment;
    tally.attempts = a.attempts;
    tally.successes = a.successes;
    tally.cost = a.cost;
  }
  for (const Cursor::LedgerEntry& l : cursor.ledgers) {
    ledgers_[l.learner] = Ledger{l.spent, l.budget};
  }
}

AuditLog::Cursor AuditLog::SaveCursor() {
  Flush();
  Cursor cursor;
  if (owned_ != nullptr && !failed_ && !closed_) {
    std::ofstream::pos_type pos = owned_->tellp();
    if (pos != std::ofstream::pos_type(-1)) {
      cursor.bytes = static_cast<int64_t>(pos);
    }
  }
  cursor.certificates = certificates_;
  cursor.commits = commits_;
  cursor.rejects = rejects_;
  cursor.stops = stops_;
  cursor.quotas_met = quotas_met_;
  cursor.queries = queries_;
  cursor.window_queries = window_queries_;
  cursor.windows_written = windows_written_;
  cursor.window_cost = window_cost_;
  cursor.total_cost = total_cost_;
  for (const auto& [arc, tally] : epoch_arcs_) {
    cursor.epoch.push_back({static_cast<int64_t>(arc), tally.experiment,
                            tally.attempts, tally.successes, tally.cost});
  }
  for (const auto& [learner, ledger] : ledgers_) {
    cursor.ledgers.push_back({learner, ledger.spent, ledger.budget});
  }
  return cursor;
}

AuditLog::~AuditLog() { Close(); }

JsonWriter& AuditLog::StartLine() {
  writer_.Reset();
  return writer_;
}

void AuditLog::WriteLine() {
  if (out_ == nullptr || failed_ || closed_) return;
  const std::string& json = writer_.str();
  out_->write(json.data(), static_cast<std::streamsize>(json.size()));
  out_->put('\n');
  if (!out_->good()) {
    failed_ = true;
    WarnWriteFailed();
  }
}

void AuditLog::WriteHeader() {
  if (out_ == nullptr || !out_->good()) return;
  *out_ << "stratlearn-audit v1\n";
  JsonWriter& w = StartLine();
  w.BeginObject();
  w.Key("record").Value("header");
  w.Key("window").Value(options_.window);
  w.Key("delta_budget").Value(options_.delta_budget);
  w.Key("have_baselines").Value(options_.have_baselines);
  w.Key("incumbent_expected_cost").Value(options_.incumbent_expected_cost);
  w.Key("oracle_expected_cost").Value(options_.oracle_expected_cost);
  w.EndObject();
  WriteLine();
}

void AuditLog::OnArcAttempt(const ArcAttemptEvent& e) {
  ArcTally& tally = epoch_arcs_[e.arc];
  tally.experiment = e.experiment;
  ++tally.attempts;
  if (e.unblocked) ++tally.successes;
  tally.cost += e.cost;
}

void AuditLog::OnQueryEnd(const QueryEndEvent& e) {
  ++queries_;
  ++window_queries_;
  total_cost_ += e.cost;
  window_cost_ += e.cost;
  if (options_.window > 0 && window_queries_ >= options_.window) {
    WriteRegret();
  }
}

void AuditLog::WriteRegret() {
  if (window_queries_ == 0) return;
  JsonWriter& w = StartLine();
  w.BeginObject();
  w.Key("record").Value("regret");
  w.Key("window_index").Value(windows_written_);
  w.Key("queries").Value(window_queries_);
  w.Key("queries_total").Value(queries_);
  w.Key("window_cost").Value(window_cost_);
  w.Key("total_cost").Value(total_cost_);
  if (options_.have_baselines) {
    double incumbent_total =
        options_.incumbent_expected_cost * static_cast<double>(queries_);
    double oracle_total =
        options_.oracle_expected_cost * static_cast<double>(queries_);
    w.Key("incumbent_total").Value(incumbent_total);
    w.Key("oracle_total").Value(oracle_total);
    // Positive: the run paid more than the baseline would have in
    // expectation; a learner that improves on the incumbent drives
    // regret_vs_incumbent negative over time.
    w.Key("regret_vs_incumbent").Value(total_cost_ - incumbent_total);
    w.Key("regret_vs_oracle").Value(total_cost_ - oracle_total);
  }
  w.EndObject();
  WriteLine();
  ++windows_written_;
  window_queries_ = 0;
  window_cost_ = 0.0;
}

void AuditLog::OnDecisionCertificate(const DecisionCertificateEvent& e) {
  Ledger& ledger = ledgers_[e.learner];
  ledger.spent = e.delta_spent_total;
  ledger.budget = e.delta_budget;
  JsonWriter& w = StartLine();
  w.BeginObject();
  w.Key("record").Value("certificate");
  w.Key("seq").Value(certificates_);
  WriteEventFields(w, e);
  w.Key("arcs").BeginArray();
  for (const auto& [arc, tally] : epoch_arcs_) {
    w.BeginObject();
    w.Key("arc").Value(static_cast<int64_t>(arc));
    w.Key("experiment").Value(tally.experiment);
    w.Key("attempts").Value(tally.attempts);
    w.Key("successes").Value(tally.successes);
    w.Key("cost").Value(tally.cost);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  WriteLine();
  epoch_arcs_.clear();
  ++certificates_;
  if (e.verdict == "commit") ++commits_;
  else if (e.verdict == "reject") ++rejects_;
  else if (e.verdict == "stop") ++stops_;
  else if (e.verdict == "met") ++quotas_met_;
}

void AuditLog::Flush() {
  if (out_ == nullptr || failed_) return;
  out_->flush();
  if (!out_->good()) {
    failed_ = true;
    WarnWriteFailed();
  }
}

void AuditLog::Close() {
  if (out_ == nullptr || closed_) return;
  WriteRegret();  // trailing partial window, if any
  double spent_max = 0.0;
  double budget = options_.delta_budget;
  bool budget_ok = true;
  for (const auto& [learner, ledger] : ledgers_) {
    if (ledger.spent > spent_max) spent_max = ledger.spent;
    if (ledger.budget > budget) budget = ledger.budget;
    if (ledger.spent > ledger.budget) budget_ok = false;
  }
  JsonWriter& w = StartLine();
  w.BeginObject();
  w.Key("record").Value("summary");
  w.Key("queries").Value(queries_);
  w.Key("certificates").Value(certificates_);
  w.Key("commits").Value(commits_);
  w.Key("rejects").Value(rejects_);
  w.Key("stops").Value(stops_);
  w.Key("quotas_met").Value(quotas_met_);
  w.Key("total_cost").Value(total_cost_);
  w.Key("delta_spent_total").Value(spent_max);
  w.Key("delta_budget").Value(budget);
  w.Key("budget_ok").Value(budget_ok);
  w.EndObject();
  WriteLine();
  closed_ = true;
  if (!failed_) out_->flush();
}

}  // namespace stratlearn::obs
