#include "obs/audit/audit_reader.h"

#include <fstream>

#include "obs/event_codec.h"
#include "obs/json_reader.h"
#include "util/string_util.h"

namespace stratlearn::obs {

namespace {

Status LineError(int64_t line, const char* what) {
  return Status::InvalidArgument(
      StrFormat("audit line %lld: %s", static_cast<long long>(line), what));
}

void ParseHeader(const JsonValue& o, AuditHeader* header) {
  ReadJsonInt(o, "window", &header->window);
  ReadJsonDouble(o, "delta_budget", &header->delta_budget);
  ReadJsonBool(o, "have_baselines", &header->have_baselines);
  ReadJsonDouble(o, "incumbent_expected_cost",
                 &header->incumbent_expected_cost);
  ReadJsonDouble(o, "oracle_expected_cost", &header->oracle_expected_cost);
}

Status ParseCertificate(const JsonValue& o, int64_t line,
                        AuditCertificate* cert) {
  cert->line = line;
  cert->seq = -1;
  ReadJsonInt(o, "seq", &cert->seq);
  ReadEventFields(o, &cert->event);
  const DecisionCertificateEvent& e = cert->event;
  if (e.learner.empty() || e.decision.empty() || e.verdict.empty()) {
    return LineError(line, "certificate is missing learner/decision/verdict");
  }
  const JsonValue* arcs = o.Get("arcs");
  if (arcs == nullptr || arcs->kind != JsonValue::Kind::kArray) {
    return LineError(line, "certificate has no \"arcs\" array");
  }
  cert->arcs.reserve(arcs->array.size());
  for (const JsonValue& a : arcs->array) {
    if (a.kind != JsonValue::Kind::kObject) {
      return LineError(line, "certificate arc tally is not an object");
    }
    AuditArcTally tally;
    tally.arc = -1;
    ReadJsonInt(a, "arc", &tally.arc);
    ReadJsonInt(a, "experiment", &tally.experiment);
    ReadJsonInt(a, "attempts", &tally.attempts);
    ReadJsonInt(a, "successes", &tally.successes);
    ReadJsonDouble(a, "cost", &tally.cost);
    cert->arcs.push_back(tally);
  }
  return Status::OK();
}

void ParseRegret(const JsonValue& o, int64_t line, AuditRegret* regret) {
  regret->line = line;
  ReadJsonInt(o, "window_index", &regret->window_index);
  ReadJsonInt(o, "queries", &regret->queries);
  ReadJsonInt(o, "queries_total", &regret->queries_total);
  ReadJsonDouble(o, "window_cost", &regret->window_cost);
  ReadJsonDouble(o, "total_cost", &regret->total_cost);
  regret->have_baselines = o.Get("regret_vs_incumbent") != nullptr;
  ReadJsonDouble(o, "incumbent_total", &regret->incumbent_total);
  ReadJsonDouble(o, "oracle_total", &regret->oracle_total);
  ReadJsonDouble(o, "regret_vs_incumbent", &regret->regret_vs_incumbent);
  ReadJsonDouble(o, "regret_vs_oracle", &regret->regret_vs_oracle);
}

void ParseSummary(const JsonValue& o, int64_t line, AuditSummary* summary) {
  summary->present = true;
  summary->line = line;
  ReadJsonInt(o, "queries", &summary->queries);
  ReadJsonInt(o, "certificates", &summary->certificates);
  ReadJsonInt(o, "commits", &summary->commits);
  ReadJsonInt(o, "rejects", &summary->rejects);
  ReadJsonInt(o, "stops", &summary->stops);
  ReadJsonInt(o, "quotas_met", &summary->quotas_met);
  ReadJsonDouble(o, "total_cost", &summary->total_cost);
  ReadJsonDouble(o, "delta_spent_total", &summary->delta_spent_total);
  ReadJsonDouble(o, "delta_budget", &summary->delta_budget);
  ReadJsonBool(o, "budget_ok", &summary->budget_ok);
}

}  // namespace

Result<AuditFile> ReadAuditLog(std::istream& in) {
  AuditFile file;
  std::string line;
  int64_t line_number = 0;
  bool saw_magic = false;
  bool saw_header = false;
  while (std::getline(in, line)) {
    ++line_number;
    std::string trimmed(Trim(line));
    if (trimmed.empty()) continue;
    if (!saw_magic) {
      if (trimmed != "stratlearn-audit v1") {
        return LineError(line_number,
                         "expected magic line \"stratlearn-audit v1\"");
      }
      saw_magic = true;
      continue;
    }
    JsonValue value;
    if (!ParseJson(trimmed, &value)) {
      return LineError(line_number, "malformed JSON record");
    }
    if (value.kind != JsonValue::Kind::kObject) {
      return LineError(line_number, "record is not a JSON object");
    }
    std::string record = ReadJsonString(value, "record");
    if (record == "header") {
      if (saw_header) return LineError(line_number, "duplicate header");
      saw_header = true;
      ParseHeader(value, &file.header);
    } else if (record == "certificate") {
      AuditCertificate cert;
      Status parsed = ParseCertificate(value, line_number, &cert);
      if (!parsed.ok()) return parsed;
      if (cert.seq != static_cast<int64_t>(file.certificates.size())) {
        return LineError(line_number, "certificate seq is not contiguous");
      }
      file.certificates.push_back(std::move(cert));
    } else if (record == "regret") {
      AuditRegret regret;
      ParseRegret(value, line_number, &regret);
      file.regrets.push_back(regret);
    } else if (record == "summary") {
      if (file.summary.present) {
        return LineError(line_number, "duplicate summary");
      }
      ParseSummary(value, line_number, &file.summary);
    } else {
      return LineError(line_number, "unknown record kind");
    }
  }
  if (!saw_magic) {
    return Status::InvalidArgument(
        "audit file is empty (no \"stratlearn-audit v1\" magic line)");
  }
  if (!saw_header) {
    return Status::InvalidArgument("audit file has no header record");
  }
  return file;
}

Result<AuditFile> ReadAuditLogFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    return Status::NotFound(StrFormat("cannot open %s", path.c_str()));
  }
  return ReadAuditLog(in);
}

}  // namespace stratlearn::obs
