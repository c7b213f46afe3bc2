#include "obs/health/series_io.h"

#include <string>
#include <utility>

#include "obs/json_reader.h"
#include "util/string_util.h"

namespace stratlearn::obs::health {

namespace {

Status Malformed(int line, const std::string& why) {
  return Status::InvalidArgument(
      StrFormat("line %d: %s", line, why.c_str()));
}

}  // namespace

Status LoadTimeSeries(std::istream& in, LoadedSeries* out) {
  std::string line;
  int line_number = 0;
  bool have_header = false;
  while (std::getline(in, line)) {
    ++line_number;
    if (Trim(line).empty()) continue;
    JsonValue value;
    if (!ParseJson(line, &value) ||
        value.kind != JsonValue::Kind::kObject) {
      return Malformed(line_number, "line is not a JSON object");
    }
    if (!have_header) {
      std::string schema = ReadJsonString(value, "schema");
      if (schema != "stratlearn-timeseries-v1") {
        return Malformed(line_number,
                         schema.empty()
                             ? "missing \"schema\" header"
                             : "unknown schema '" + schema + "'");
      }
      (void)ReadJsonInt(value, "interval_us", &out->interval_us);
      (void)ReadJsonInt(value, "capacity", &out->capacity);
      (void)ReadJsonInt(value, "windows_closed", &out->windows_closed);
      (void)ReadJsonInt(value, "windows_evicted", &out->windows_evicted);
      have_header = true;
      continue;
    }
    TimeSeriesWindow window;
    if (!ReadJsonInt(value, "window", &window.index)) {
      return Malformed(line_number,
                       "window line lacks a numeric \"window\" index");
    }
    (void)ReadJsonInt(value, "start_us", &window.start_us);
    (void)ReadJsonInt(value, "end_us", &window.end_us);
    if (const JsonValue* counters = value.Get("counters");
        counters != nullptr && counters->kind == JsonValue::Kind::kObject) {
      for (const auto& [name, c] : counters->object) {
        (void)ReadJsonInt(c, "total", &window.cumulative.counters[name]);
        (void)ReadJsonInt(c, "delta", &window.counter_deltas[name]);
      }
    }
    if (const JsonValue* gauges = value.Get("gauges");
        gauges != nullptr && gauges->kind == JsonValue::Kind::kObject) {
      for (const auto& [name, g] : gauges->object) {
        window.cumulative.gauges[name] =
            g.kind == JsonValue::Kind::kNumber ? g.number : 0.0;
      }
    }
    if (const JsonValue* histograms = value.Get("histograms");
        histograms != nullptr &&
        histograms->kind == JsonValue::Kind::kObject) {
      for (const auto& [name, h] : histograms->object) {
        HistogramDelta delta;
        (void)ReadJsonInt(h, "count_delta", &delta.count);
        (void)ReadJsonDouble(h, "sum_delta", &delta.sum);
        window.histogram_deltas[name] = delta;
        HistogramSnapshot total;
        (void)ReadJsonInt(h, "count_total", &total.count);
        (void)ReadJsonDouble(h, "sum_total", &total.sum);
        window.cumulative.histograms[name] = std::move(total);
      }
    }
    if (const JsonValue* arcs = value.Get("arcs");
        arcs != nullptr && arcs->kind == JsonValue::Kind::kArray) {
      for (const JsonValue& a : arcs->array) {
        if (a.kind != JsonValue::Kind::kObject) {
          return Malformed(line_number, "arc entry is not an object");
        }
        ArcWindowStats stats;
        int64_t arc = -1;
        (void)ReadJsonInt(a, "arc", &arc);
        if (arc < 0) {
          return Malformed(line_number, "arc entry lacks an \"arc\" id");
        }
        stats.arc = static_cast<uint32_t>(arc);
        (void)ReadJsonInt(a, "attempts", &stats.attempts);
        (void)ReadJsonInt(a, "unblocked", &stats.unblocked);
        (void)ReadJsonDouble(a, "cost", &stats.cost);
        window.arcs.push_back(std::move(stats));
      }
    }
    out->windows.push_back(std::move(window));
  }
  if (!have_header) {
    return Malformed(line_number, "empty file (no header line)");
  }
  return Status::OK();
}

}  // namespace stratlearn::obs::health
