#include "obs/causal/metrics_io.h"

#include "obs/causal/json_lite.h"

namespace cruz::obs::causal {

namespace {

std::uint64_t FieldU64(const JsonValue& v, const char* key) {
  const JsonValue* field = v.Find(key);
  return field != nullptr ? field->AsU64() : 0;
}

// A non-negative integer literal: AsU64 would read "-1" as 2^64 - 1.
bool IsU64(const JsonValue& v) {
  return v.type == JsonValue::Type::kNumber && !v.text.empty() &&
         v.text.find_first_not_of("0123456789") == std::string::npos;
}

}  // namespace

bool ImportMetricsJson(const std::string& text, MetricsRegistry& out,
                       std::string& error) {
  JsonValue root;
  if (!ParseJson(text, root, error)) return false;
  if (root.type != JsonValue::Type::kObject) {
    error = "not a JSON object";
    return false;
  }
  if (const JsonValue* counters = root.Find("counters")) {
    for (const auto& [name, v] : counters->fields) {
      out.counter(name).Add(v.AsU64());
    }
  }
  if (const JsonValue* gauges = root.Find("gauges")) {
    for (const auto& [name, v] : gauges->fields) {
      out.gauge(name).Set(v.AsDouble());
    }
  }
  if (const JsonValue* histograms = root.Find("histograms")) {
    for (const auto& [name, v] : histograms->fields) {
      LatencyHistogram& h = out.histogram(name);
      h.Restore(FieldU64(v, "count"), FieldU64(v, "sum"), FieldU64(v, "min"),
                FieldU64(v, "max"));
      const JsonValue* buckets = v.Find("buckets");
      if (buckets == nullptr) continue;
      for (const JsonValue& pair : buckets->items) {
        if (pair.items.size() != 2 || !IsU64(pair.items[0]) ||
            !IsU64(pair.items[1]) ||
            !h.RestoreCount(pair.items[0].AsU64(), pair.items[1].AsU64())) {
          error = "histogram " + name + ": bad bucket";
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace cruz::obs::causal
