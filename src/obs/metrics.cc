#include "obs/metrics.h"

#include <cstdio>

namespace cruz::obs {

namespace {

// Locale-independent double rendering (gauges, means).
std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

void MetricsRegistry::Reset() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

std::string MetricsRegistry::TextDump() const {
  std::string out;
  for (const auto& [name, c] : counters_) {
    out += name + " " + std::to_string(c.value()) + "\n";
  }
  for (const auto& [name, g] : gauges_) {
    out += name + " " + FormatDouble(g.value()) + "\n";
  }
  for (const auto& [name, h] : histograms_) {
    out += name + "_count " + std::to_string(h.count()) + "\n";
    out += name + "_sum " + std::to_string(h.sum()) + "\n";
    out += name + "_min " + std::to_string(h.min()) + "\n";
    out += name + "_max " + std::to_string(h.max()) + "\n";
    out += name + "_mean " + FormatDouble(h.mean()) + "\n";
  }
  return out;
}

std::string MetricsRegistry::ExportJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ',';
    first = false;
    out += "\"" + name + "\":" + std::to_string(c.value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ',';
    first = false;
    out += "\"" + name + "\":" + FormatDouble(g.value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ',';
    first = false;
    out += "\"" + name + "\":{\"count\":" + std::to_string(h.count()) +
           ",\"sum\":" + std::to_string(h.sum()) +
           ",\"min\":" + std::to_string(h.min()) +
           ",\"max\":" + std::to_string(h.max()) +
           ",\"mean\":" + FormatDouble(h.mean()) + ",\"buckets\":[";
    bool bfirst = true;
    for (std::size_t i = 0; i < h.bucket_count(); ++i) {
      if (h.bucket(i) == 0) continue;
      if (!bfirst) out += ',';
      bfirst = false;
      out += "[" + std::to_string(LatencyHistogram::UpperBoundFor(i)) + "," +
             std::to_string(h.bucket(i)) + "]";
    }
    out += "]}";
  }
  out += "}}\n";
  return out;
}

std::string MetricsRegistry::ExportPrometheus() const {
  auto sanitize = [](const std::string& name) {
    std::string out = "cruz_";
    for (char c : name) {
      bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                (c >= '0' && c <= '9') || c == '_' || c == ':';
      out += ok ? c : '_';
    }
    return out;
  };
  std::string out;
  for (const auto& [name, c] : counters_) {
    std::string n = sanitize(name);
    out += "# TYPE " + n + " counter\n";
    out += n + " " + std::to_string(c.value()) + "\n";
  }
  for (const auto& [name, g] : gauges_) {
    std::string n = sanitize(name);
    out += "# TYPE " + n + " gauge\n";
    out += n + " " + FormatDouble(g.value()) + "\n";
  }
  for (const auto& [name, h] : histograms_) {
    std::string n = sanitize(name);
    out += "# TYPE " + n + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.bucket_count(); ++i) {
      if (h.bucket(i) == 0) continue;
      cumulative += h.bucket(i);
      out += n + "_bucket{le=\"" +
             std::to_string(LatencyHistogram::UpperBoundFor(i)) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += n + "_bucket{le=\"+Inf\"} " + std::to_string(h.count()) + "\n";
    out += n + "_sum " + std::to_string(h.sum()) + "\n";
    out += n + "_count " + std::to_string(h.count()) + "\n";
    if (h.count() > 0) {
      // Summary-style quantile series synthesized from the buckets
      // (bucket-upper-bound semantics, see LatencyHistogram::Percentile),
      // so a re-exposed snapshot answers "what was p99" without the raw
      // samples.
      static constexpr double kQuantiles[] = {0.5, 0.9, 0.99, 0.999};
      for (double q : kQuantiles) {
        out += n + "{quantile=\"" + FormatDouble(q) + "\"} " +
               std::to_string(h.Percentile(q)) + "\n";
      }
    }
  }
  return out;
}

}  // namespace cruz::obs
