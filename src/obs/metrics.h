// Deterministic metrics: counters, gauges, histograms.
//
// A MetricsRegistry is a flat name -> instrument map (names are
// dot-separated, e.g. "coord.retransmits_total"). Instruments are created
// on first use and live for the registry's lifetime, so call sites can
// cache references. Iteration order is the sorted name order, and all
// numeric formatting is locale-independent, so TextDump()/ExportJson()
// are byte-stable across runs of a deterministic simulation.
//
// Histograms are the HDR LatencyHistogram (obs/latency/histogram.h):
// three significant digits, so an exported quantile is within 0.1% of
// the recorded value.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "obs/latency/histogram.h"

namespace cruz::obs {

class Counter {
 public:
  void Add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void Set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

class MetricsRegistry {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  LatencyHistogram& histogram(const std::string& name) {
    return histograms_[name];
  }

  const std::map<std::string, Counter>& counters() const {
    return counters_;
  }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, LatencyHistogram>& histograms() const {
    return histograms_;
  }

  void Reset();

  // "name value" lines (histograms expand to _count/_sum/_min/_max/_mean),
  // sorted by name.
  std::string TextDump() const;
  // {"counters":{...},"gauges":{...},"histograms":{...}} with sorted keys.
  // Histograms include a sparse "buckets" array of [le, count] pairs, one
  // per non-empty bucket, where le is the bucket's largest value
  // (LatencyHistogram::UpperBoundFor), so a snapshot can be re-exposed in
  // Prometheus form by cruz_analyze.
  std::string ExportJson() const;
  // Prometheus text exposition (version 0.0.4): counters and gauges as-is,
  // histograms as one cumulative `_bucket{le="..."}` line per non-empty
  // bucket, then `+Inf`, `_sum`, `_count`, and (when non-empty)
  // synthesized `{quantile="q"}` lines computed via Percentile(). Names
  // are prefixed "cruz_" with dots mapped to underscores.
  std::string ExportPrometheus() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, LatencyHistogram> histograms_;
};

}  // namespace cruz::obs
