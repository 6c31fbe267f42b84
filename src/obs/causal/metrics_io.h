// MetricsRegistry snapshot import for the analysis tooling.
//
// ImportMetricsJson inverts MetricsRegistry::ExportJson: counters and
// gauges by value, histograms by their exact scalars plus the sparse
// [le, count] bucket pairs. Quantiles computed from the restored
// registry equal those of the registry that wrote the file, so
// cruz_analyze --metrics re-exposes a snapshot in Prometheus form
// without the raw samples.
#pragma once

#include <string>

#include "obs/metrics.h"

namespace cruz::obs::causal {

// Parses an ExportJson snapshot into `out`. Returns false with a message
// in `error` on malformed JSON or a bucket whose `le` is not a histogram
// bucket upper bound.
bool ImportMetricsJson(const std::string& text, MetricsRegistry& out,
                       std::string& error);

}  // namespace cruz::obs::causal
