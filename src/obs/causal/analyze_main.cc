// cruz_analyze: offline analysis of Cruz trace and metric exports.
//
//   cruz_analyze --trace run.jsonl [--op N] [--json]
//       Import a Tracer::ExportJsonl file (or flight-recorder "events"
//       lines), build the causal graph, and print the per-op
//       critical-path breakdown — phase attribution, stragglers, match
//       stats. --json swaps the table for machine-readable JSON.
//
//   cruz_analyze --trace run.jsonl --slo [--json]
//       Join each `slo.violation` window in the trace against the
//       per-op critical-path phase tiling and print which
//       checkpoint/migration phase (and straggler node) each breached
//       latency window overlaps — the "why was p99 bad at t=1.2s"
//       report.
//
//   cruz_analyze --metrics metrics.json
//       Re-expose a MetricsRegistry::ExportJson snapshot in Prometheus
//       text-exposition format (histograms gain synthesized quantile
//       lines).
//
// Both inputs may be given; the trace report prints first.
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "obs/causal/causal_graph.h"
#include "obs/causal/critical_path.h"
#include "obs/causal/metrics_io.h"
#include "obs/causal/slo_report.h"
#include "obs/causal/trace_io.h"

namespace {

using namespace cruz::obs::causal;

int Usage() {
  std::fprintf(
      stderr,
      "usage: cruz_analyze --trace FILE [--op N] [--slo] [--json]\n"
      "       cruz_analyze --metrics FILE\n");
  return 2;
}

bool ReadFile(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

int AnalyzeTrace(const std::string& path, std::optional<std::uint64_t> op,
                 bool slo, bool json) {
  std::string text;
  if (!ReadFile(path, text)) {
    std::fprintf(stderr, "cruz_analyze: cannot read %s\n", path.c_str());
    return 1;
  }
  ImportStats stats;
  std::vector<cruz::obs::TraceEvent> events = ImportJsonl(text, &stats);
  if (stats.skipped > 0) {
    std::fprintf(stderr, "cruz_analyze: skipped %zu unparseable line(s)\n",
                 stats.skipped);
  }
  if (events.empty()) {
    std::fprintf(stderr, "cruz_analyze: no trace events in %s\n",
                 path.c_str());
    return 1;
  }
  CausalGraph graph = CausalGraph::Build(std::move(events));
  CriticalPathAnalyzer analyzer(graph);
  if (slo) {
    SloReport report = BuildSloReport(graph, analyzer.AnalyzeAll());
    std::string out =
        json ? RenderSloJson(report) : RenderSloReport(report);
    std::fwrite(out.data(), 1, out.size(), stdout);
    return 0;
  }
  std::vector<OpBreakdown> ops;
  if (op.has_value()) {
    std::optional<OpBreakdown> one = analyzer.AnalyzeOp(*op);
    if (!one.has_value()) {
      std::fprintf(stderr, "cruz_analyze: no op %llu in trace\n",
                   static_cast<unsigned long long>(*op));
      return 1;
    }
    ops.push_back(std::move(*one));
  } else {
    ops = analyzer.AnalyzeAll();
  }
  std::string out = json
                        ? CriticalPathAnalyzer::RenderJson(ops, graph.stats())
                        : CriticalPathAnalyzer::RenderReport(ops,
                                                             graph.stats());
  std::fwrite(out.data(), 1, out.size(), stdout);
  if (!json) std::fputc('\n', stdout);
  return 0;
}

int ExposeMetrics(const std::string& path) {
  std::string text;
  if (!ReadFile(path, text)) {
    std::fprintf(stderr, "cruz_analyze: cannot read %s\n", path.c_str());
    return 1;
  }
  cruz::obs::MetricsRegistry registry;
  std::string error;
  if (!ImportMetricsJson(text, registry, error)) {
    std::fprintf(stderr, "cruz_analyze: bad metrics JSON: %s\n",
                 error.c_str());
    return 1;
  }
  std::string out = registry.ExportPrometheus();
  std::fwrite(out.data(), 1, out.size(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string metrics_path;
  std::optional<std::uint64_t> op;
  bool slo = false;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--metrics" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (arg == "--op" && i + 1 < argc) {
      op = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--slo") {
      slo = true;
    } else if (arg == "--json") {
      json = true;
    } else {
      return Usage();
    }
  }
  if (trace_path.empty() && metrics_path.empty()) return Usage();
  int rc = 0;
  if (!trace_path.empty()) rc = AnalyzeTrace(trace_path, op, slo, json);
  if (rc == 0 && !metrics_path.empty()) rc = ExposeMetrics(metrics_path);
  return rc;
}
