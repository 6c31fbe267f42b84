// Cross-node critical-path attribution for coordinated operations.
//
// For each `coord.op.*` span the analyzer walks the causal chain
// backward from the reply that completed the operation — across message
// edges (CausalGraph) and local spans — and labels every nanosecond of
// the op's wall time with a protocol phase:
//
//   freeze-wait      request dispatch, request hop, done-reply hop
//   filter-install   request receipt -> save span begin on the agent
//   save-downtime    local save while the pod is stopped
//   save-background  COW write-out after the pod could already resume
//   restore          local image load + restore (restart ops)
//   commit-wait      done/comm-disabled hop + the coordinator's gap
//                    before <continue>, and the continue hop itself
//   resume           agent resume span + continue-done hop
//   finish           final reply receipt -> op span end
//   unattributed     wall time no causal segment explains
//
// `migrate.op.*` spans (live migration) are analyzed too, from the
// migrator's own sub-spans instead of the message graph:
//
//   stop-copy        pod stopped: state transfer between stop and resume
//   postcopy-fetch   post-resume demand-fetch stalls (post-copy/hybrid)
//
// The segments exactly tile [op begin, op end]: overlaps are clipped and
// gaps become explicit `unattributed` segments, so the phase totals sum
// to the coordinator-measured wall time by construction. Per phase the
// node contributing the most time is flagged as the straggler.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/causal/causal_graph.h"

namespace cruz::obs::causal {

struct PathSegment {
  TimeNs begin = 0;
  TimeNs end = 0;
  std::string phase;
  std::string node;  // the node the time is charged to

  DurationNs ns() const { return end - begin; }
};

struct PhaseTotal {
  std::string phase;
  DurationNs total = 0;
  std::string straggler;        // node charged the most time
  DurationNs straggler_ns = 0;  // that node's share
};

// Which storage tier one agent's restore actually read from (the
// agent.restore span's `source` arg).
struct RestoreSource {
  std::string node;    // the restoring agent's node
  std::string source;  // "local" | "partner" | "netfs"
  DurationNs ns = 0;   // that agent's restore span duration
};

struct OpBreakdown {
  std::uint64_t op_id = 0;
  std::string kind;  // "checkpoint" | "restart" | a migrate mode name
  std::string coordinator;
  bool success = false;
  TimeNs begin = 0;
  TimeNs end = 0;

  // In canonical phase order, zero phases omitted. Sums to wall().
  std::vector<PhaseTotal> phases;
  // The raw tiling, in time order.
  std::vector<PathSegment> segments;

  DurationNs unattributed = 0;
  // Post-op TCP retransmit recovery: how long after the op end the last
  // `tcp.recovered` fired (0 when none before the next op). Reported
  // separately — it is outside the op's wall time.
  DurationNs tcp_recovery = 0;
  // Per-agent restore-source attribution (restart ops; empty
  // otherwise), sorted by node name.
  std::vector<RestoreSource> restore_sources;

  DurationNs wall() const { return end - begin; }
  DurationNs PhaseNs(const std::string& phase) const;
};

class CriticalPathAnalyzer {
 public:
  explicit CriticalPathAnalyzer(const CausalGraph& graph) : graph_(graph) {}

  // Every coord.op.* span found in the trace, in op-id order.
  std::vector<OpBreakdown> AnalyzeAll() const;
  std::optional<OpBreakdown> AnalyzeOp(std::uint64_t op_id) const;

  // Deterministic human-readable table (byte-identical across same-seed
  // runs) and machine-readable JSON, both including the match stats.
  static std::string RenderReport(const std::vector<OpBreakdown>& ops,
                                  const MatchStats& stats);
  static std::string RenderJson(const std::vector<OpBreakdown>& ops,
                                const MatchStats& stats);

 private:
  OpBreakdown AnalyzeSpan(std::size_t op_span_index) const;

  const CausalGraph& graph_;
};

}  // namespace cruz::obs::causal
