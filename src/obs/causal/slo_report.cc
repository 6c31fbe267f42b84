#include "obs/causal/slo_report.h"

#include <cstdio>
#include <cstdlib>

#include "obs/causal/trace_io.h"
#include "obs/trace.h"

namespace cruz::obs::causal {

namespace {

std::uint64_t ArgU64(const TraceEvent& e, const std::string& key) {
  const std::string& s = EventArg(e, key);
  return s.empty() ? 0 : std::strtoull(s.c_str(), nullptr, 10);
}

std::string FormatMs(DurationNs ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%06llu",
                static_cast<unsigned long long>(ns / 1000000),
                static_cast<unsigned long long>(ns % 1000000));
  return buf;
}

DurationNs Overlap(TimeNs a_begin, TimeNs a_end, TimeNs b_begin,
                   TimeNs b_end) {
  TimeNs begin = a_begin > b_begin ? a_begin : b_begin;
  TimeNs end = a_end < b_end ? a_end : b_end;
  return end > begin ? end - begin : 0;
}

// The phase the op spent the most time in (first wins on ties — phases
// are already in canonical order), with its straggler node.
const PhaseTotal* DominantPhase(const OpBreakdown& op) {
  const PhaseTotal* best = nullptr;
  for (const PhaseTotal& p : op.phases) {
    if (p.phase == "unattributed") continue;
    if (best == nullptr || p.total > best->total) best = &p;
  }
  return best;
}

// One candidate charge for a violation window, accumulated in
// deterministic (op order, first-seen) order.
struct Candidate {
  std::string phase;
  std::string node;
  std::uint64_t op_id = 0;
  std::string op_kind;
  DurationNs overlap = 0;
};

void Accumulate(std::vector<Candidate>& cands, const std::string& phase,
                const std::string& node, const OpBreakdown& op,
                DurationNs overlap) {
  for (Candidate& c : cands) {
    if (c.phase == phase && c.node == node && c.op_id == op.op_id) {
      c.overlap += overlap;
      return;
    }
  }
  cands.push_back(Candidate{phase, node, op.op_id, op.kind, overlap});
}

}  // namespace

SloReport BuildSloReport(const CausalGraph& graph,
                         const std::vector<OpBreakdown>& ops) {
  SloReport report;
  for (const TraceEvent& e : graph.events()) {
    if (e.kind != EventKind::kInstant || e.name != "slo.violation") {
      continue;
    }
    SloAttribution a;
    a.objective = EventArg(e, "objective");
    a.window_index = ArgU64(e, "window");
    a.window_begin = ArgU64(e, "begin_ns");
    a.window_end = ArgU64(e, "end_ns");
    a.observed_ns = ArgU64(e, "observed_ns");
    a.threshold_ns = ArgU64(e, "threshold_ns");
    a.count = ArgU64(e, "count");
    DurationNs window_len = a.window_end > a.window_begin
                                ? a.window_end - a.window_begin
                                : 0;

    // 1+2: direct overlap with phase segments and recovery tails.
    std::vector<Candidate> cands;
    for (const OpBreakdown& op : ops) {
      for (const PathSegment& seg : op.segments) {
        if (seg.phase == "unattributed") continue;
        DurationNs ov =
            Overlap(seg.begin, seg.end, a.window_begin, a.window_end);
        if (ov > 0) Accumulate(cands, seg.phase, seg.node, op, ov);
      }
      if (op.tcp_recovery > 0) {
        DurationNs ov = Overlap(op.end, op.end + op.tcp_recovery,
                                a.window_begin, a.window_end);
        if (ov > 0) {
          const PhaseTotal* dom = DominantPhase(op);
          Accumulate(cands, "tcp-recovery",
                     dom != nullptr ? dom->straggler : op.coordinator, op,
                     ov);
        }
      }
    }
    const Candidate* best = nullptr;
    for (const Candidate& c : cands) {
      if (best == nullptr || c.overlap > best->overlap) best = &c;
    }
    if (best != nullptr) {
      a.phase = best->phase;
      a.node = best->node;
      a.op_id = best->op_id;
      a.op_kind = best->op_kind;
      a.overlap_ns = best->overlap;
    } else {
      // 3: queue-drain fallback — requests delayed by an op that ended
      // just before the window began complete (and violate) here.
      const OpBreakdown* recent = nullptr;
      for (const OpBreakdown& op : ops) {
        TimeNs extended_end = op.end + op.tcp_recovery;
        if (extended_end > a.window_begin) continue;  // not preceding
        if (a.window_begin - extended_end > window_len) continue;
        if (recent == nullptr || extended_end > recent->end +
                                                    recent->tcp_recovery) {
          recent = &op;
        }
      }
      const PhaseTotal* dom =
          recent != nullptr ? DominantPhase(*recent) : nullptr;
      if (dom != nullptr) {
        a.phase = dom->phase;
        a.node = dom->straggler.empty() ? recent->coordinator
                                        : dom->straggler;
        a.op_id = recent->op_id;
        a.op_kind = recent->kind;
      } else {
        a.phase = "unattributed";
      }
    }
    if (a.phase != "unattributed" && !a.node.empty()) ++report.attributed;
    report.violations.push_back(std::move(a));
  }
  return report;
}

std::string RenderSloReport(const SloReport& report) {
  std::string out;
  out += "slo attribution report: " +
         std::to_string(report.violations.size()) + " violation(s), " +
         std::to_string(report.attributed) + " attributed\n";
  for (const SloAttribution& a : report.violations) {
    out += "[w " + std::to_string(a.window_index) + "] " +
           FormatMs(a.window_begin) + "ms.." + FormatMs(a.window_end) +
           "ms " + a.objective +
           " observed=" + FormatMs(a.observed_ns) +
           "ms count=" + std::to_string(a.count) + " -> " + a.phase;
    if (a.phase != "unattributed") {
      out += " @ " + (a.node.empty() ? "-" : a.node) + " (op " +
             std::to_string(a.op_id) + " " + a.op_kind;
      if (a.overlap_ns > 0) {
        out += ", overlap " + FormatMs(a.overlap_ns) + "ms";
      } else {
        out += ", queue-drain";
      }
      out += ")";
    }
    out += "\n";
  }
  return out;
}

std::string RenderSloJson(const SloReport& report) {
  std::string out = "{\"violations\":[";
  for (std::size_t i = 0; i < report.violations.size(); ++i) {
    const SloAttribution& a = report.violations[i];
    if (i != 0) out += ',';
    out += "{\"window\":" + std::to_string(a.window_index) +
           ",\"begin_ns\":" + std::to_string(a.window_begin) +
           ",\"end_ns\":" + std::to_string(a.window_end) +
           ",\"objective\":";
    AppendJsonString(out, a.objective);
    out += ",\"observed_ns\":" + std::to_string(a.observed_ns) +
           ",\"threshold_ns\":" + std::to_string(a.threshold_ns) +
           ",\"count\":" + std::to_string(a.count) + ",\"phase\":";
    AppendJsonString(out, a.phase);
    out += ",\"node\":";
    AppendJsonString(out, a.node);
    out += ",\"op\":" + std::to_string(a.op_id) + ",\"kind\":";
    AppendJsonString(out, a.op_kind);
    out += ",\"overlap_ns\":" + std::to_string(a.overlap_ns) + "}";
  }
  out += "],\"attributed\":" + std::to_string(report.attributed) + "}\n";
  return out;
}

}  // namespace cruz::obs::causal
