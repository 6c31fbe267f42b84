#include "obs/causal/critical_path.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "obs/causal/trace_io.h"
#include "obs/trace.h"

namespace cruz::obs::causal {

namespace {

constexpr const char* kOpSpanPrefix = "coord.op.";
// Live-migration ops trace their own op spans; they are analyzed from
// direct sub-spans (stop-copy downtime, post-copy demand fetches) rather
// than from the coordination message graph.
constexpr const char* kMigrateOpSpanPrefix = "migrate.op.";

// Canonical output order; also the order phase totals are rendered in.
// "shard-wait" is hierarchical-mode only: the time a sub-coordinator
// spent aggregating its shard (last agent reply -> upward report).
// "stop-copy" and "postcopy-fetch" are migration-only: the pod-stopped
// transfer window and post-resume demand-fetch stalls respectively.
constexpr const char* kPhaseOrder[] = {
    "freeze-wait",  "filter-install", "save-downtime",
    "save-background", "restore",     "shard-wait",
    "commit-wait",  "resume",         "finish",
    "stop-copy",    "postcopy-fetch", "unattributed"};

bool IsMigrateOpSpan(const TraceEvent& e) {
  return e.kind == EventKind::kSpan &&
         e.name.rfind(kMigrateOpSpanPrefix, 0) == 0;
}

bool IsOpSpan(const TraceEvent& e) {
  return (e.kind == EventKind::kSpan &&
          e.name.rfind(kOpSpanPrefix, 0) == 0) ||
         IsMigrateOpSpan(e);
}

bool TypeIn(const std::string& type,
            std::initializer_list<const char*> set) {
  for (const char* t : set) {
    if (type == t) return true;
  }
  return false;
}

std::string FormatMs(DurationNs ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%06llu",
                static_cast<unsigned long long>(ns / 1000000),
                static_cast<unsigned long long>(ns % 1000000));
  return buf;
}

std::string FormatPct(DurationNs part, DurationNs total) {
  std::uint64_t tenths =
      total == 0 ? 0 : (part * 1000 + total / 2) / total;
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu.%llu%%",
                static_cast<unsigned long long>(tenths / 10),
                static_cast<unsigned long long>(tenths % 10));
  return buf;
}

std::string Pad(std::string s, std::size_t width) {
  while (s.size() < width) s += ' ';
  return s;
}

// One op's worth of lookup state over the shared event stream.
struct OpWalk {
  const std::vector<TraceEvent>& events;
  std::uint64_t op_id;

  // Last recv instant on `node` (coordinator or agent side) whose message
  // type is in `types`, at or before `max_ts`.
  std::optional<std::size_t> LastRecv(
      const std::string& node, std::initializer_list<const char*> types,
      TimeNs max_ts) const {
    std::optional<std::size_t> best;
    for (std::size_t i = 0; i < events.size(); ++i) {
      const TraceEvent& e = events[i];
      if (e.kind != EventKind::kInstant) continue;
      if (e.name != "coord.msg.recv" && e.name != "agent.msg.recv") continue;
      if (e.attrs.op != op_id || e.attrs.agent != node) continue;
      if (e.ts > max_ts) continue;
      if (!TypeIn(EventArg(e, "type"), types)) continue;
      best = i;  // canonical order: later index == later (ts, node, seq)
    }
    return best;
  }

  // Last span named `name` for this op on `node` ending at or before
  // `max_end` (kMaxTime to accept any).
  const TraceEvent* LastSpan(const std::string& name,
                             const std::string& node,
                             TimeNs max_end) const {
    const TraceEvent* best = nullptr;
    for (const TraceEvent& e : events) {
      if (e.kind != EventKind::kSpan || e.name != name) continue;
      if (e.attrs.op != op_id || e.attrs.agent != node) continue;
      if (e.end_ts() > max_end) continue;
      best = &e;
    }
    return best;
  }
};

constexpr TimeNs kMaxTime = ~static_cast<TimeNs>(0);

}  // namespace

DurationNs OpBreakdown::PhaseNs(const std::string& phase) const {
  for (const PhaseTotal& p : phases) {
    if (p.phase == phase) return p.total;
  }
  return 0;
}

OpBreakdown CriticalPathAnalyzer::AnalyzeSpan(
    std::size_t op_span_index) const {
  const auto& events = graph_.events();
  const TraceEvent& op = events[op_span_index];

  OpBreakdown b;
  b.op_id = op.attrs.op;
  const bool is_migrate = IsMigrateOpSpan(op);
  b.kind = op.name.substr(is_migrate
                              ? std::string(kMigrateOpSpanPrefix).size()
                              : std::string(kOpSpanPrefix).size());
  b.coordinator = op.attrs.agent;
  b.begin = op.ts;
  b.end = op.end_ts();
  // Migrate op spans close only on completion; coordination spans carry
  // an explicit success arg.
  b.success = is_migrate || EventArg(op, "success") == "true";

  OpWalk walk{events, b.op_id};
  std::vector<PathSegment> raw;
  auto add = [&raw](TimeNs s, TimeNs e, const char* phase,
                    const std::string& node) {
    if (e > s) raw.push_back(PathSegment{s, e, phase, node});
  };

  // The local save (or restore) chain on `node`, back to the request
  // receipt. With `resume_gate` set, stop the save at the downtime end —
  // the COW resume gate — instead of the full write-out. Returns the
  // request recv the chain hangs off, if visible.
  auto local_chain = [&](const std::string& node, TimeNs before,
                         bool resume_gate) -> std::optional<std::size_t> {
    const TraceEvent* save = walk.LastSpan("agent.save", node, before);
    const TraceEvent* restore = walk.LastSpan("agent.restore", node, before);
    const TraceEvent* s =
        restore != nullptr &&
                (save == nullptr || restore->end_ts() > save->end_ts())
            ? restore
            : save;
    if (s == nullptr) return std::nullopt;
    if (s->name == "agent.restore") {
      add(s->ts, s->end_ts(), "restore", node);
    } else {
      const TraceEvent* dt = walk.LastSpan("agent.downtime", node, before);
      if (dt != nullptr && dt->end_ts() < s->end_ts()) {
        add(s->ts, dt->end_ts(), "save-downtime", node);
        if (!resume_gate) {
          add(dt->end_ts(), s->end_ts(), "save-background", node);
        }
      } else {
        add(s->ts, s->end_ts(), "save-downtime", node);
      }
    }
    auto req = walk.LastRecv(node, {"checkpoint", "restart"}, s->ts);
    if (req.has_value()) {
      add(events[*req].ts, s->ts, "filter-install", node);
    }
    return req;
  };

  // When the pod could locally have resumed: downtime end (COW) or the
  // save/restore completion. 0 when the trace has no local spans.
  auto local_ready = [&](const std::string& node) -> TimeNs {
    const TraceEvent* save = walk.LastSpan("agent.save", node, kMaxTime);
    const TraceEvent* restore =
        walk.LastSpan("agent.restore", node, kMaxTime);
    const TraceEvent* s =
        restore != nullptr &&
                (save == nullptr || restore->end_ts() > save->end_ts())
            ? restore
            : save;
    if (s == nullptr) return 0;
    const TraceEvent* dt = walk.LastSpan("agent.downtime", node, kMaxTime);
    if (s->name == "agent.save" && dt != nullptr &&
        dt->end_ts() < s->end_ts()) {
      return dt->end_ts();
    }
    return s->end_ts();
  };

  if (is_migrate) {
    // Migration ops are single-owner: the critical path is read straight
    // off the migrator's own sub-spans. The stop-copy window is the
    // downtime; each postcopy-fetch span is a demand-fetch stall of the
    // resumed pod (they never overlap — the whole process parks on a
    // fault — so the tiling below sums them exactly).
    for (const TraceEvent& e : events) {
      if (e.kind != EventKind::kSpan || e.attrs.op != b.op_id) continue;
      if (e.name == "migrate.downtime") {
        add(e.ts, e.end_ts(), "stop-copy", e.attrs.agent);
      } else if (e.name == "migrate.postcopy.fetch") {
        add(e.ts, e.end_ts(), "postcopy-fetch", e.attrs.agent);
      }
    }
  } else if (b.success) {
    auto terminal = walk.LastRecv(
        b.coordinator,
        {"done", "continue-done", "comm-disabled", "failed", "shard-done",
         "shard-continue-done", "shard-comm-disabled", "shard-failed"},
        b.end);
    if (terminal.has_value()) {
      add(events[*terminal].ts, b.end, "finish", b.coordinator);
      std::optional<std::size_t> cur = terminal;
      // Bounded: each step moves strictly earlier in the op; the bound
      // only guards against pathological hand-written traces.
      for (int step = 0; cur.has_value() && step < 256; ++step) {
        auto send = graph_.SendFor(*cur);
        if (!send.has_value()) break;
        const TraceEvent& s = events[*send];
        const TraceEvent& r = events[*cur];
        const std::string& type = EventArg(s, "type");
        const std::string& sender = s.attrs.agent;
        const char* hop =
            TypeIn(type, {"continue", "comm-disabled", "shard-continue",
                          "shard-comm-disabled"})
                ? "commit-wait"
            : TypeIn(type, {"continue-done", "shard-continue-done"})
                ? "resume"
            : type == "shard-done" ? "shard-wait"
                                   : "freeze-wait";
        add(s.ts, r.ts, hop, sender);
        if (TypeIn(type, {"checkpoint", "restart"})) {
          if (sender == b.coordinator) {
            // Request dispatch: whatever the coordinator spent between op
            // start and putting this request on the wire.
            add(b.begin, s.ts, "freeze-wait", b.coordinator);
            break;
          }
          // Hierarchical: a sub-coordinator dispatched this request after
          // receiving the root's shard request.
          auto req = walk.LastRecv(
              sender, {"shard-checkpoint", "shard-restart"}, s.ts);
          if (req.has_value()) {
            add(events[*req].ts, s.ts, "freeze-wait", sender);
          }
          cur = req;
        } else if (TypeIn(type, {"shard-checkpoint", "shard-restart"})) {
          add(b.begin, s.ts, "freeze-wait", b.coordinator);
          break;
        } else if (TypeIn(type, {"done", "failed"})) {
          cur = local_chain(sender, s.ts, /*resume_gate=*/false);
        } else if (TypeIn(type, {"shard-done", "shard-failed"})) {
          // The sub's upward report follows its last shard-agent reply;
          // the gap is the shard aggregation wait.
          auto trigger = walk.LastRecv(sender, {"done", "failed"}, s.ts);
          if (trigger.has_value()) {
            add(events[*trigger].ts, s.ts, "shard-wait", sender);
          }
          cur = trigger;
        } else if (type == "comm-disabled") {
          auto req =
              walk.LastRecv(sender, {"checkpoint", "restart"}, s.ts);
          if (req.has_value()) {
            add(events[*req].ts, s.ts, "filter-install", sender);
          }
          cur = req;
        } else if (type == "shard-comm-disabled") {
          auto trigger = walk.LastRecv(sender, {"comm-disabled"}, s.ts);
          if (trigger.has_value()) {
            add(events[*trigger].ts, s.ts, "commit-wait", sender);
          }
          cur = trigger;
        } else if (type == "continue") {
          // Sender-based: the root's <continue> follows its last phase-1
          // reply; a sub-coordinator's follows the root's <shard-continue>.
          auto trigger = walk.LastRecv(
              sender,
              {"done", "comm-disabled", "failed", "shard-continue"}, s.ts);
          if (trigger.has_value()) {
            add(events[*trigger].ts, s.ts, "commit-wait", sender);
          }
          cur = trigger;
        } else if (type == "shard-continue") {
          auto trigger = walk.LastRecv(
              b.coordinator,
              {"shard-done", "shard-comm-disabled", "shard-failed"}, s.ts);
          if (trigger.has_value()) {
            add(events[*trigger].ts, s.ts, "commit-wait", b.coordinator);
          }
          cur = trigger;
        } else if (type == "shard-continue-done") {
          auto trigger = walk.LastRecv(sender, {"continue-done"}, s.ts);
          if (trigger.has_value()) {
            add(events[*trigger].ts, s.ts, "resume", sender);
          }
          cur = trigger;
        } else if (type == "continue-done") {
          const TraceEvent* cs =
              walk.LastSpan("agent.continue", sender, s.ts);
          if (cs == nullptr) break;
          add(cs->ts, cs->end_ts(), "resume", sender);
          auto cont = walk.LastRecv(sender, {"continue"}, cs->ts);
          TimeNs ready = local_ready(sender);
          if (cont.has_value() && events[*cont].ts >= ready) {
            // The resume waited on permission, not on local work.
            cur = cont;
          } else {
            cur = local_chain(sender, cs->ts, /*resume_gate=*/true);
          }
        } else {
          break;  // ping traffic: not part of the walk
        }
      }
    }
  }

  // Tile [begin, end] exactly: sort, clip overlaps, name the gaps. This
  // is what makes the phase totals sum to the wall time by construction.
  std::stable_sort(raw.begin(), raw.end(),
                   [](const PathSegment& a, const PathSegment& c) {
                     if (a.begin != c.begin) return a.begin < c.begin;
                     return a.end < c.end;
                   });
  TimeNs cursor = b.begin;
  for (const PathSegment& s : raw) {
    TimeNs sb = std::max(s.begin, cursor);
    TimeNs se = std::min(s.end, b.end);
    if (se <= cursor) continue;
    if (sb > cursor) {
      b.segments.push_back(PathSegment{cursor, sb, "unattributed", ""});
    }
    b.segments.push_back(PathSegment{sb, se, s.phase, s.node});
    cursor = se;
  }
  if (cursor < b.end) {
    b.segments.push_back(PathSegment{cursor, b.end, "unattributed", ""});
  }

  // Aggregate phase totals and per-phase straggler.
  std::unordered_map<std::string, DurationNs> totals;
  std::unordered_map<std::string,
                     std::unordered_map<std::string, DurationNs>>
      by_node;
  for (const PathSegment& s : b.segments) {
    totals[s.phase] += s.ns();
    if (!s.node.empty()) by_node[s.phase][s.node] += s.ns();
  }
  for (const char* phase : kPhaseOrder) {
    auto it = totals.find(phase);
    if (it == totals.end() || it->second == 0) continue;
    PhaseTotal p;
    p.phase = phase;
    p.total = it->second;
    auto nodes = by_node.find(phase);
    if (nodes != by_node.end()) {
      for (const auto& [node, ns] : nodes->second) {
        if (ns > p.straggler_ns ||
            (ns == p.straggler_ns && node < p.straggler)) {
          p.straggler = node;
          p.straggler_ns = ns;
        }
      }
    }
    b.phases.push_back(std::move(p));
  }
  b.unattributed = b.PhaseNs("unattributed");

  // Post-op TCP retransmit recovery window (verbose traces only).
  TimeNs next_op = kMaxTime;
  for (const TraceEvent& e : events) {
    if (IsOpSpan(e) && e.attrs.op != b.op_id && e.ts >= b.end) {
      next_op = std::min(next_op, e.ts);
    }
  }
  for (const TraceEvent& e : events) {
    if (e.kind == EventKind::kInstant && e.name == "tcp.recovered" &&
        e.ts > b.end && e.ts <= next_op) {
      b.tcp_recovery = std::max(b.tcp_recovery, e.ts - b.end);
    }
  }

  // Restore-source attribution: every agent.restore span carries the
  // tier the image was actually read from.
  for (const TraceEvent& e : events) {
    if (e.name != "agent.restore" || e.attrs.op != b.op_id) continue;
    std::string source;
    for (const auto& [k, v] : e.attrs.args) {
      if (k == "source") source = v;
    }
    if (source.empty()) continue;
    b.restore_sources.push_back(
        RestoreSource{e.attrs.agent, source, e.dur});
  }
  std::stable_sort(b.restore_sources.begin(), b.restore_sources.end(),
                   [](const RestoreSource& x, const RestoreSource& y) {
                     return x.node < y.node;
                   });
  return b;
}

std::vector<OpBreakdown> CriticalPathAnalyzer::AnalyzeAll() const {
  std::vector<OpBreakdown> out;
  const auto& events = graph_.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (IsOpSpan(events[i])) out.push_back(AnalyzeSpan(i));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const OpBreakdown& a, const OpBreakdown& b) {
                     return a.op_id < b.op_id;
                   });
  return out;
}

std::optional<OpBreakdown> CriticalPathAnalyzer::AnalyzeOp(
    std::uint64_t op_id) const {
  const auto& events = graph_.events();
  std::optional<OpBreakdown> out;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (IsOpSpan(events[i]) && events[i].attrs.op == op_id) {
      out = AnalyzeSpan(i);  // last span for the id wins
    }
  }
  return out;
}

std::string CriticalPathAnalyzer::RenderReport(
    const std::vector<OpBreakdown>& ops, const MatchStats& stats) {
  std::string out;
  out += "causal critical-path report: " + std::to_string(ops.size()) +
         " op(s)\n";
  out += "edges: sends=" + std::to_string(stats.sends) +
         " recvs=" + std::to_string(stats.recvs) +
         " matched=" + std::to_string(stats.matched) +
         " duplicates=" + std::to_string(stats.duplicate_recvs) +
         " unmatched_sends=" + std::to_string(stats.unmatched_sends) +
         " unmatched_recvs=" + std::to_string(stats.unmatched_recvs) +
         " mis_joins=" + std::to_string(stats.mis_joins) + "\n";
  for (const OpBreakdown& op : ops) {
    out += "\nop " + std::to_string(op.op_id) + " " + op.kind +
           " coordinator=" + op.coordinator +
           " wall=" + FormatMs(op.wall()) + "ms" +
           " success=" + (op.success ? "true" : "false") + "\n";
    out += "  " + Pad("phase", 16) + Pad("ms", 16) + Pad("share", 8) +
           "straggler\n";
    for (const PhaseTotal& p : op.phases) {
      out += "  " + Pad(p.phase, 16) + Pad(FormatMs(p.total), 16) +
             Pad(FormatPct(p.total, op.wall()), 8);
      if (p.straggler.empty()) {
        out += "-";
      } else {
        out += p.straggler + " (" + FormatMs(p.straggler_ns) + "ms)";
      }
      out += "\n";
    }
    if (op.tcp_recovery > 0) {
      out += "  tcp-recovery (post-op): " + FormatMs(op.tcp_recovery) +
             "ms\n";
    }
    if (!op.restore_sources.empty()) {
      out += "  restore-sources:";
      for (std::size_t j = 0; j < op.restore_sources.size(); ++j) {
        const RestoreSource& r = op.restore_sources[j];
        out += (j == 0 ? " " : ", ") + r.node + "=" + r.source + " (" +
               FormatMs(r.ns) + "ms)";
      }
      out += "\n";
    }
  }
  return out;
}

std::string CriticalPathAnalyzer::RenderJson(
    const std::vector<OpBreakdown>& ops, const MatchStats& stats) {
  std::string out = "{\"ops\":[";
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const OpBreakdown& op = ops[i];
    if (i != 0) out += ',';
    out += "{\"op\":" + std::to_string(op.op_id) + ",\"kind\":";
    AppendJsonString(out, op.kind);
    out += ",\"coordinator\":";
    AppendJsonString(out, op.coordinator);
    out += ",\"success\":";
    out += op.success ? "true" : "false";
    out += ",\"begin_ns\":" + std::to_string(op.begin) +
           ",\"end_ns\":" + std::to_string(op.end) +
           ",\"wall_ns\":" + std::to_string(op.wall()) +
           ",\"unattributed_ns\":" + std::to_string(op.unattributed) +
           ",\"tcp_recovery_ns\":" + std::to_string(op.tcp_recovery) +
           ",\"restore_sources\":[";
    for (std::size_t j = 0; j < op.restore_sources.size(); ++j) {
      const RestoreSource& r = op.restore_sources[j];
      if (j != 0) out += ',';
      out += "{\"node\":";
      AppendJsonString(out, r.node);
      out += ",\"source\":";
      AppendJsonString(out, r.source);
      out += ",\"ns\":" + std::to_string(r.ns) + "}";
    }
    out += "],\"phases\":[";
    for (std::size_t j = 0; j < op.phases.size(); ++j) {
      const PhaseTotal& p = op.phases[j];
      if (j != 0) out += ',';
      out += "{\"phase\":";
      AppendJsonString(out, p.phase);
      out += ",\"ns\":" + std::to_string(p.total) + ",\"straggler\":";
      AppendJsonString(out, p.straggler);
      out += ",\"straggler_ns\":" + std::to_string(p.straggler_ns) + "}";
    }
    out += "],\"segments\":[";
    for (std::size_t j = 0; j < op.segments.size(); ++j) {
      const PathSegment& s = op.segments[j];
      if (j != 0) out += ',';
      out += "{\"begin_ns\":" + std::to_string(s.begin) +
             ",\"end_ns\":" + std::to_string(s.end) + ",\"phase\":";
      AppendJsonString(out, s.phase);
      out += ",\"node\":";
      AppendJsonString(out, s.node);
      out += "}";
    }
    out += "]}";
  }
  out += "],\"match_stats\":{\"sends\":" + std::to_string(stats.sends) +
         ",\"recvs\":" + std::to_string(stats.recvs) +
         ",\"matched\":" + std::to_string(stats.matched) +
         ",\"duplicate_recvs\":" + std::to_string(stats.duplicate_recvs) +
         ",\"unmatched_sends\":" + std::to_string(stats.unmatched_sends) +
         ",\"unmatched_recvs\":" + std::to_string(stats.unmatched_recvs) +
         ",\"mis_joins\":" + std::to_string(stats.mis_joins) + "}}";
  return out;
}

}  // namespace cruz::obs::causal
