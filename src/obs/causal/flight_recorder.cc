#include "obs/causal/flight_recorder.h"

#include "obs/causal/causal_graph.h"
#include "obs/causal/trace_io.h"
#include "obs/trace.h"

namespace cruz::obs::causal {

std::string FlightRecorder::Capture(std::vector<TraceEvent> events,
                                    const FlightTrigger& trigger,
                                    const FlightRecorderOptions& options) {
  TimeNs lo = trigger.ts > options.window ? trigger.ts - options.window : 0;
  std::vector<TraceEvent> window;
  for (TraceEvent& e : events) {
    // Keep anything overlapping [lo, trigger.ts]: a span that began
    // before the window but was still open at the fault is evidence.
    if (e.end_ts() < lo || e.ts > trigger.ts) continue;
    window.push_back(std::move(e));
  }
  CanonicalizeTraceOrder(window);
  bool truncated = false;
  if (window.size() > options.max_events) {
    window.erase(window.begin(),
                 window.end() - static_cast<std::ptrdiff_t>(
                                    options.max_events));
    truncated = true;
  }

  CausalGraph graph = CausalGraph::Build(std::move(window));
  const auto& evs = graph.events();

  std::string out = "{\"trigger\":{\"ts_ns\":" + std::to_string(trigger.ts) +
                    ",\"op\":" + std::to_string(trigger.op) + ",\"kind\":";
  AppendJsonString(out, trigger.kind);
  out += ",\"detail\":";
  AppendJsonString(out, trigger.detail);
  out += ",\"repro\":";
  AppendJsonString(out, trigger.repro);
  out += "},\"window\":{\"begin_ns\":" + std::to_string(lo) +
         ",\"end_ns\":" + std::to_string(trigger.ts) +
         ",\"events\":" + std::to_string(evs.size()) + ",\"truncated\":";
  out += truncated ? "true" : "false";
  out += "},\"events\":[";
  for (std::size_t i = 0; i < evs.size(); ++i) {
    if (i != 0) out += ',';
    AppendJsonlEvent(out, evs[i]);
  }
  out += "],\"causal\":{\"edges\":[";
  bool first = true;
  for (const CausalEdge& e : graph.edges()) {
    if (!first) out += ',';
    first = false;
    out += "{\"send_seq\":" + std::to_string(evs[e.send].seq) +
           ",\"recv_seq\":" + std::to_string(evs[e.recv].seq) +
           ",\"corr\":";
    AppendJsonString(out, e.corr);
    out += ",\"duplicate\":";
    out += e.duplicate ? "true" : "false";
    out += "}";
  }
  out += "],\"unmatched_send_seqs\":[";
  first = true;
  for (std::size_t idx : graph.UnmatchedSends()) {
    if (!first) out += ',';
    first = false;
    out += std::to_string(evs[idx].seq);
  }
  const MatchStats& st = graph.stats();
  out += "],\"stats\":{\"sends\":" + std::to_string(st.sends) +
         ",\"recvs\":" + std::to_string(st.recvs) +
         ",\"matched\":" + std::to_string(st.matched) +
         ",\"duplicate_recvs\":" + std::to_string(st.duplicate_recvs) +
         ",\"unmatched_sends\":" + std::to_string(st.unmatched_sends) +
         ",\"unmatched_recvs\":" + std::to_string(st.unmatched_recvs) +
         ",\"mis_joins\":" + std::to_string(st.mis_joins) + "}}}";
  return out;
}

}  // namespace cruz::obs::causal
