// Deterministic structured tracing for the simulation.
//
// A Tracer records typed span and instant events into a bounded per-run
// ring buffer. Every event is stamped with the *simulated* clock (the
// Simulator installs itself as the tracer's clock), so two runs with the
// same seed and the same schedule of API calls produce byte-identical
// exports — which is what lets tests assert on timeline claims (Fig. 2
// phase ordering, the Fig. 6 stall-and-recover pulse) instead of log
// scraping.
//
// Events carry the attributes the checkpoint pipeline is described in:
// `op` (coordinated-operation id == fencing epoch), `phase` (freeze /
// commit / save / ...), `agent` (node name), `pod`, and `conn` (a TCP
// four-tuple), plus free-form key/value args. Exports:
//
//   * ExportChromeJson() — Chrome trace_event JSON ("X"/"i" phases),
//     loadable in chrome://tracing / Perfetto.
//   * ExportJsonl()      — one flat JSON object per line, for tooling.
//
// High-volume events (per-TCP-segment instants) are gated behind
// set_verbose(true) so long benches do not churn the ring.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/units.h"

namespace cruz::obs {

// Appends `s` as a JSON string literal, quotes included. Quote,
// backslash and every control character are escaped, so the result
// always parses. Every JSON exporter in obs writes strings through it.
void AppendJsonString(std::string& out, std::string_view s);

enum class EventKind : std::uint8_t { kSpan, kInstant };

// Typed attributes of one event. Unset fields are omitted from exports.
struct TraceAttrs {
  std::uint64_t op = 0;  // coordinated-operation id (0 = unset)
  std::string phase;
  std::string agent;  // node name
  std::uint64_t pod = 0;  // os::kNoPod (0) = unset
  std::string conn;   // TCP four-tuple rendering
  // Extra key/value pairs, exported in insertion order.
  std::vector<std::pair<std::string, std::string>> args;

  TraceAttrs& Op(std::uint64_t v) { op = v; return *this; }
  TraceAttrs& Phase(std::string v) { phase = std::move(v); return *this; }
  TraceAttrs& Agent(std::string v) { agent = std::move(v); return *this; }
  TraceAttrs& Pod(std::uint64_t v) { pod = v; return *this; }
  TraceAttrs& Conn(std::string v) { conn = std::move(v); return *this; }
  TraceAttrs& Arg(std::string key, std::string value) {
    args.emplace_back(std::move(key), std::move(value));
    return *this;
  }
  TraceAttrs& Arg(std::string key, std::uint64_t value) {
    args.emplace_back(std::move(key), std::to_string(value));
    return *this;
  }
};

struct TraceEvent {
  EventKind kind = EventKind::kInstant;
  TimeNs ts = 0;        // begin time (spans) or occurrence time (instants)
  DurationNs dur = 0;   // spans only
  std::uint64_t seq = 0;  // insertion sequence (completion order)
  std::string category;   // "coord", "agent", "ckpt", "tcp", "fault", ...
  std::string name;
  TraceAttrs attrs;

  TimeNs end_ts() const { return ts + dur; }
};

using SpanId = std::uint64_t;
constexpr SpanId kInvalidSpanId = 0;

// Appends one event as a single flat JSON object (no newline) — the same
// rendering ExportJsonl() uses per line, shared with the flight recorder.
void AppendJsonlEvent(std::string& out, const TraceEvent& e);

class Tracer {
 public:
  using Clock = std::function<TimeNs()>;

  // Until a clock is installed (the Simulator does it), events stamp 0.
  void SetClock(Clock clock) { clock_ = std::move(clock); }

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  // Verbose gate for high-volume events (per-segment TCP instants).
  void set_verbose(bool verbose) { verbose_ = verbose; }
  bool verbose() const { return verbose_; }

  // Sampling for the verbose event class: keep one of every
  // `keep_one_in` verbose-gated events (1 = keep all, the default). At
  // thousand-node scale per-segment instants would otherwise drown the
  // ring; decimating them keeps the ring representative without
  // touching any non-verbose event. With sampling at 1 the gate is a
  // plain bool check, so unsampled runs export byte-identical traces.
  void SetSampling(std::uint32_t keep_one_in) {
    sampling_ = keep_one_in == 0 ? 1 : keep_one_in;
  }
  std::uint32_t sampling() const { return sampling_; }

  // Call-site gate for verbose-class events: false when verbose capture
  // is off; under sampling, true for exactly one in sampling() calls
  // (deterministic — a modulo counter, no RNG).
  bool VerboseSample() {
    if (!verbose_) return false;
    if (sampling_ <= 1) return true;
    return (verbose_calls_++ % sampling_) == 0;
  }

  void set_capacity(std::size_t capacity) { capacity_ = capacity; }
  std::size_t capacity() const { return capacity_; }

  // Opens a span at the current simulated time. Returns an id for
  // EndSpan(); kInvalidSpanId when tracing is disabled.
  SpanId BeginSpan(std::string category, std::string name,
                   TraceAttrs attrs = {});
  // Closes a span: the completed event enters the ring, ordered by
  // completion. Invalid/unknown ids are ignored (a span opened while the
  // tracer was enabled may be closed after a Clear()).
  void EndSpan(SpanId id);
  // Closes a span, appending extra args gathered while it ran.
  void EndSpan(SpanId id,
               std::vector<std::pair<std::string, std::string>> extra_args);

  void Instant(std::string category, std::string name,
               TraceAttrs attrs = {});

  // Completed events, in completion order. Open spans are not included.
  const std::deque<TraceEvent>& events() const { return events_; }
  std::uint64_t dropped() const { return dropped_; }
  std::size_t open_spans() const { return open_.size(); }

  void Clear();

  // Chrome trace_event JSON. Timestamps are microseconds with fixed
  // 3-decimal nanosecond precision; thread ids are assigned per distinct
  // `agent` attribute in first-seen order, so output is byte-stable for
  // deterministic runs.
  std::string ExportChromeJson() const;
  // One JSON object per line, same field names, newline-terminated.
  std::string ExportJsonl() const;

 private:
  TimeNs NowNs() const { return clock_ ? clock_() : 0; }
  void Push(TraceEvent event);

  struct OpenSpan {
    TimeNs begin = 0;
    std::string category;
    std::string name;
    TraceAttrs attrs;
  };

  Clock clock_;
  bool enabled_ = true;
  bool verbose_ = false;
  std::uint32_t sampling_ = 1;
  std::uint64_t verbose_calls_ = 0;
  std::size_t capacity_ = 1 << 16;
  std::uint64_t next_span_id_ = 1;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dropped_ = 0;
  std::unordered_map<SpanId, OpenSpan> open_;
  std::deque<TraceEvent> events_;
};

}  // namespace cruz::obs
