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
// The ring stores each completed event as one fixed-size record: kind, ts,
// dur, op and pod, the interned ids of category, name, phase and agent,
// and a byte area holding `conn` and each arg as (interned key id, length-
// prefixed value). Interned strings stay for the Tracer's life, so only a
// small fixed vocabulary (names, phases, node names, arg keys) is
// interned; per-event text goes in the byte area. The byte area lives
// inline in the record; the rare event that does not fit uses an overflow
// buffer the record keeps and reuses. Records sit in fixed chunks that are
// reused once the ring is full (drop-oldest; `seq` is implied by ring
// position), so a warm ring records an event without allocating. Open
// spans are records in a pool of their own. events() materializes
// TraceEvents on demand, and the exports render from that view.
//
// High-volume events (per-TCP-segment instants) are gated behind
// set_verbose(true) so long benches do not churn the ring.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
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
  SpanId BeginSpan(std::string_view category, std::string_view name,
                   const TraceAttrs& attrs = {});
  // Closes a span: the completed event enters the ring, ordered by
  // completion. Invalid/unknown ids are ignored (a span opened while the
  // tracer was enabled may be closed after a Clear()).
  void EndSpan(SpanId id) { EndSpan(id, {}); }
  // Closes a span, appending extra args gathered while it ran.
  void EndSpan(
      SpanId id,
      const std::vector<std::pair<std::string, std::string>>& extra_args);

  void Instant(std::string_view category, std::string_view name,
               const TraceAttrs& attrs = {});

  // Completed events, in completion order. Open spans are not included.
  // Built from the ring on the first call after a change; two calls with
  // no event recorded or cleared in between return the same storage. The
  // reference is valid only until the next event is recorded or Clear().
  const std::deque<TraceEvent>& events() const;
  std::uint64_t dropped() const { return dropped_; }
  std::size_t open_spans() const {
    return open_ids_.size() - free_open_.size();
  }

  void Clear();

  // Chrome trace_event JSON. Timestamps are microseconds with fixed
  // 3-decimal nanosecond precision; thread ids are assigned per distinct
  // `agent` attribute in first-seen order, so output is byte-stable for
  // deterministic runs.
  std::string ExportChromeJson() const;
  // One JSON object per line, same field names, newline-terminated.
  std::string ExportJsonl() const;

 private:
  using NameId = std::uint32_t;  // index into names_; 0 = ""

  // One event (160 bytes on LP64): fixed fields, interned ids and a byte
  // area of `conn` followed by (key id, value) per arg, varint-prefixed.
  struct Record {
    static constexpr std::size_t kInlineBytes = 95;
    TimeNs ts = 0;
    DurationNs dur = 0;
    std::uint64_t op = 0;
    std::uint64_t pod = 0;
    NameId category = 0;
    NameId name = 0;
    NameId phase = 0;
    NameId agent = 0;
    std::uint32_t len = 0;  // bytes in the byte area
    std::uint32_t overflow_cap = 0;
    std::unique_ptr<char[]> overflow;  // used when len > kInlineBytes
    EventKind kind = EventKind::kInstant;
    char inline_bytes[kInlineBytes];

    std::string_view bytes() const {
      return {len <= kInlineBytes ? inline_bytes : overflow.get(), len};
    }
    void SetBytes(std::string_view b);
  };

  // Records in fixed chunks, each under glibc's default mmap threshold
  // (128 KiB), so growing never moves a record or maps a large block.
  class RecordChunks {
   public:
    static constexpr std::size_t kRecords = 512;
    Record& operator[](std::size_t i) {
      return chunks_[i / kRecords][i % kRecords];
    }
    const Record& operator[](std::size_t i) const {
      return chunks_[i / kRecords][i % kRecords];
    }
    std::size_t size() const { return chunks_.size() * kRecords; }
    void Grow() { chunks_.push_back(std::make_unique<Record[]>(kRecords)); }

   private:
    std::vector<std::unique_ptr<Record[]>> chunks_;
  };

  TimeNs NowNs() const { return clock_ ? clock_() : 0; }
  NameId Intern(std::string_view s);
  // EncodeAttrs writes attrs' conn and args to staging_; EncodeArgs
  // appends args.
  void EncodeAttrs(const TraceAttrs& attrs);
  void EncodeArgs(
      const std::vector<std::pair<std::string, std::string>>& args);
  // Claims the ring slot for the next completed event, dropping the
  // oldest as the capacity requires; nullptr when the capacity is 0.
  Record* Append();
  // The i-th oldest completed event.
  const Record& At(std::size_t i) const {
    std::size_t p = head_ + i;
    return ring_[p >= ring_.size() ? p - ring_.size() : p];
  }
  std::string_view Name(NameId id) const { return names_[id]; }

  Clock clock_;
  bool enabled_ = true;
  bool verbose_ = false;
  std::uint32_t sampling_ = 1;
  std::uint64_t verbose_calls_ = 0;
  std::size_t capacity_ = 1 << 16;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dropped_ = 0;

  // Interned strings; a deque so views into it stay valid as it grows.
  std::deque<std::string> names_{std::string()};
  std::unordered_map<std::string_view, NameId> ids_;
  std::string staging_;  // byte-area staging, reused

  // Completed events: a circular buffer over ring_'s slots, oldest at
  // head_; the i-th oldest has seq next_seq_ - size_ + i.
  RecordChunks ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;

  // Open spans: a pool of records. A SpanId is (serial << 32 | slot); the
  // slot's entry in open_ids_ holds the id while the span is open, 0 when
  // the slot is free.
  RecordChunks open_;
  std::vector<SpanId> open_ids_;
  std::vector<std::uint32_t> free_open_;
  std::uint64_t next_span_serial_ = 1;

  mutable std::deque<TraceEvent> view_;
  mutable bool view_fresh_ = false;
};

}  // namespace cruz::obs
