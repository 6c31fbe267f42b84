// Unit tests for the observability layer: Tracer (spans, instants, ring
// bound, exports), MetricsRegistry (counters, gauges, histograms, dumps),
// and TraceQuery (filtering, ordering, window counts).
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <deque>
#include <random>
#include <unordered_map>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_query.h"

namespace cruz::obs {
namespace {

// A tracer driven by a hand-cranked clock, so tests control timestamps.
struct ClockedTracer {
  TimeNs now = 0;
  Tracer tracer;

  ClockedTracer() {
    tracer.SetClock([this] { return now; });
  }
};

TEST(Tracer, SpanRecordsBeginAndDuration) {
  ClockedTracer t;
  t.now = 100;
  SpanId id = t.tracer.BeginSpan("coord", "coord.phase.freeze",
                                 TraceAttrs{}.Op(7).Phase("freeze"));
  ASSERT_NE(id, kInvalidSpanId);
  EXPECT_EQ(t.tracer.open_spans(), 1u);
  EXPECT_TRUE(t.tracer.events().empty());  // not completed yet

  t.now = 350;
  t.tracer.EndSpan(id);
  ASSERT_EQ(t.tracer.events().size(), 1u);
  const TraceEvent& e = t.tracer.events().front();
  EXPECT_EQ(e.kind, EventKind::kSpan);
  EXPECT_EQ(e.ts, 100u);
  EXPECT_EQ(e.dur, 250u);
  EXPECT_EQ(e.end_ts(), 350u);
  EXPECT_EQ(e.category, "coord");
  EXPECT_EQ(e.name, "coord.phase.freeze");
  EXPECT_EQ(e.attrs.op, 7u);
  EXPECT_EQ(e.attrs.phase, "freeze");
  EXPECT_EQ(t.tracer.open_spans(), 0u);
}

TEST(Tracer, EndSpanAppendsExtraArgs) {
  ClockedTracer t;
  SpanId id = t.tracer.BeginSpan("agent", "agent.save",
                                 TraceAttrs{}.Arg("mode", "stop-the-world"));
  t.now = 10;
  t.tracer.EndSpan(id, {{"outcome", "ok"}});
  const TraceEvent& e = t.tracer.events().front();
  ASSERT_EQ(e.attrs.args.size(), 2u);
  EXPECT_EQ(e.attrs.args[0].first, "mode");
  EXPECT_EQ(e.attrs.args[1].first, "outcome");
  EXPECT_EQ(e.attrs.args[1].second, "ok");
}

TEST(Tracer, InstantStampsCurrentTime) {
  ClockedTracer t;
  t.now = 42;
  t.tracer.Instant("tcp", "tcp.rto", TraceAttrs{}.Conn("a<->b"));
  ASSERT_EQ(t.tracer.events().size(), 1u);
  EXPECT_EQ(t.tracer.events().front().kind, EventKind::kInstant);
  EXPECT_EQ(t.tracer.events().front().ts, 42u);
  EXPECT_EQ(t.tracer.events().front().dur, 0u);
}

TEST(Tracer, DisabledTracerRecordsNothing) {
  ClockedTracer t;
  t.tracer.set_enabled(false);
  EXPECT_EQ(t.tracer.BeginSpan("c", "n"), kInvalidSpanId);
  t.tracer.Instant("c", "n");
  t.tracer.EndSpan(kInvalidSpanId);    // must be a safe no-op
  t.tracer.EndSpan(99999);             // unknown id ignored
  EXPECT_TRUE(t.tracer.events().empty());
}

TEST(Tracer, RingDropsOldestBeyondCapacity) {
  ClockedTracer t;
  t.tracer.set_capacity(4);
  for (int i = 0; i < 10; ++i) {
    t.now = static_cast<TimeNs>(i);
    t.tracer.Instant("c", "e" + std::to_string(i));
  }
  EXPECT_EQ(t.tracer.events().size(), 4u);
  EXPECT_EQ(t.tracer.dropped(), 6u);
  EXPECT_EQ(t.tracer.events().front().name, "e6");
  EXPECT_EQ(t.tracer.events().back().name, "e9");
}

TEST(Tracer, VerboseSampleGatesOnVerboseFlag) {
  ClockedTracer t;
  EXPECT_FALSE(t.tracer.VerboseSample());  // verbose off: never sampled
  t.tracer.set_verbose(true);
  EXPECT_EQ(t.tracer.sampling(), 1u);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(t.tracer.VerboseSample());
}

TEST(Tracer, VerboseSampleKeepsOneInN) {
  ClockedTracer t;
  t.tracer.set_verbose(true);
  t.tracer.SetSampling(4);
  int kept = 0;
  for (int i = 0; i < 16; ++i) {
    bool keep = t.tracer.VerboseSample();
    EXPECT_EQ(keep, i % 4 == 0) << "call " << i;
    if (keep) ++kept;
  }
  EXPECT_EQ(kept, 4);
  // Sampling 0 is clamped to 1 (keep everything).
  t.tracer.SetSampling(0);
  EXPECT_EQ(t.tracer.sampling(), 1u);
  EXPECT_TRUE(t.tracer.VerboseSample());
}

TEST(Tracer, DefaultSamplingExportsAreByteIdentical) {
  // The same event sequence through two tracers — one never touched by
  // the sampling API, one explicitly set to 1 — must export identically.
  auto drive = [](Tracer& tracer, TimeNs* now) {
    for (int i = 0; i < 8; ++i) {
      *now = static_cast<TimeNs>(i * 10);
      if (tracer.VerboseSample()) {
        tracer.Instant("tcp", "tcp.tx", TraceAttrs{}.Arg("seq", i));
      }
      tracer.Instant("coord", "beat");
    }
  };
  ClockedTracer plain;
  plain.tracer.set_verbose(true);
  drive(plain.tracer, &plain.now);
  ClockedTracer sampled;
  sampled.tracer.set_verbose(true);
  sampled.tracer.SetSampling(1);
  drive(sampled.tracer, &sampled.now);
  EXPECT_EQ(plain.tracer.ExportJsonl(), sampled.tracer.ExportJsonl());
  EXPECT_EQ(plain.tracer.ExportChromeJson(),
            sampled.tracer.ExportChromeJson());
}

TEST(Tracer, SamplingDecimatesOnlyVerboseEvents) {
  ClockedTracer t;
  t.tracer.set_verbose(true);
  t.tracer.SetSampling(3);
  int verbose_kept = 0;
  for (int i = 0; i < 9; ++i) {
    if (t.tracer.VerboseSample()) {
      t.tracer.Instant("tcp", "tcp.rx");
      ++verbose_kept;
    }
    t.tracer.Instant("ckpt", "page");  // non-verbose, never decimated
  }
  EXPECT_EQ(verbose_kept, 3);
  int tcp = 0, ckpt = 0;
  for (const TraceEvent& e : t.tracer.events()) {
    if (e.category == "tcp") ++tcp;
    if (e.category == "ckpt") ++ckpt;
  }
  EXPECT_EQ(tcp, 3);
  EXPECT_EQ(ckpt, 9);
}

TEST(Tracer, ClearResetsEventsAndDropCount) {
  ClockedTracer t;
  t.tracer.set_capacity(1);
  t.tracer.Instant("c", "a");
  t.tracer.Instant("c", "b");
  EXPECT_EQ(t.tracer.dropped(), 1u);
  t.tracer.Clear();
  EXPECT_TRUE(t.tracer.events().empty());
  EXPECT_EQ(t.tracer.dropped(), 0u);
}

TEST(Tracer, ChromeExportShape) {
  ClockedTracer t;
  t.now = 1500;  // 1.5 us
  SpanId id = t.tracer.BeginSpan("coord", "coord.op.checkpoint",
                                 TraceAttrs{}.Op(3).Agent("node0"));
  t.now = 2500;
  t.tracer.EndSpan(id);
  t.tracer.Instant("fault", "fault.msg-drop");
  std::string json = t.tracer.ExportChromeJson();
  // Span event with microsecond timestamps at ns precision.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1.000"), std::string::npos);
  // Instant event.
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  // Per-agent thread-name metadata track.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"node0\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

TEST(Tracer, JsonlOneLinePerEvent) {
  ClockedTracer t;
  t.tracer.Instant("a", "one");
  t.now = 5;
  SpanId id = t.tracer.BeginSpan("b", "two");
  t.now = 9;
  t.tracer.EndSpan(id);
  std::string jsonl = t.tracer.ExportJsonl();
  std::size_t lines = 0;
  for (char c : jsonl) lines += c == '\n';
  EXPECT_EQ(lines, 2u);
  EXPECT_NE(jsonl.find("\"kind\":\"instant\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"kind\":\"span\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"ts_ns\":5,\"dur_ns\":4"), std::string::npos);
}

// An empty ring must still export well-formed artifacts: Chrome JSON
// with an empty traceEvents array and a zero drop count, and an empty
// JSONL document (zero lines, not a blank line).
TEST(Tracer, EmptyRingExportsAreWellFormed) {
  ClockedTracer t;
  EXPECT_EQ(t.tracer.ExportChromeJson(),
            "{\"traceEvents\":[\n],"
            "\"displayTimeUnit\":\"ms\","
            "\"otherData\":{\"dropped\":\"0\"}}\n");
  EXPECT_EQ(t.tracer.ExportJsonl(), "");
}

// When the ring overflows, the exports must account for the loss: the
// drop count appears in the Chrome JSON metadata and the JSONL line
// count matches the surviving events exactly.
TEST(Tracer, OverflowDropCountSurfacesInExports) {
  ClockedTracer t;
  t.tracer.set_capacity(3);
  for (int i = 0; i < 8; ++i) {
    t.now = static_cast<TimeNs>(i);
    SpanId id = t.tracer.BeginSpan("c", "span" + std::to_string(i));
    t.tracer.EndSpan(id);
  }
  EXPECT_EQ(t.tracer.dropped(), 5u);
  std::string chrome = t.tracer.ExportChromeJson();
  EXPECT_NE(chrome.find("\"dropped\":\"5\""), std::string::npos);
  // The oldest events are gone from the export, the newest survive.
  EXPECT_EQ(chrome.find("span0"), std::string::npos);
  EXPECT_NE(chrome.find("span7"), std::string::npos);
  std::string jsonl = t.tracer.ExportJsonl();
  std::size_t lines = 0;
  for (char ch : jsonl) lines += ch == '\n';
  EXPECT_EQ(lines, 3u);
}

TEST(Tracer, ExportsEscapeControlAndQuoteCharacters) {
  ClockedTracer t;
  t.tracer.Instant("c", "evil",
                   TraceAttrs{}.Arg("k", "a\"b\\c\nd\te\x01"));
  std::string jsonl = t.tracer.ExportJsonl();
  EXPECT_NE(jsonl.find("a\\\"b\\\\c\\nd\\te\\u0001"), std::string::npos);
  // The raw control byte must not leak into the output.
  EXPECT_EQ(jsonl.find('\x01'), std::string::npos);
}

// The deque-of-TraceEvent tracer the record ring replaced, kept as the
// reference model for the differential test below: every event a whole
// TraceEvent in a std::deque, open spans in a hash map of strings.
class ReferenceTracer {
 public:
  using Args = std::vector<std::pair<std::string, std::string>>;

  void SetClock(std::function<TimeNs()> clock) { clock_ = std::move(clock); }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_capacity(std::size_t capacity) { capacity_ = capacity; }

  SpanId BeginSpan(std::string category, std::string name,
                   TraceAttrs attrs = {}) {
    if (!enabled_) return kInvalidSpanId;
    SpanId id = next_span_id_++;
    open_[id] = OpenSpan{NowNs(), std::move(category), std::move(name),
                         std::move(attrs)};
    return id;
  }
  void EndSpan(SpanId id, Args extra_args) {
    auto it = open_.find(id);
    if (it == open_.end()) return;
    OpenSpan span = std::move(it->second);
    open_.erase(it);
    if (!enabled_) return;
    TraceEvent event;
    event.kind = EventKind::kSpan;
    event.ts = span.begin;
    event.dur = NowNs() - span.begin;
    event.category = std::move(span.category);
    event.name = std::move(span.name);
    event.attrs = std::move(span.attrs);
    for (auto& [key, value] : extra_args) {
      event.attrs.args.emplace_back(std::move(key), std::move(value));
    }
    Push(std::move(event));
  }
  void Instant(std::string category, std::string name, TraceAttrs attrs = {}) {
    if (!enabled_) return;
    TraceEvent event;
    event.kind = EventKind::kInstant;
    event.ts = NowNs();
    event.category = std::move(category);
    event.name = std::move(name);
    event.attrs = std::move(attrs);
    Push(std::move(event));
  }
  const std::deque<TraceEvent>& events() const { return events_; }
  std::uint64_t dropped() const { return dropped_; }
  std::size_t open_spans() const { return open_.size(); }
  void Clear() {
    events_.clear();
    open_.clear();
    dropped_ = 0;
    next_seq_ = 0;
  }

  std::string ExportChromeJson() const {
    std::unordered_map<std::string, int> tids;
    std::vector<std::string> tid_names;
    auto tid_for = [&](const std::string& agent) {
      if (agent.empty()) return 1;
      auto [it, inserted] =
          tids.emplace(agent, static_cast<int>(tid_names.size()) + 2);
      if (inserted) tid_names.push_back(agent);
      return it->second;
    };
    std::string out = "{\"traceEvents\":[";
    bool first = true;
    for (const TraceEvent& e : events_) {
      if (!first) out += ',';
      first = false;
      out += "\n{\"ph\":\"";
      out += e.kind == EventKind::kSpan ? 'X' : 'i';
      out += "\",\"pid\":1,\"tid\":" + std::to_string(tid_for(e.attrs.agent));
      out += ",\"ts\":";
      AppendMicros(out, e.ts);
      if (e.kind == EventKind::kSpan) {
        out += ",\"dur\":";
        AppendMicros(out, e.dur);
      } else {
        out += ",\"s\":\"t\"";
      }
      out += ",\"cat\":";
      AppendJsonString(out, e.category);
      out += ",\"name\":";
      AppendJsonString(out, e.name);
      out += ",\"args\":";
      AppendArgs(out, e.attrs);
      out += '}';
    }
    for (std::size_t i = 0; i < tid_names.size(); ++i) {
      if (!first) out += ',';
      first = false;
      out += "\n{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(i + 2) +
             ",\"name\":\"thread_name\",\"args\":{\"name\":";
      AppendJsonString(out, tid_names[i]);
      out += "}}";
    }
    out += "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":\"" +
           std::to_string(dropped_) + "\"}}\n";
    return out;
  }
  std::string ExportJsonl() const {
    std::string out;
    for (const TraceEvent& e : events_) {
      out += "{\"kind\":\"";
      out += e.kind == EventKind::kSpan ? "span" : "instant";
      out += "\",\"ts_ns\":" + std::to_string(e.ts);
      if (e.kind == EventKind::kSpan) {
        out += ",\"dur_ns\":" + std::to_string(e.dur);
      }
      out += ",\"seq\":" + std::to_string(e.seq);
      out += ",\"cat\":";
      AppendJsonString(out, e.category);
      out += ",\"name\":";
      AppendJsonString(out, e.name);
      out += ",\"args\":";
      AppendArgs(out, e.attrs);
      out += "}\n";
    }
    return out;
  }

 private:
  struct OpenSpan {
    TimeNs begin = 0;
    std::string category;
    std::string name;
    TraceAttrs attrs;
  };

  static void AppendMicros(std::string& out, TimeNs ns) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%" PRIu64 ".%03" PRIu64, ns / 1000,
                  ns % 1000);
    out += buf;
  }
  static void AppendArgs(std::string& out, const TraceAttrs& a) {
    out += '{';
    bool first = true;
    auto sep = [&] {
      if (!first) out += ',';
      first = false;
    };
    if (a.op != 0) {
      sep();
      out += "\"op\":" + std::to_string(a.op);
    }
    if (!a.phase.empty()) {
      sep();
      out += "\"phase\":";
      AppendJsonString(out, a.phase);
    }
    if (!a.agent.empty()) {
      sep();
      out += "\"agent\":";
      AppendJsonString(out, a.agent);
    }
    if (a.pod != 0) {
      sep();
      out += "\"pod\":" + std::to_string(a.pod);
    }
    if (!a.conn.empty()) {
      sep();
      out += "\"conn\":";
      AppendJsonString(out, a.conn);
    }
    for (const auto& [key, value] : a.args) {
      sep();
      AppendJsonString(out, key);
      out += ':';
      AppendJsonString(out, value);
    }
    out += '}';
  }
  TimeNs NowNs() const { return clock_ ? clock_() : 0; }
  void Push(TraceEvent event) {
    event.seq = next_seq_++;
    events_.push_back(std::move(event));
    while (events_.size() > capacity_) {
      events_.pop_front();
      ++dropped_;
    }
  }

  std::function<TimeNs()> clock_;
  bool enabled_ = true;
  std::size_t capacity_ = 1 << 16;
  std::uint64_t next_span_id_ = 1;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dropped_ = 0;
  std::unordered_map<SpanId, OpenSpan> open_;
  std::deque<TraceEvent> events_;
};

// Seeded random call sequences through the record ring and the reference
// model: spans closed with and without extra args, in any order, twice,
// after a Clear() or never; instants; Clear() with spans open; capacity
// raised, lowered, 0 and 1 on a wrapped ring; bursts that fill whole
// record chunks; tracing switched off and on; values longer than a record's inline bytes; empty and unusual
// strings. Every event field, the drop and open-span counts and both
// exports must agree byte for byte.
TEST(Tracer, RecordRingMatchesReferenceModel) {
  const std::vector<std::string> categories = {"coord", "agent", "tcp", "c"};
  const std::vector<std::string> names = {
      "coord.msg.send", "agent.save", "coord.phase.freeze", "x",
      "a rather long event name that does not fit a short string"};
  const std::vector<std::string> words = {
      "", "", "freeze", "node0", "node17", "10.0.1.7:80<->10.0.2.9:5000",
      "esc \"q\" \\ \n\t\x01\x1f end", "caf\xc3\xa9", std::string(1, '\0')};
  const std::vector<std::string> keys = {"type", "corr", "dst", "bytes",
                                         "k\"ey\n", ""};
  for (std::uint32_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    auto below = [&rng](std::size_t n) {
      return static_cast<std::size_t>(rng() % n);
    };
    auto pick = [&](const std::vector<std::string>& v) {
      return v[below(v.size())];
    };
    // Mostly short values; now and then one far past the inline bytes.
    auto value = [&]() -> std::string {
      switch (below(8)) {
        case 0: return std::string(90 + below(200), static_cast<char>(
                                                       'a' + below(26)));
        case 1: return std::to_string(rng());
        default: return pick(words);
      }
    };
    auto attrs = [&] {
      TraceAttrs a;
      if (below(2)) a.Op(below(5));
      if (below(2)) a.Phase(pick(words));
      if (below(2)) a.Agent(pick(words));
      if (below(2)) a.Pod(below(4));
      if (below(3) == 0) a.Conn(value());
      for (std::size_t n = below(5); n > 0; --n) a.Arg(pick(keys), value());
      return a;
    };
    auto extra = [&] {
      ReferenceTracer::Args args;
      for (std::size_t n = below(3); n > 0; --n) {
        args.emplace_back(pick(keys), value());
      }
      return args;
    };

    TimeNs now = 0;
    Tracer tracer;
    ReferenceTracer ref;
    tracer.SetClock([&now] { return now; });
    ref.SetClock([&now] { return now; });
    tracer.set_capacity(1 + below(40));
    ref.set_capacity(tracer.capacity());
    struct Handle {
      SpanId ours;
      SpanId theirs;
    };
    std::vector<Handle> handles;  // open, closed and stale alike

    for (int step = 0; step < 3000; ++step) {
      now += below(3) * 1001;
      switch (below(16)) {
        case 0:
        case 1:
        case 2: {
          std::string cat = pick(categories);
          std::string name = pick(names);
          TraceAttrs a = attrs();
          handles.push_back(
              {tracer.BeginSpan(cat, name, a), ref.BeginSpan(cat, name, a)});
          break;
        }
        case 3:
        case 4:
        case 5:
          if (!handles.empty()) {
            std::size_t i = below(handles.size());
            Handle h = handles[i];
            if (below(4) != 0) {  // keep a closed id around now and then
              handles.erase(handles.begin() + static_cast<long>(i));
            }
            if (below(2)) {
              tracer.EndSpan(h.ours);
              ref.EndSpan(h.theirs, {});
            } else {
              ReferenceTracer::Args args = extra();
              tracer.EndSpan(h.ours, args);
              ref.EndSpan(h.theirs, args);
            }
          }
          break;
        case 6:
          tracer.EndSpan(kInvalidSpanId);
          tracer.EndSpan(below(1u << 20));
          tracer.EndSpan((SpanId{1} << 32) | below(1u << 20));
          break;
        case 7:
        case 8:
        case 9:
        case 10: {
          std::string cat = pick(categories);
          std::string name = pick(names);
          TraceAttrs a = attrs();
          tracer.Instant(cat, name, a);
          ref.Instant(cat, name, a);
          break;
        }
        case 11:
          if (below(8) == 0) {
            tracer.Clear();
            ref.Clear();
          }
          break;
        case 12: {
          // 512 and 1024 fill whole record chunks, so a later raise
          // grows a wrapped ring.
          static constexpr std::size_t kCapacities[] = {0,   1,   2,    3,
                                                        17,  512, 1024, 1100};
          std::size_t c = below(3) == 0
                              ? kCapacities[below(std::size(kCapacities))]
                              : tracer.capacity() + below(9) - 4;
          if (c > 5000) c = 5;
          tracer.set_capacity(c);
          ref.set_capacity(c);
          break;
        }
        case 13:
          if (below(6) == 0) {
            bool on = below(3) != 0;
            tracer.set_enabled(on);
            ref.set_enabled(on);
          }
          break;
        case 14:
          if (below(4) == 0) {  // a burst that fills and wraps the ring
            for (std::size_t n = below(1200); n > 0; --n) {
              TraceAttrs a = attrs();
              tracer.Instant("tcp", "tcp.tx", a);
              ref.Instant("tcp", "tcp.tx", a);
            }
          }
          break;
        default:
          break;
      }
      ASSERT_EQ(tracer.dropped(), ref.dropped()) << "step " << step;
      ASSERT_EQ(tracer.open_spans(), ref.open_spans()) << "step " << step;
      if (step % 7 == 0 || step + 1 == 3000) {
        const std::deque<TraceEvent>& got = tracer.events();
        const std::deque<TraceEvent>& want = ref.events();
        ASSERT_EQ(got.size(), want.size()) << "step " << step;
        for (std::size_t i = 0; i < got.size(); ++i) {
          const TraceEvent& g = got[i];
          const TraceEvent& w = want[i];
          ASSERT_EQ(g.kind, w.kind) << "step " << step << " event " << i;
          ASSERT_EQ(g.ts, w.ts) << "step " << step << " event " << i;
          ASSERT_EQ(g.dur, w.dur) << "step " << step << " event " << i;
          ASSERT_EQ(g.seq, w.seq) << "step " << step << " event " << i;
          ASSERT_EQ(g.category, w.category) << "step " << step;
          ASSERT_EQ(g.name, w.name) << "step " << step;
          ASSERT_EQ(g.attrs.op, w.attrs.op) << "step " << step;
          ASSERT_EQ(g.attrs.phase, w.attrs.phase) << "step " << step;
          ASSERT_EQ(g.attrs.agent, w.attrs.agent) << "step " << step;
          ASSERT_EQ(g.attrs.pod, w.attrs.pod) << "step " << step;
          ASSERT_EQ(g.attrs.conn, w.attrs.conn) << "step " << step;
          ASSERT_EQ(g.attrs.args, w.attrs.args) << "step " << step;
        }
        // No write in between: the same storage, not a rebuilt copy.
        if (!got.empty()) {
          ASSERT_EQ(&tracer.events().front(), &got.front());
        }
      }
      if (step % 97 == 0 || step + 1 == 3000) {
        ASSERT_EQ(tracer.ExportJsonl(), ref.ExportJsonl()) << "step " << step;
        ASSERT_EQ(tracer.ExportChromeJson(), ref.ExportChromeJson())
            << "step " << step;
      }
    }
  }
}

TEST(Metrics, CountersGaugesHistograms) {
  MetricsRegistry m;
  m.counter("coord.ops_total").Add();
  m.counter("coord.ops_total").Add(4);
  EXPECT_EQ(m.counter("coord.ops_total").value(), 5u);

  m.gauge("ckpt.codec_ratio").Set(0.5);
  EXPECT_DOUBLE_EQ(m.gauge("ckpt.codec_ratio").value(), 0.5);

  LatencyHistogram& h = m.histogram("coord.downtime_us");
  h.Record(3);
  h.Record(5);
  h.Record(100);
  h.Record(5000);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 5108u);
  EXPECT_EQ(h.min(), 3u);
  EXPECT_EQ(h.max(), 5000u);
  EXPECT_DOUBLE_EQ(h.mean(), 1277.0);
  // Values below 1024 get a bucket each; 5000 shares a bucket whose
  // upper bound is within 0.1% of it.
  for (std::uint64_t v : {3u, 5u, 100u, 5000u}) {
    EXPECT_EQ(h.bucket(LatencyHistogram::IndexFor(v)), 1u) << v;
  }
  EXPECT_EQ(LatencyHistogram::UpperBoundFor(LatencyHistogram::IndexFor(100)),
            100u);
  EXPECT_EQ(
      LatencyHistogram::UpperBoundFor(LatencyHistogram::IndexFor(5000)),
      5007u);
}

// Degenerate histogram: identical samples collapse into a single
// bucket, and every summary statistic must still be exact
// (min == max == mean, all other buckets empty).
TEST(Metrics, SingleBucketHistogramSummaryIsExact) {
  MetricsRegistry m;
  LatencyHistogram& h = m.histogram("agent.save_us");
  for (int i = 0; i < 7; ++i) h.Record(6000);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(h.sum(), 42000u);
  EXPECT_EQ(h.min(), 6000u);
  EXPECT_EQ(h.max(), 6000u);
  EXPECT_DOUBLE_EQ(h.mean(), 6000.0);
  const std::size_t only = LatencyHistogram::IndexFor(6000);
  for (std::size_t i = 0; i < h.bucket_count(); ++i) {
    EXPECT_EQ(h.bucket(i), i == only ? 7u : 0u) << "bucket " << i;
  }
  EXPECT_EQ(h.Percentile(0.001), 6000u);  // capped at the exact max

  std::string dump = m.TextDump();
  EXPECT_NE(dump.find("agent.save_us_count 7"), std::string::npos);
  EXPECT_NE(dump.find("agent.save_us_sum 42000"), std::string::npos);
  EXPECT_NE(dump.find("agent.save_us_min 6000"), std::string::npos);
  EXPECT_NE(dump.find("agent.save_us_max 6000"), std::string::npos);
  EXPECT_NE(dump.find("agent.save_us_mean 6000"), std::string::npos);
}

// An empty histogram reports zeros, not garbage: min() must not leak
// its ~0 sentinel and mean() must not divide by zero.
TEST(Metrics, EmptyHistogramSummaryIsAllZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.Percentile(0.5), 0u);
}

// Quantiles: the answer is the upper bound of the bucket holding the
// rank-ceil(q*count) sample, capped at the exact max. Documented
// semantics, locked here.
TEST(Metrics, HistogramPercentileUsesBucketUpperBounds) {
  LatencyHistogram h;
  h.Record(3);     // exact bucket
  h.Record(5000);  // bucket upper bound 5007
  h.Record(6000);  // bucket upper bound 6007
  EXPECT_EQ(h.Percentile(0.01), 3u);    // rank 1
  EXPECT_EQ(h.Percentile(0.5), 5007u);  // rank 2 -> bucket upper bound
  EXPECT_EQ(h.Percentile(0.9), 6000u);  // rank 3 -> 6007 capped at max
  EXPECT_EQ(h.Percentile(1.0), 6000u);  // p100 is exactly the max

  // Single-value histograms answer exactly at every quantile.
  LatencyHistogram one;
  one.Record(6);
  EXPECT_EQ(one.Percentile(0.001), 6u);
  EXPECT_EQ(one.Percentile(1.0), 6u);

  // A restored snapshot (bucket counts by `le` + scalars, no raw
  // samples) must answer identically — cruz_analyze re-exposition
  // depends on it.
  LatencyHistogram restored;
  restored.Restore(3, 11003, 3, 6000);
  EXPECT_TRUE(restored.RestoreCount(3, 1));
  EXPECT_TRUE(restored.RestoreCount(5007, 1));
  EXPECT_TRUE(restored.RestoreCount(6007, 1));
  EXPECT_EQ(restored.Percentile(0.01), 3u);
  EXPECT_EQ(restored.Percentile(0.5), 5007u);
  EXPECT_EQ(restored.Percentile(1.0), 6000u);
  EXPECT_EQ(restored.min(), 3u);
  EXPECT_EQ(restored.sum(), 11003u);

  // An `le` that is no bucket's upper bound is rejected untouched.
  EXPECT_FALSE(restored.RestoreCount(5000, 9));
  EXPECT_EQ(restored.bucket(LatencyHistogram::IndexFor(5000)), 1u);
}

// Golden test for the Prometheus text exposition (format v0.0.4): names
// sanitized under a cruz_ prefix, one # TYPE line per metric, one
// cumulative histogram bucket line per non-empty bucket, then +Inf /
// _sum / _count, then synthesized quantile lines for non-empty
// histograms. Byte-exact so scrapers can rely on the rendering.
TEST(Metrics, PrometheusExpositionGolden) {
  MetricsRegistry m;
  m.counter("agent.save-errors").Add(1);  // '-' must sanitize to '_'
  m.counter("coord.ops_total").Add(5);
  m.gauge("ckpt.codec_ratio").Set(0.5);
  LatencyHistogram& h = m.histogram("coord.downtime_us");
  h.Record(3);
  h.Record(5);
  h.Record(100);
  h.Record(5000);  // bucket upper bound 5007
  m.histogram("zz.empty");  // no samples: summary lines only

  const char* golden =
      "# TYPE cruz_agent_save_errors counter\n"
      "cruz_agent_save_errors 1\n"
      "# TYPE cruz_coord_ops_total counter\n"
      "cruz_coord_ops_total 5\n"
      "# TYPE cruz_ckpt_codec_ratio gauge\n"
      "cruz_ckpt_codec_ratio 0.5\n"
      "# TYPE cruz_coord_downtime_us histogram\n"
      "cruz_coord_downtime_us_bucket{le=\"3\"} 1\n"
      "cruz_coord_downtime_us_bucket{le=\"5\"} 2\n"
      "cruz_coord_downtime_us_bucket{le=\"100\"} 3\n"
      "cruz_coord_downtime_us_bucket{le=\"5007\"} 4\n"
      "cruz_coord_downtime_us_bucket{le=\"+Inf\"} 4\n"
      "cruz_coord_downtime_us_sum 5108\n"
      "cruz_coord_downtime_us_count 4\n"
      "cruz_coord_downtime_us{quantile=\"0.5\"} 5\n"
      "cruz_coord_downtime_us{quantile=\"0.9\"} 5000\n"
      "cruz_coord_downtime_us{quantile=\"0.99\"} 5000\n"
      "cruz_coord_downtime_us{quantile=\"0.999\"} 5000\n"
      "# TYPE cruz_zz_empty histogram\n"
      "cruz_zz_empty_bucket{le=\"+Inf\"} 0\n"
      "cruz_zz_empty_sum 0\n"
      "cruz_zz_empty_count 0\n";
  EXPECT_EQ(m.ExportPrometheus(), golden);
}

TEST(Metrics, DumpsAreSortedAndReset) {
  MetricsRegistry m;
  m.counter("z.last").Add(2);
  m.counter("a.first").Add(1);
  m.histogram("h.lat").Record(10);
  std::string dump = m.TextDump();
  EXPECT_LT(dump.find("a.first"), dump.find("z.last"));
  EXPECT_NE(dump.find("h.lat_count 1"), std::string::npos);
  std::string json = m.ExportJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"a.first\":1"), std::string::npos);
  m.Reset();
  EXPECT_EQ(m.counter("a.first").value(), 0u);
  EXPECT_EQ(m.histogram("h.lat").count(), 0u);
}

// Builds a small timeline for query tests:
//   t=10..50  span  coord/coord.phase.freeze   op=1
//   t=20      inst  agent/agent.save           op=1 agent=n0 (as instant)
//   t=60..90  span  coord/coord.phase.commit   op=1
//   t=70      inst  tcp/tcp.rto
//   t=95      inst  tcp/tcp.rto
struct QueryFixture {
  ClockedTracer t;

  QueryFixture() {
    Tracer& tr = t.tracer;
    t.now = 10;
    SpanId freeze = tr.BeginSpan("coord", "coord.phase.freeze",
                                 TraceAttrs{}.Op(1).Phase("freeze"));
    t.now = 20;
    tr.Instant("agent", "agent.save", TraceAttrs{}.Op(1).Agent("n0"));
    t.now = 50;
    tr.EndSpan(freeze);
    t.now = 60;
    SpanId commit = tr.BeginSpan("coord", "coord.phase.commit",
                                 TraceAttrs{}.Op(1).Phase("commit"));
    t.now = 70;
    tr.Instant("tcp", "tcp.rto");
    t.now = 90;
    tr.EndSpan(commit);
    t.now = 95;
    tr.Instant("tcp", "tcp.rto");
  }
};

TEST(TraceQuery, FiltersAndOrdering) {
  QueryFixture f;
  TraceQuery q(f.t.tracer);
  // Events come back sorted by begin time, not completion order: the
  // freeze span (begun at 10, completed at 50) precedes the save instant.
  ASSERT_EQ(q.events().size(), 5u);
  EXPECT_EQ(q.events()[0].name, "coord.phase.freeze");
  EXPECT_EQ(q.events()[1].name, "agent.save");

  EXPECT_EQ(q.Count(TraceQuery::Filter{}.Category("coord")), 2u);
  EXPECT_EQ(q.Count(TraceQuery::Filter{}.Op(1)), 3u);
  EXPECT_EQ(q.Count(TraceQuery::Filter{}.Agent("n0")), 1u);
  EXPECT_EQ(q.Named("tcp.rto").size(), 2u);
  EXPECT_EQ(q.Count(TraceQuery::Filter{}.Name("nope")), 0u);
}

TEST(TraceQuery, FirstLastAndWindows) {
  QueryFixture f;
  TraceQuery q(f.t.tracer);
  const TraceEvent* first = q.First(TraceQuery::Filter{}.Name("tcp.rto"));
  const TraceEvent* last = q.Last(TraceQuery::Filter{}.Name("tcp.rto"));
  ASSERT_NE(first, nullptr);
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(first->ts, 70u);
  EXPECT_EQ(last->ts, 95u);
  EXPECT_EQ(q.First(TraceQuery::Filter{}.Name("nope")), nullptr);

  // CountBetween is inclusive on both ends.
  TraceQuery::Filter rto = TraceQuery::Filter{}.Name("tcp.rto");
  EXPECT_EQ(q.CountBetween(rto, 70, 95), 2u);
  EXPECT_EQ(q.CountBetween(rto, 71, 94), 0u);

  EXPECT_EQ(q.MaxDuration(TraceQuery::Filter{}.Category("coord")), 40u);
  EXPECT_EQ(q.MaxDuration(TraceQuery::Filter{}.Name("nope")), 0u);
}

TEST(TraceQuery, WithinChecksFullContainment) {
  QueryFixture f;
  TraceQuery q(f.t.tracer);
  const TraceEvent* freeze =
      q.First(TraceQuery::Filter{}.Name("coord.phase.freeze"));
  const TraceEvent* commit =
      q.First(TraceQuery::Filter{}.Name("coord.phase.commit"));
  const TraceEvent* save = q.First(TraceQuery::Filter{}.Name("agent.save"));
  ASSERT_NE(freeze, nullptr);
  ASSERT_NE(commit, nullptr);
  ASSERT_NE(save, nullptr);
  EXPECT_TRUE(TraceQuery::Within(*save, *freeze));
  EXPECT_FALSE(TraceQuery::Within(*save, *commit));
  EXPECT_FALSE(TraceQuery::Within(*commit, *freeze));
}

}  // namespace
}  // namespace cruz::obs
