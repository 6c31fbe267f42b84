#include "obs/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>

namespace cruz::obs {

void AppendJsonString(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

namespace {

// Nanoseconds rendered as microseconds with exactly three decimals:
// integer formatting only, so the output is byte-stable.
void AppendMicros(std::string& out, TimeNs ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64 ".%03" PRIu64, ns / 1000,
                ns % 1000);
  out += buf;
}

// The typed attributes plus free-form args as one JSON object.
void AppendArgs(std::string& out, const TraceAttrs& a) {
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

}  // namespace

SpanId Tracer::BeginSpan(std::string category, std::string name,
                         TraceAttrs attrs) {
  if (!enabled_) return kInvalidSpanId;
  SpanId id = next_span_id_++;
  open_[id] = OpenSpan{NowNs(), std::move(category), std::move(name),
                       std::move(attrs)};
  return id;
}

void Tracer::EndSpan(SpanId id) { EndSpan(id, {}); }

void Tracer::EndSpan(
    SpanId id, std::vector<std::pair<std::string, std::string>> extra_args) {
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

void Tracer::Instant(std::string category, std::string name,
                     TraceAttrs attrs) {
  if (!enabled_) return;
  TraceEvent event;
  event.kind = EventKind::kInstant;
  event.ts = NowNs();
  event.category = std::move(category);
  event.name = std::move(name);
  event.attrs = std::move(attrs);
  Push(std::move(event));
}

void Tracer::Push(TraceEvent event) {
  event.seq = next_seq_++;
  events_.push_back(std::move(event));
  while (events_.size() > capacity_) {
    events_.pop_front();
    ++dropped_;
  }
}

void Tracer::Clear() {
  events_.clear();
  open_.clear();
  dropped_ = 0;
  next_seq_ = 0;
}

std::string Tracer::ExportChromeJson() const {
  // Thread ids per distinct agent, in first-seen order; tid 1 is the
  // coordinator / unattributed track.
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
  // Thread-name metadata so the per-agent tracks are labeled.
  for (std::size_t i = 0; i < tid_names.size(); ++i) {
    if (!first) out += ',';
    first = false;
    out += "\n{\"ph\":\"M\",\"pid\":1,\"tid\":" +
           std::to_string(i + 2) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":";
    AppendJsonString(out, tid_names[i]);
    out += "}}";
  }
  out += "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":\"" +
         std::to_string(dropped_) + "\"}}\n";
  return out;
}

void AppendJsonlEvent(std::string& out, const TraceEvent& e) {
  out += "{\"kind\":\"";
  out += e.kind == EventKind::kSpan ? "span" : "instant";
  out += "\",\"ts_ns\":" + std::to_string(e.ts);
  if (e.kind == EventKind::kSpan) {
    out += ",\"dur_ns\":" + std::to_string(e.dur);
  }
  // The emission sequence rides along so re-imported streams keep the
  // deterministic same-timestamp tiebreak (causal analysis needs a total
  // order that is stable across runs of the same seed).
  out += ",\"seq\":" + std::to_string(e.seq);
  out += ",\"cat\":";
  AppendJsonString(out, e.category);
  out += ",\"name\":";
  AppendJsonString(out, e.name);
  out += ",\"args\":";
  AppendArgs(out, e.attrs);
  out += '}';
}

std::string Tracer::ExportJsonl() const {
  std::string out;
  for (const TraceEvent& e : events_) {
    AppendJsonlEvent(out, e);
    out += '\n';
  }
  return out;
}

}  // namespace cruz::obs
