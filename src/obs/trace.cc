#include "obs/trace.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <utility>

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

// Byte-area encoding: LEB128 varints for lengths and key ids.
void PutVarint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out += static_cast<char>(v | 0x80);
    v >>= 7;
  }
  out += static_cast<char>(v);
}

void PutBytes(std::string& out, std::string_view b) {
  PutVarint(out, b.size());
  out += b;
}

// Reads a byte area written by PutVarint/PutBytes.
struct Cursor {
  const char* p;
  const char* end;

  bool done() const { return p == end; }
  std::uint64_t Varint() {
    std::uint64_t v = 0;
    for (int shift = 0;; shift += 7) {
      auto b = static_cast<unsigned char>(*p++);
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if (b < 0x80) return v;
    }
  }
  std::string_view Bytes() {
    std::size_t n = Varint();
    std::string_view b(p, n);
    p += n;
    return b;
  }
};

}  // namespace

void Tracer::Record::SetBytes(std::string_view b) {
  len = static_cast<std::uint32_t>(b.size());
  char* dst = inline_bytes;
  if (b.size() > kInlineBytes) {
    if (b.size() > overflow_cap) {
      // Rounded up so a slot reused by a slightly longer event keeps
      // its buffer.
      overflow_cap = static_cast<std::uint32_t>((b.size() + 63) & ~63u);
      overflow.reset(new char[overflow_cap]);
    }
    dst = overflow.get();
  }
  std::memcpy(dst, b.data(), b.size());
}

Tracer::NameId Tracer::Intern(std::string_view s) {
  if (s.empty()) return 0;
  auto it = ids_.find(s);
  if (it != ids_.end()) return it->second;
  auto id = static_cast<NameId>(names_.size());
  names_.emplace_back(s);
  ids_.emplace(names_.back(), id);
  return id;
}

void Tracer::EncodeAttrs(const TraceAttrs& attrs) {
  staging_.clear();
  PutBytes(staging_, attrs.conn);
  EncodeArgs(attrs.args);
}

void Tracer::EncodeArgs(
    const std::vector<std::pair<std::string, std::string>>& args) {
  for (const auto& [key, value] : args) {
    PutVarint(staging_, Intern(key));
    PutBytes(staging_, value);
  }
}

Tracer::Record* Tracer::Append() {
  view_fresh_ = false;
  ++next_seq_;
  if (capacity_ == 0) {  // every event is dropped as it completes
    dropped_ += size_ + 1;
    head_ = size_ = 0;
    return nullptr;
  }
  if (size_ == ring_.size() && size_ < capacity_) {
    // Full chunks but room to grow: rotate the oldest event to slot 0
    // (only after a capacity raise on a wrapped ring) and add a chunk.
    auto swap_range = [&](std::size_t lo, std::size_t hi) {
      while (lo + 1 < hi) std::swap(ring_[lo++], ring_[--hi]);
    };
    if (head_ != 0) {
      swap_range(0, head_);
      swap_range(head_, size_);
      swap_range(0, size_);
      head_ = 0;
    }
    ring_.Grow();
  }
  Record* slot;
  if (size_ < ring_.size()) {
    std::size_t p = head_ + size_;
    slot = &ring_[p >= ring_.size() ? p - ring_.size() : p];
    ++size_;
  } else {  // full: the new event takes the oldest one's slot
    slot = &ring_[head_];
    if (++head_ == ring_.size()) head_ = 0;
    ++dropped_;
  }
  while (size_ > capacity_) {  // after a capacity shrink
    if (++head_ == ring_.size()) head_ = 0;
    --size_;
    ++dropped_;
  }
  return slot;
}

SpanId Tracer::BeginSpan(std::string_view category, std::string_view name,
                         const TraceAttrs& attrs) {
  if (!enabled_) return kInvalidSpanId;
  if (free_open_.empty()) {
    std::size_t first = open_.size();
    open_.Grow();
    open_ids_.resize(open_.size(), kInvalidSpanId);
    for (std::size_t i = open_.size(); i-- > first;) {
      free_open_.push_back(static_cast<std::uint32_t>(i));
    }
  }
  std::uint32_t index = free_open_.back();
  free_open_.pop_back();
  SpanId id = next_span_serial_++ << 32 | index;
  open_ids_[index] = id;
  Record& r = open_[index];
  r.kind = EventKind::kSpan;
  r.ts = NowNs();
  r.category = Intern(category);
  r.name = Intern(name);
  r.op = attrs.op;
  r.phase = Intern(attrs.phase);
  r.agent = Intern(attrs.agent);
  r.pod = attrs.pod;
  EncodeAttrs(attrs);
  r.SetBytes(staging_);
  return id;
}

void Tracer::EndSpan(
    SpanId id,
    const std::vector<std::pair<std::string, std::string>>& extra_args) {
  auto index = static_cast<std::uint32_t>(id);
  if (id == kInvalidSpanId || index >= open_ids_.size() ||
      open_ids_[index] != id) {
    return;
  }
  open_ids_[index] = kInvalidSpanId;
  free_open_.push_back(index);
  if (!enabled_) return;
  const Record& span = open_[index];
  std::string_view bytes = span.bytes();
  if (!extra_args.empty()) {
    staging_.assign(bytes);
    EncodeArgs(extra_args);
    bytes = staging_;
  }
  Record* r = Append();
  if (r == nullptr) return;
  r->kind = EventKind::kSpan;
  r->ts = span.ts;
  r->dur = NowNs() - span.ts;
  r->category = span.category;
  r->name = span.name;
  r->op = span.op;
  r->phase = span.phase;
  r->agent = span.agent;
  r->pod = span.pod;
  r->SetBytes(bytes);
}

void Tracer::Instant(std::string_view category, std::string_view name,
                     const TraceAttrs& attrs) {
  if (!enabled_) return;
  Record* r = Append();
  if (r == nullptr) return;
  r->kind = EventKind::kInstant;
  r->ts = NowNs();
  r->dur = 0;
  r->category = Intern(category);
  r->name = Intern(name);
  r->op = attrs.op;
  r->phase = Intern(attrs.phase);
  r->agent = Intern(attrs.agent);
  r->pod = attrs.pod;
  EncodeAttrs(attrs);
  r->SetBytes(staging_);
}

void Tracer::Clear() {
  view_fresh_ = false;
  std::deque<TraceEvent>().swap(view_);
  head_ = size_ = 0;
  dropped_ = 0;
  next_seq_ = 0;
  free_open_.clear();
  for (std::size_t i = open_ids_.size(); i-- > 0;) {
    open_ids_[i] = kInvalidSpanId;
    free_open_.push_back(static_cast<std::uint32_t>(i));
  }
}

const std::deque<TraceEvent>& Tracer::events() const {
  if (!view_fresh_) {
    view_.clear();
    for (std::size_t i = 0; i < size_; ++i) {
      const Record& r = At(i);
      std::string_view b = r.bytes();
      Cursor c{b.data(), b.data() + b.size()};
      TraceEvent& e = view_.emplace_back();
      e.kind = r.kind;
      e.ts = r.ts;
      e.dur = r.dur;
      e.seq = next_seq_ - size_ + i;
      e.category = Name(r.category);
      e.name = Name(r.name);
      e.attrs.op = r.op;
      e.attrs.phase = Name(r.phase);
      e.attrs.agent = Name(r.agent);
      e.attrs.pod = r.pod;
      e.attrs.conn = c.Bytes();
      while (!c.done()) {
        std::string_view key = Name(static_cast<NameId>(c.Varint()));
        e.attrs.args.emplace_back(key, c.Bytes());
      }
    }
    view_fresh_ = true;
  }
  return view_;
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
  for (const TraceEvent& e : events()) {
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
  for (const TraceEvent& e : events()) {
    AppendJsonlEvent(out, e);
    out += '\n';
  }
  return out;
}

}  // namespace cruz::obs
