// Benchmark-side span log for the traced run.
//
// Spans are recorded by cruzbench around its own calls into each layer's
// public API (the program itself is not instrumented here). Each span
// keeps its name, wall-clock start/end, thread-CPU start/end and the id
// of the enclosing span; spans stay in memory and are written once, as
// JSONL, when the run ends. A layer's self time is its span's thread-CPU
// minus the thread-CPU of its direct children.
#pragma once

#include <time.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace cruzbench {

inline std::int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

inline std::int64_t WallNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

struct Span {
  std::string name;
  int parent = -1;  // index into SpanLog::spans(), -1 = root
  std::int64_t wall_start = 0, wall_end = 0;
  std::int64_t cpu_start = 0, cpu_end = 0;
  std::int64_t cpu() const { return cpu_end - cpu_start; }
};

class SpanLog {
 public:
  // Closes its span when it goes out of scope; inert when the log is off.
  class Scope {
   public:
    Scope(SpanLog* log, int id) : log_(log), id_(id) {}
    ~Scope() {
      if (log_ != nullptr) log_->Close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int id_;
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }

  Scope Open(const char* name) {
    if (!enabled_) return Scope(nullptr, -1);
    Span s;
    s.name = name;
    s.parent = open_;
    s.wall_start = WallNs();
    s.cpu_start = ThreadCpuNs();
    spans_.push_back(std::move(s));
    open_ = static_cast<int>(spans_.size()) - 1;
    return Scope(this, open_);
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Self thread-CPU per span (span minus its direct children).
  std::vector<std::int64_t> SelfCpu() const {
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].cpu();
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.cpu();
    }
    return self;
  }

  bool WriteJsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"parent\":%d,\"name\":\"%s\","
                   "\"start_ns\":%lld,\"end_ns\":%lld,\"cpu_ns\":%lld}\n",
                   i, s.parent, s.name.c_str(),
                   static_cast<long long>(s.wall_start),
                   static_cast<long long>(s.wall_end),
                   static_cast<long long>(s.cpu()));
    }
    return std::fclose(f) == 0;
  }

 private:
  void Close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.cpu_end = ThreadCpuNs();
    s.wall_end = WallNs();
    open_ = s.parent;
  }

  bool enabled_ = false;
  int open_ = -1;
  std::vector<Span> spans_;
};

}  // namespace cruzbench
