// cruzbench — the repo benchmark (see README.md next to this file).
//
//   cruzbench --workload <slm_ckpt|kv_slo|coord_scale> --seed <n>
//             --seconds <s> --trace <0|1> [--spans <path.jsonl>]
//
// Set-up (cluster construction, pod population, warm-up) runs several
// times and its median thread-CPU time is setup_s. Then the workload's
// cycles run for about --seconds of wall time. Host time is the thread
// CPU time of each cycle (the simulator is single-threaded), and
// run_s = median cycle CPU x window cycles, the host cost of the
// simulated window every sim-time metric describes. Both are reported in
// reference seconds (see kReferenceSeconds). Sim-time metrics come
// from the first window cycles only, so they are a pure function of the
// seed. Every operation is checked; any failure makes the exit status 1.
//
// With --trace 1 every other pair of cycles carries benchmark-side spans
// and the run prints the per-layer metrics instead of the end-to-end
// ones; the other cycles run without spans, and the difference of the
// two medians is the tracing overhead.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <memory_resource>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ckpt/image.h"
#include "common/crc32.h"
#include "obs/causal/causal_graph.h"
#include "obs/causal/critical_path.h"
#include "spans.h"
#include "workloads.h"

namespace cruzbench {
namespace {

using namespace cruz;

constexpr int kSetupRuns = 5;
constexpr std::size_t kMinCycles = 7;
constexpr std::size_t kMaxCycles = 2000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (key == "--spans") {
      args.spans_path = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <typename T, typename F>
double Mean(const std::vector<T>& v, F f) {
  if (v.empty()) return 0;
  double sum = 0;
  for (const T& x : v) sum += f(x);
  return sum / static_cast<double>(v.size());
}

double Ms(DurationNs d) { return static_cast<double>(d) / 1e6; }

// Times `op` repeatedly (at least 3 times and 20 ms) and returns the
// median seconds per call.
template <typename F>
double TimeMedian(F op) {
  std::vector<double> samples;
  double total = 0;
  while (samples.size() < 3 || (total < 0.02 && samples.size() < 1000)) {
    std::int64_t t0 = ThreadCpuNs();
    op();
    double s = static_cast<double>(ThreadCpuNs() - t0) / 1e9;
    samples.push_back(s);
    total += s;
  }
  return Median(samples);
}

// Fixed host work used as a yardstick for the machine's current speed:
// allocation, ordered-map and hash-map traffic and byte copies, the kinds
// of work the simulator's hot paths do. It is benchmark code, so no change
// to the program moves it, and it allocates only from its own arena, so
// the program's heap state does not move it either. Returns its
// thread-CPU seconds.
double ReferencePass() {
  // Left uninitialised: only the pages the kernel touches count in RSS.
  constexpr std::size_t kArena = 16 << 20, kCopy = 4 << 20;
  static const std::unique_ptr<std::uint8_t[]> arena(new std::uint8_t[kArena]);
  static std::vector<std::uint8_t> from(kCopy, 1), to(kCopy);
  std::pmr::monotonic_buffer_resource upstream(arena.get(), kArena);
  std::pmr::unsynchronized_pool_resource pool(&upstream);
  std::pmr::map<std::uint64_t, std::pmr::vector<std::uint8_t>> tree(&pool);
  std::pmr::unordered_map<std::uint64_t, std::uint64_t> hash(&pool);
  std::uint64_t x = 1, sum = 0;
  std::int64_t t0 = ThreadCpuNs();
  for (int i = 0; i < 60000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    std::pmr::vector<std::uint8_t>& v = tree[(x >> 20) % 4096];
    v.assign(64 + (x >> 40) % 512, static_cast<std::uint8_t>(x));
    hash[(x >> 12) % 8192] += v.size();
    if (i % 3 == 0) tree.erase(tree.begin());
    sum += v[v.size() / 2];
  }
  for (int i = 0; i < 4; ++i) {
    std::memcpy(to.data(), from.data(), from.size());
    sum += to[static_cast<std::size_t>(i) << 20];
  }
  // Dependent random reads over 16 MiB: cache-miss latency, which the
  // large clusters' scattered heaps pay on every event.
  static std::vector<std::uint32_t> chase = [] {
    std::vector<std::uint32_t> v(4 << 20);
    std::uint64_t y = 7;
    for (std::size_t j = 0; j < v.size(); ++j) {
      y = y * 6364136223846793005ull + 1442695040888963407ull;
      v[j] = static_cast<std::uint32_t>((y >> 33) % v.size());
    }
    return v;
  }();
  std::uint32_t at = static_cast<std::uint32_t>(x % chase.size());
  for (int i = 0; i < 100000; ++i) at = chase[at];
  sum += at;
  static volatile std::uint64_t sink;
  sink = sum + hash.size();
  return static_cast<double>(ThreadCpuNs() - t0) / 1e9;
}

// The machine's speed right now: the second of two reference passes (the
// first refills caches the previous phase evicted).
double ReferenceKernel() {
  ReferencePass();
  return ReferencePass();
}

// Host times are reported in reference seconds: measured CPU time divided
// by the adjacent reference-kernel time, times the kernel's CPU time on
// the 4-vCPU VM the bounds were tuned on. Other tenants of a shared host
// slow the whole process for minutes at a time (±15% between runs); the
// ratio cancels that drift while any change to the program still moves it.
constexpr double kReferenceSeconds = 0.024;

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string clock;  // host | sim | count
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit,
           std::string clock) {
    metrics_.push_back(
        {std::move(name), value, std::move(unit), std::move(clock)});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

// Cluster-wide counters, sampled at the edges of the sim window.
struct Counters {
  std::map<std::string, std::uint64_t> registry;
  std::uint64_t events = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t dropped = 0;
  std::uint64_t filtered = 0;

  static Counters Sample(Cluster& c) {
    Counters out;
    for (const auto& [name, counter] : c.sim().metrics().counters()) {
      out.registry[name] = counter.value();
    }
    out.events = c.sim().events_executed();
    out.forwarded = c.ethernet().forwarded_frames();
    out.dropped = c.ethernet().dropped_frames();
    for (std::size_t i = 0; i < c.num_nodes(); ++i) {
      out.filtered += c.node(i).stack().filtered_packets();
    }
    out.filtered += c.coordinator_node().stack().filtered_packets();
    return out;
  }
  std::uint64_t Registry(const std::string& name) const {
    auto it = registry.find(name);
    return it == registry.end() ? 0 : it->second;
  }
};

// Per-layer numbers the traced run derives from the program's own trace
// ring (cleared before each cycle so it holds the whole cycle).
struct TraceWindow {
  std::uint64_t events = 0;
  std::uint64_t dropped = 0;
  std::uint64_t fast_retransmits = 0;
  std::vector<double> causal_ms;
  std::vector<obs::causal::OpBreakdown> checkpoint_ops;
  std::uint64_t analysis_failures = 0;
};

void AnalyzeCycle(Cluster& c, const SimWindow& window, std::size_t cycle,
                  TraceWindow& tw) {
  const obs::Tracer& tracer = c.sim().tracer();
  tw.events += tracer.events().size();
  tw.dropped += tracer.dropped();
  for (const obs::TraceEvent& e : tracer.events()) {
    if (e.name == "tcp.fast_retransmit") ++tw.fast_retransmits;
  }
  std::int64_t t0 = ThreadCpuNs();
  obs::causal::CausalGraph graph = obs::causal::CausalGraph::Build(
      std::vector<obs::TraceEvent>(tracer.events().begin(),
                                   tracer.events().end()));
  obs::causal::CriticalPathAnalyzer analyzer(graph);
  std::optional<obs::causal::OpBreakdown> b;
  if (cycle < window.checkpoints.size()) {
    b = analyzer.AnalyzeOp(window.checkpoints[cycle].op_id);
  }
  tw.causal_ms.push_back(static_cast<double>(ThreadCpuNs() - t0) / 1e6);
  if (!b.has_value() || graph.stats().mis_joins != 0) {
    ++tw.analysis_failures;
    return;
  }
  DurationNs tiled = 0;
  for (const obs::causal::PhaseTotal& p : b->phases) tiled += p.total;
  if (tiled != b->wall()) ++tw.analysis_failures;
  tw.checkpoint_ops.push_back(*b);
}

// Host-side layer probes, run once after the cycles on the workload's own
// state: timed os::Memory accessors over its largest process and the
// checkpoint codec over its latest image.
void ProbeLayers(Workload& w, Report& r, Tally& tally) {
  os::Process* proc = w.ProbeProcess();
  double read_ns = 0, write_ns = 0, snapshot_us = 0, resident = 0;
  if (proc != nullptr) {
    os::Memory& mem = proc->memory();
    std::vector<std::uint64_t> addrs;
    for (const auto& [index, page] : mem.pages()) {
      for (std::uint64_t off = 0; off < os::kPageSize; off += 8) {
        addrs.push_back((index << os::kPageShift) + off);
      }
    }
    std::vector<double> values(addrs.size());
    double words = static_cast<double>(std::max<std::size_t>(addrs.size(), 1));
    read_ns = TimeMedian([&] {
                for (std::size_t i = 0; i < addrs.size(); ++i) {
                  values[i] = mem.ReadF64(addrs[i]);
                }
              }) * 1e9 / words;
    write_ns = TimeMedian([&] {
                 for (std::size_t i = 0; i < addrs.size(); ++i) {
                   mem.WriteF64(addrs[i], values[i]);
                 }
               }) * 1e9 / words;
    snapshot_us = TimeMedian([&] { (void)mem.Snapshot(); }) * 1e6;
    resident = static_cast<double>(mem.PageCount());
  }
  tally.Op(proc != nullptr, "probe process missing");
  r.Add("os.memory.read_ns", read_ns, "ns", "host");
  r.Add("os.memory.write_ns", write_ns, "ns", "host");
  r.Add("os.memory.snapshot_us", snapshot_us, "us", "host");
  r.Add("os.memory.resident_pages", resident, "count", "count");

  Bytes image;
  double encode = 0, decode = 0, crc = 0, ratio = 0;
  bool image_ok = w.ProbeImage(image);
  if (image_ok) {
    ckpt::PodCheckpoint pod = ckpt::PodCheckpoint::Deserialize(image);
    double state_mb = static_cast<double>(pod.StateBytes()) / 1e6;
    double image_mb = static_cast<double>(image.size()) / 1e6;
    encode = state_mb / TimeMedian([&] { (void)pod.Serialize(w.compress()); });
    decode = state_mb /
             TimeMedian([&] { (void)ckpt::PodCheckpoint::Deserialize(image); });
    crc = image_mb / TimeMedian([&] { (void)Crc32(image); });
    ratio = static_cast<double>(pod.StateBytes()) /
            static_cast<double>(image.size());
    image_ok = pod.Serialize(w.compress()) == image;
  }
  tally.Op(image_ok, "latest image unreadable or re-encodes differently");
  r.Add("ckpt.encode_mb_s", encode, "MB/s", "host");
  r.Add("ckpt.decode_mb_s", decode, "MB/s", "host");
  r.Add("ckpt.crc_mb_s", crc, "MB/s", "host");
  r.Add("ckpt.image_bytes", static_cast<double>(image.size()), "bytes",
        "count");
  r.Add("ckpt.codec_ratio", ratio, "ratio", "count");
}

void PrintReport(const Report& r) {
  for (const Metric& m : r.metrics()) {
    std::printf("  %-28s %22.17g %-6s [%s]\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.clock.c_str());
  }
}

int Run(const Args& args) {
  if (MakeWorkload(args.workload, args.seed) == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Tally tally;

  // --- set-up, repeated; the last instance runs the cycles ---------------
  std::vector<double> setup_s, setup_raw, ctor_ms, spawn_ms, warm_ms;
  std::unique_ptr<Workload> w;
  for (int i = 0; i < kSetupRuns; ++i) {
    w.reset();
    w = MakeWorkload(args.workload, args.seed);
    const double ref = ReferenceKernel();
    std::int64_t t0 = ThreadCpuNs();
    w->Construct();
    std::int64_t t1 = ThreadCpuNs();
    w->Populate();
    std::int64_t t2 = ThreadCpuNs();
    w->WarmUp();
    {
      // One unmeasured cycle: ARP caches, connections and first-use
      // allocations are in place before the first measured cycle.
      SpanLog off;
      w->Cycle(off, /*record=*/false, tally);
    }
    std::int64_t t3 = ThreadCpuNs();
    w->Check(tally);
    setup_raw.push_back(static_cast<double>(t3 - t0) / 1e9);
    setup_s.push_back(setup_raw.back() / ref * kReferenceSeconds);
    ctor_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    spawn_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
    warm_ms.push_back(static_cast<double>(t3 - t2) / 1e6);
  }
  Cluster& c = w->cluster();
  if (args.trace) {
    // Room for a whole cycle; the ring is cleared before every cycle.
    c.sim().tracer().set_capacity(1u << 21);
  }

  // --- cycles ---------------------------------------------------------
  const std::size_t window = w->window_cycles();
  SpanLog spans;
  std::vector<double> plain_cpu, traced_cpu, ref_cpu, ratio;
  std::vector<double> ns_per_event, us_per_iter;
  std::vector<std::map<std::string, std::int64_t>> traced_self;
  std::vector<double> traced_root_cpu;
  Counters before, after;
  TraceWindow tw;
  double peak_rss_mb = 0;
  const std::int64_t deadline =
      WallNs() + static_cast<std::int64_t>(args.seconds * 1e9);
  for (std::size_t i = 0; i < kMaxCycles; ++i) {
    if (i >= std::max(kMinCycles, window) && WallNs() >= deadline) break;
    const bool record = i < window;
    // Pairs of cycles alternate, so cycle parity (kv_slo migrates in
    // alternating directions) does not bias the overhead estimate.
    const bool traced = args.trace && ((i + 1) / 2) % 2 == 1;
    if (i == 0) before = Counters::Sample(c);
    if (args.trace) c.sim().tracer().Clear();
    spans.set_enabled(traced);
    const std::size_t first_span = spans.spans().size();
    const std::uint64_t events0 = c.sim().events_executed();

    ref_cpu.push_back(ReferenceKernel());
    std::int64_t t0 = ThreadCpuNs();
    {
      auto root = spans.Open("cycle");
      w->Cycle(spans, record, tally);
    }
    double cpu = static_cast<double>(ThreadCpuNs() - t0) / 1e9;

    const std::uint64_t events = c.sim().events_executed() - events0;
    (traced ? traced_cpu : plain_cpu).push_back(cpu);
    if (!traced) ratio.push_back(cpu / ref_cpu.back());
    if (i + 1 == window) {
      // Peak memory after a fixed amount of work, not after however many
      // cycles fit into --seconds.
      rusage ru{};
      getrusage(RUSAGE_SELF, &ru);
      peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    }
    if (!traced && events > 0) {
      ns_per_event.push_back(cpu * 1e9 / static_cast<double>(events));
    }
    if (traced) {
      std::map<std::string, std::int64_t> self;
      std::vector<std::int64_t> all = spans.SelfCpu();
      for (std::size_t s = first_span; s < spans.spans().size(); ++s) {
        self[spans.spans()[s].name] += all[s];
      }
      if (w->last_cycle_iterations() > 0) {
        us_per_iter.push_back(
            static_cast<double>(self["sim.run"]) / 1e3 /
            static_cast<double>(w->last_cycle_iterations()));
      }
      traced_self.push_back(std::move(self));
      traced_root_cpu.push_back(cpu);
    }
    if (i + 1 == window) after = Counters::Sample(c);
    if (args.trace && record) AnalyzeCycle(c, w->window, i, tw);
    w->Check(tally);
  }
  const std::size_t cycles = plain_cpu.size() + traced_cpu.size();
  const SimWindow& sw = w->window;
  tally.Op(sw.checkpoints.size() == window, "sim window incomplete");

  // --- metrics ---------------------------------------------------------
  using OpStats = coord::Coordinator::OpStats;
  const double k = static_cast<double>(window);
  const double run_s = Median(ratio) * kReferenceSeconds * k;

  Report e2e;
  e2e.Add("setup_s", Median(setup_s), "s", "host");
  e2e.Add("run_s", run_s, "s", "host");
  e2e.Add("peak_rss_mb", peak_rss_mb, "MB", "host");
  e2e.Add("ckpt_latency_ms",
          Mean(sw.checkpoints,
               [](const OpStats& s) { return Ms(s.checkpoint_latency); }),
          "ms", "sim");
  e2e.Add("ckpt_downtime_ms",
          Mean(sw.checkpoints,
               [](const OpStats& s) { return Ms(s.max_downtime); }),
          "ms", "sim");
  const double msgs_per_op = Mean(sw.checkpoints, [](const OpStats& s) {
    return static_cast<double>(s.total_messages);
  });
  e2e.Add("coord_msgs_per_op", msgs_per_op, "count", "count");

  // Workload-specific outcomes: measured wherever the workload has the
  // mechanism, 0 where it has none.
  const double restart_ms = Mean(
      sw.restarts, [](const OpStats& s) { return Ms(s.full_latency); });
  const double migrate_downtime_ms =
      Mean(sw.migrations,
           [](const ckpt::LiveMigrateStats& s) { return Ms(s.downtime); });
  const std::uint64_t samples = sw.latency.count();
  const std::uint64_t beyond_p999 =
      samples - static_cast<std::uint64_t>(
                    std::ceil(0.999 * static_cast<double>(samples)));
  auto percentile_ms = [&](double q) {
    return samples ? Ms(static_cast<DurationNs>(sw.latency.Percentile(q)))
                   : 0.0;
  };
  const double p50_ms = percentile_ms(0.5);
  const double p999_ms = percentile_ms(0.999);
  Report specific;
  specific.Add("restart_latency_ms", restart_ms, "ms", "sim");
  specific.Add("migrate_downtime_ms", migrate_downtime_ms, "ms", "sim");
  specific.Add("client_p50_ms", p50_ms, "ms", "sim");
  specific.Add("client_p999_ms", p999_ms, "ms", "sim");
  specific.Add("client_samples", static_cast<double>(samples), "count",
               "count");
  specific.Add("client_beyond_p999", static_cast<double>(beyond_p999),
               "count", "count");
  if (samples > 0 && beyond_p999 < 10) {
    tally.Op(false, "fewer than 10 samples beyond p999");
  }

  Report layers;
  if (args.trace) {
    // Span-derived host times (traced cycles).
    auto span_ms = [&](const char* name) {
      std::vector<double> v;
      for (const auto& self : traced_self) {
        auto it = self.find(name);
        v.push_back(it == self.end() ? 0 : static_cast<double>(it->second) / 1e6);
      }
      return Median(v);
    };
    ProbeLayers(*w, layers, tally);
    layers.Add("os.memory.cow_faults", static_cast<double>(sw.cow_faults),
               "count", "count");
    layers.Add("apps.slm.iters_per_sim_s",
               sw.slm_compute > 0 ? static_cast<double>(sw.slm_iterations) /
                                        (static_cast<double>(sw.slm_compute) /
                                         1e9)
                                  : 0,
               "1/s", "sim");
    layers.Add("apps.slm.host_us_per_iter", Median(us_per_iter), "us", "host");
    auto delta = [&](const std::string& counter) {
      return static_cast<double>(after.Registry(counter) -
                                 before.Registry(counter));
    };
    layers.Add("ckpt.store.commits", delta("ckpt.store.commits_total"),
               "count", "count");
    layers.Add("ckpt.store.flushes", delta("ckpt.store.flushes_total"),
               "count", "count");
    layers.Add("ckpt.store.flush_retries",
               delta("ckpt.store.flush_retries_total"), "count", "count");
    layers.Add("ckpt.store.evictions", delta("ckpt.store.evictions_total"),
               "count", "count");
    layers.Add("ckpt.restore_host_ms", span_ms("coord.restart"), "ms", "host");
    layers.Add("ckpt.restart_latency_ms", restart_ms, "ms", "sim");
    auto migrate_mean = [&](auto f) {
      return Mean(sw.migrations, [&](const ckpt::LiveMigrateStats& s) {
        return static_cast<double>(f(s));
      });
    };
    layers.Add("migrate.rounds",
               migrate_mean([](const auto& s) { return s.rounds; }), "count",
               "count");
    layers.Add("migrate.precopy_bytes",
               migrate_mean([](const auto& s) { return s.precopy_bytes; }),
               "bytes", "count");
    layers.Add("migrate.final_bytes",
               migrate_mean([](const auto& s) { return s.final_bytes; }),
               "bytes", "count");
    layers.Add("migrate.downtime_ms", migrate_downtime_ms, "ms", "sim");
    layers.Add("migrate.host_ms", span_ms("migrate"), "ms", "host");

    layers.Add("coord.overhead_us",
               Mean(sw.checkpoints,
                    [](const OpStats& s) {
                      return Ms(s.coordination_overhead) * 1e3;
                    }),
               "us", "sim");
    const double ckpt_host_ms = span_ms("coord.checkpoint");
    layers.Add("coord.checkpoint_host_ms", ckpt_host_ms, "ms", "host");
    layers.Add("coord.host_us_per_msg",
               msgs_per_op > 0 ? ckpt_host_ms * 1e3 / msgs_per_op : 0, "us",
               "host");
    double retransmits = 0, timeouts = 0, aborts = 0, fanout = 0;
    for (const auto* ops : {&sw.checkpoints, &sw.restarts}) {
      for (const OpStats& s : *ops) {
        retransmits += s.retransmits;
        timeouts += s.timeouts;
        aborts += s.aborts;
        fanout = std::max(fanout, static_cast<double>(s.max_endpoint_fanout));
      }
    }
    layers.Add("coord.retransmits", retransmits, "count", "count");
    layers.Add("coord.timeouts", timeouts, "count", "count");
    layers.Add("coord.aborts", aborts, "count", "count");
    layers.Add("coord.max_endpoint_fanout", fanout, "count", "count");
    auto phase_us = [&](const char* phase) {
      return Mean(tw.checkpoint_ops, [&](const obs::causal::OpBreakdown& b) {
        return static_cast<double>(b.PhaseNs(phase)) / 1e3;
      });
    };
    layers.Add("cp.freeze_wait_us", phase_us("freeze-wait"), "us", "sim");
    layers.Add("cp.shard_wait_us", phase_us("shard-wait"), "us", "sim");
    layers.Add("cp.commit_wait_us", phase_us("commit-wait"), "us", "sim");
    layers.Add("cp.save_downtime_ms", phase_us("save-downtime") / 1e3, "ms",
               "sim");
    layers.Add("cp.save_background_ms", phase_us("save-background") / 1e3,
               "ms", "sim");
    layers.Add("cp.unattributed_pct",
               Mean(tw.checkpoint_ops,
                    [](const obs::causal::OpBreakdown& b) {
                      return b.wall() == 0
                                 ? 0.0
                                 : 100.0 * static_cast<double>(b.unattributed) /
                                       static_cast<double>(b.wall());
                    }),
               "%", "sim");
    tally.Ops(window, tw.analysis_failures,
              "critical path does not tile a checkpoint op");

    layers.Add("sim.events", static_cast<double>(after.events - before.events) / k,
               "count", "count");
    layers.Add("sim.host_ns_per_event", Median(ns_per_event), "ns", "host");
    layers.Add("net.switch.forwarded_frames",
               static_cast<double>(after.forwarded - before.forwarded) / k,
               "count", "count");
    layers.Add("net.switch.dropped_frames",
               static_cast<double>(after.dropped - before.dropped) / k, "count",
               "count");
    layers.Add("os.netstack.filtered_packets",
               static_cast<double>(after.filtered - before.filtered) / k,
               "count", "count");
    layers.Add("tcp.retransmits", delta("tcp.retransmits_total") / k, "count",
               "count");
    layers.Add("tcp.rto", delta("tcp.rto_total") / k, "count", "count");
    layers.Add("tcp.fast_retransmit",
               static_cast<double>(tw.fast_retransmits) / k, "count", "count");

    layers.Add("load.completed", static_cast<double>(sw.load_completed),
               "count", "count");
    layers.Add("load.expected", static_cast<double>(sw.load_expected), "count",
               "count");
    layers.Add("load.verification_failures",
               static_cast<double>(sw.load_failures), "count", "count");
    layers.Add("load.late_samples", static_cast<double>(sw.load_late), "count",
               "count");
    layers.Add("load.p50_ms", p50_ms, "ms", "sim");
    layers.Add("load.p999_ms", p999_ms, "ms", "sim");
    layers.Add("load.p999_samples", static_cast<double>(beyond_p999), "count",
               "count");

    layers.Add("cruz.cluster_ctor_ms", Median(ctor_ms), "ms", "host");
    layers.Add("cruz.spawn_ms", Median(spawn_ms), "ms", "host");
    layers.Add("cruz.warmup_ms", Median(warm_ms), "ms", "host");

    layers.Add("obs.trace_events", static_cast<double>(tw.events) / k, "count",
               "count");
    layers.Add("obs.trace_dropped", static_cast<double>(tw.dropped) / k,
               "count", "count");
    layers.Add("obs.causal_ms", Median(tw.causal_ms), "ms", "host");
    const double plain = Median(plain_cpu);
    layers.Add("obs.tracing_overhead_pct",
               plain > 0 ? 100.0 * (Median(traced_cpu) - plain) / plain : 0,
               "%", "host");
  }

  // --- output ----------------------------------------------------------
  std::printf("cruzbench %s seed=%llu: %d set-ups, %zu cycles (%zu traced), "
              "sim window %zu cycles\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              kSetupRuns, cycles, traced_cpu.size(), window);
  std::printf("raw thread CPU: set-up %.4f s, cycle %.4f s; reference kernel "
              "%.5f s\n",
              Median(setup_raw), Median(plain_cpu), Median(ref_cpu));
  std::printf("end-to-end:\n");
  PrintReport(e2e);
  std::printf("workload outcomes (0 = mechanism not in this workload):\n");
  PrintReport(specific);
  if (args.trace) {
    // Per-layer self time of the traced cycles: mean per cycle.
    std::map<std::string, double> self_ms;
    for (const auto& cycle : traced_self) {
      for (const auto& [name, ns] : cycle) {
        self_ms[name] += static_cast<double>(ns) / 1e6 /
                         static_cast<double>(traced_self.size());
      }
    }
    double sum_ms = 0;
    std::printf("span self time per traced cycle (thread CPU, mean):\n");
    for (const auto& [name, ms] : self_ms) {
      std::printf("  %-20s %10.3f ms\n", name.c_str(), ms);
      sum_ms += ms;
    }
    // Tiling: the spans' self times must add up to the traced cycles'
    // own CPU time, measured outside the span log, within 2%.
    const double cycle_ms =
        Mean(traced_root_cpu, [](double s) { return s * 1e3; });
    const bool tiles =
        cycle_ms > 0 && std::fabs(sum_ms - cycle_ms) <= 0.02 * cycle_ms;
    std::printf("  %-20s %10.3f ms vs traced cycle %.3f ms: %s\n", "sum",
                sum_ms, cycle_ms, tiles ? "tiles" : "DOES NOT TILE");
    tally.Op(tiles, "span self times do not tile the traced cycles");
    std::printf("traced run_s %.6g s vs untraced %.6g s (raw thread CPU)\n",
                Median(traced_cpu) * k, Median(plain_cpu) * k);
    std::printf("per-layer:\n");
    PrintReport(layers);
    if (!args.spans_path.empty() && !spans.WriteJsonl(args.spans_path)) {
      tally.Op(false, "cannot write " + args.spans_path);
    }
  }
  std::printf("checks: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (const std::string& e : tally.errors) {
    std::printf("  FAILED: %s\n", e.c_str());
  }

  const bool correct = tally.failed == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : (args.trace ? layers : e2e).metrics()) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace cruzbench

int main(int argc, char** argv) {
  cruzbench::Args args;
  if (!cruzbench::ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: cruzbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans <path>]\n");
    return 2;
  }
  try {
    return cruzbench::Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cruzbench: %s\n", e.what());
    return 1;
  }
}
