// Coordinator scale sweep: flat vs hierarchical coordination at up to
// ~1000 nodes (DESIGN.md §13).
//
// The flat protocol is already O(N) in messages (4 per member), but the
// root itself addresses all N agents and serializes 2N converging reply
// datagrams through one protocol stack, so coordination latency grows
// linearly with N. The sub-coordinator tree keeps the message count
// O(N) — 4 per member plus 4 per shard, ≤ 6N for any fan-out ≥ 2 (the
// documented constant c = 6) — while bounding every endpoint's fan-out
// by max(⌈N/F⌉, F), ≈ 2√N at F = √N.
//
// For each N the bench runs one coordinated checkpoint flat and one
// hierarchical (fan-out 32), counts real protocol messages (shard-local
// traffic is reported upward by the sub-coordinators and folded into
// total_messages), and re-derives the hierarchical op's latency from the
// causal critical path: phase totals must tile the coord.op span exactly
// and agree with the coordinator's own full_latency within 1%, with the
// shard-wait phase attributing the sub-coordinator aggregation time.
//
// Each scenario also reports its simulator event count
// (work_sim_events_*: cluster setup, warm-up and the checkpoint), a
// deterministic host-work counter gated exactly like the sim metrics.
// A pod's gratuitous ARP floods every switch port, so this is where an
// O(N²) packet path would show. work_arp_cache_writes_* counts the
// neighbour-cache inserts and overwrites of every stack: a bystander that
// hears an announcement for a peer it never talked to writes nothing.
// work_arp_deliveries_* counts the ARP frames handed to stacks: the
// switch floods a broadcast ARP only to stacks whose ARP filter holds its
// sender or target address (DESIGN.md §12).
//
// Emits BENCH_coordinator_scale.json for the regression gate
// (check_regression.py). CRUZ_BENCH_SMOKE=1 stops the sweep at N = 512,
// so the "hierarchy beats flat at >= 512 nodes" check runs on every
// push; the committed baseline is generated in smoke mode, so the
// nightly N = 1000 points show up as NEW (informational) rather than
// gated.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "apps/programs.h"
#include "bench_gate.h"
#include "cruz/cluster.h"
#include "obs/causal/causal_graph.h"
#include "obs/causal/critical_path.h"
#include "obs/causal/flight_recorder.h"
#include "slm_sweep.h"

namespace {

using namespace cruz;

struct ScaleResult {
  std::uint32_t nodes = 0;
  std::uint32_t fan_out = 0;  // 0 = flat
  bool success = false;
  std::uint32_t total_messages = 0;
  std::uint32_t shard_count = 0;
  std::uint32_t max_endpoint_fanout = 0;
  double latency_ms = 0;  // coordinator full_latency
  // Causal critical-path re-derivation of the same op.
  bool cp_ok = false;
  double cp_shard_wait_us = 0;
  double cp_commit_wait_us = 0;
  double cp_freeze_wait_us = 0;
  double cp_save_ms = 0;
  std::uint64_t sim_events = 0;  // events the whole scenario executed
  std::uint64_t arp_cache_writes = 0;  // neighbour-cache inserts+overwrites
  std::uint64_t arp_deliveries = 0;    // ARP frames handed to stacks
};

// Failure artifacts (the nightly CI sweep uploads these): the raw trace
// ring as JSONL (cruz_analyze-compatible) and a flight recording of the
// pre-fault window with its causal slice.
void DumpFailureArtifacts(Cluster& cluster,
                          const coord::Coordinator::OpStats& stats,
                          std::uint32_t nodes, std::uint32_t fan_out,
                          const char* kind) {
  std::string tag =
      "scale_n" + std::to_string(nodes) + "_f" + std::to_string(fan_out);
  std::ofstream("trace_" + tag + ".jsonl")
      << cluster.sim().tracer().ExportJsonl();
  obs::causal::FlightTrigger trigger;
  trigger.ts = cluster.sim().Now();
  trigger.op = stats.op_id;
  trigger.kind = kind;
  trigger.detail = stats.abort_reason;
  const auto& ring = cluster.sim().tracer().events();
  std::ofstream("flight_" + tag + ".json") << obs::causal::FlightRecorder::
      Capture(std::vector<obs::TraceEvent>(ring.begin(), ring.end()),
              trigger);
  std::printf("  wrote trace_%s.jsonl + flight_%s.json\n", tag.c_str(),
              tag.c_str());
}

ScaleResult RunScale(std::uint32_t nodes, std::uint32_t fan_out) {
  ScaleResult result;
  result.nodes = nodes;
  result.fan_out = fan_out;

  ClusterConfig config;
  config.num_nodes = nodes;
  Cluster cluster(config);
  // One checkpoint at N = 1000 emits tens of thousands of span/instant
  // events; keep the whole op in the ring for the causal analysis.
  cluster.sim().tracer().set_capacity(1u << 20);
  // Serialized per-datagram protocol processing (see slm_sweep.h): this
  // is what makes the flat root's 2N converging replies a bottleneck.
  bench::CalibrateUdpProcessing(cluster);

  std::vector<coord::Coordinator::Member> members;
  members.reserve(nodes);
  for (std::uint32_t i = 0; i < nodes; ++i) {
    os::PodId pod = cluster.CreatePod(i, "p" + std::to_string(i));
    cluster.pods(i).SpawnInPod(pod, "cruz.counter",
                               apps::CounterArgs(1u << 30));
    members.push_back(cluster.MemberFor(i, pod));
  }
  cluster.sim().RunFor(10 * kMillisecond);

  coord::Coordinator::Options options;
  options.fan_out = fan_out;
  options.image_prefix =
      "/ckpt/scale_n" + std::to_string(nodes) + "_f" +
      std::to_string(fan_out);
  auto stats = cluster.RunCheckpoint(members, options);
  result.success = stats.success;
  result.total_messages = stats.total_messages;
  result.shard_count = stats.shard_count;
  result.max_endpoint_fanout = stats.max_endpoint_fanout;
  result.latency_ms = ToMillis(stats.full_latency);
  result.sim_events = cluster.sim().events_executed();
  auto count_stack = [&result](const os::NetworkStack& stack) {
    result.arp_cache_writes += stack.arp_cache_writes();
    result.arp_deliveries += stack.arp_frames_handled();
  };
  count_stack(cluster.coordinator_node().stack());
  for (std::size_t i = 0; i < cluster.num_nodes(); ++i) {
    count_stack(cluster.node(i).stack());
  }
  if (!stats.success) {
    DumpFailureArtifacts(cluster, stats, nodes, fan_out, "op-failed");
    return result;
  }

  const auto& ring = cluster.sim().tracer().events();
  obs::causal::CausalGraph graph = obs::causal::CausalGraph::Build(
      std::vector<obs::TraceEvent>(ring.begin(), ring.end()));
  std::optional<obs::causal::OpBreakdown> b =
      graph.stats().mis_joins == 0
          ? obs::causal::CriticalPathAnalyzer(graph).AnalyzeOp(stats.op_id)
          : std::nullopt;
  if (b.has_value()) {
    DurationNs attributed = 0;
    for (const obs::causal::PhaseTotal& p : b->phases) attributed += p.total;
    DurationNs wall = b->wall();
    DurationNs full = stats.full_latency;
    DurationNs drift = wall > full ? wall - full : full - wall;
    result.cp_ok =
        attributed == wall && full > 0 && drift <= full / 100;
    result.cp_shard_wait_us = ToMicros(b->PhaseNs("shard-wait"));
    result.cp_commit_wait_us = ToMicros(b->PhaseNs("commit-wait"));
    result.cp_freeze_wait_us = ToMicros(b->PhaseNs("freeze-wait"));
    result.cp_save_ms = ToMillis(b->PhaseNs("save-downtime") +
                                 b->PhaseNs("save-background"));
  }
  if (fan_out != 0 && !result.cp_ok) {
    DumpFailureArtifacts(cluster, stats, nodes, fan_out,
                         "critical-path-mismatch");
  }
  return result;
}

}  // namespace

int main() {
  using namespace cruz;
  using namespace cruz::bench;

  const bool smoke = BenchSmoke();
  constexpr std::uint32_t kFanOut = 32;
  std::vector<std::uint32_t> sweep = {32, 128, 512};
  if (!smoke) sweep.push_back(1000);

  std::printf("== Coordinator scale: flat vs hierarchical (fan-out %u)%s "
              "==\n\n",
              kFanOut, smoke ? " [smoke]" : "");
  std::printf("%6s %6s %10s %8s %8s %14s %16s\n", "nodes", "mode", "msgs",
              "shards", "fanout", "latency (ms)", "shard-wait (us)");

  bool ok = true;
  std::vector<ScaleResult> results;
  for (std::uint32_t n : sweep) {
    for (std::uint32_t f : {0u, kFanOut}) {
      ScaleResult r = RunScale(n, f);
      std::printf("%6u %6s %10u %8u %8u %14.3f %16.1f\n", n,
                  f == 0 ? "flat" : "hier", r.total_messages, r.shard_count,
                  r.max_endpoint_fanout, r.latency_ms,
                  f == 0 ? 0.0 : r.cp_shard_wait_us);
      if (!r.success) {
        std::printf("  UNEXPECTED: op failed at n=%u f=%u\n", n, f);
        ok = false;
        continue;
      }
      if (f == 0) {
        // Flat: exactly 4 messages per member, root addresses all N.
        if (r.total_messages != 4 * n) {
          std::printf("  UNEXPECTED: flat messages %u != 4N\n",
                      r.total_messages);
          ok = false;
        }
        if (r.max_endpoint_fanout != n) {
          std::printf("  UNEXPECTED: flat root fan-out %u != N\n",
                      r.max_endpoint_fanout);
          ok = false;
        }
      } else {
        // Hierarchical: still O(N) — 4 per member + 4 per shard ≤ 6N
        // (c = 6 for any fan-out ≥ 2) — with bounded endpoint fan-out.
        std::uint32_t shards = (n + f - 1) / f;
        std::uint32_t fanout_bound = shards > f ? shards : f;
        if (r.total_messages > 6 * n) {
          std::printf("  UNEXPECTED: hier messages %u > 6N\n",
                      r.total_messages);
          ok = false;
        }
        if (r.max_endpoint_fanout > fanout_bound) {
          std::printf("  UNEXPECTED: hier fan-out %u > max(⌈N/F⌉, F) = %u\n",
                      r.max_endpoint_fanout, fanout_bound);
          ok = false;
        }
        if (r.shard_count != shards) {
          std::printf("  UNEXPECTED: shard count %u != ⌈N/F⌉ = %u\n",
                      r.shard_count, shards);
          ok = false;
        }
        if (!r.cp_ok) {
          std::printf("  UNEXPECTED: critical-path phases do not tile the "
                      "op span within 1%% of coordinator latency\n");
          ok = false;
        }
      }
      results.push_back(r);
    }
  }

  // The payoff: past the point where the tree has several shards, the
  // root's serialized reply processing dominates flat latency and the
  // hierarchy wins.
  for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
    const ScaleResult& flat = results[i];
    const ScaleResult& hier = results[i + 1];
    if (flat.nodes >= 512 && hier.latency_ms >= flat.latency_ms) {
      std::printf("UNEXPECTED: hier latency %.3f ms >= flat %.3f ms at "
                  "n=%u\n",
                  hier.latency_ms, flat.latency_ms, flat.nodes);
      ok = false;
    }
  }

  std::printf("\nshape check: %s\n",
              ok ? "flat = 4N msgs with root fan-out N; hier <= 6N msgs "
                   "with fan-out <= max(ceil(N/F), F) and exact "
                   "critical-path tiling"
                 : "UNEXPECTED RESULTS");

  {
    bench::BenchGate gate("coordinator_scale");
    for (const ScaleResult& r : results) {
      std::string tag = std::string(r.fan_out == 0 ? "flat" : "hier") +
                        "_n" + std::to_string(r.nodes);
      gate.Metric("messages_" + tag, r.total_messages, "msgs");
      gate.Metric("max_endpoint_fanout_" + tag, r.max_endpoint_fanout,
                  "dsts");
      gate.Metric("latency_" + tag, r.latency_ms, "ms");
      gate.Metric("work_sim_events_" + tag,
                  static_cast<double>(r.sim_events), "events");
      gate.Metric("work_arp_cache_writes_" + tag,
                  static_cast<double>(r.arp_cache_writes), "writes");
      gate.Metric("work_arp_deliveries_" + tag,
                  static_cast<double>(r.arp_deliveries), "frames");
      if (r.fan_out != 0) {
        gate.Metric("cp_shard_wait_" + tag, r.cp_shard_wait_us, "us");
        gate.Metric("cp_commit_wait_" + tag, r.cp_commit_wait_us, "us");
      }
    }
  }
  return ok ? 0 : 1;
}
