// Fig. 5(a): total checkpoint latency for the slm benchmark, 2-8 nodes,
// plus the downtime/total split across capture modes.
//
// Paper result: ~1 second for every node configuration, dominated by the
// time to write the pod state (mostly the non-zero virtual memory) to
// disk, with small error bars and no growth with the node count.
//
// The second table isolates what the application actually feels: with
// the forked (copy-on-write) capture of §5.2 the pod is stopped only for
// the in-memory snapshot, so downtime drops from O(image) to O(pages
// touched) while the total (background) latency stays disk-bound.
//
// Timing comes from two independent sources that must agree: the
// coordinator's <done>-reported statistics (CaptureStats-driven) and the
// agent.save / agent.downtime spans in the trace. Results are emitted as
// BENCH_downtime.json (mode table) and BENCH_fig5a.json (regression-gate
// metrics, see bench/check_regression.py). CRUZ_BENCH_SMOKE=1 shrinks
// the sweep for CI.
#include <cstdio>
#include <vector>

#include "apps/programs.h"
#include "apps/slm.h"
#include "bench_gate.h"
#include "ckpt/generation.h"
#include "ckpt/image.h"
#include "common/crc32.h"
#include "coord/coordinator.h"
#include "cruz/cluster.h"
#include "fault/fault.h"
#include "obs/trace_query.h"
#include "os/memory.h"
#include "slm_sweep.h"
#include "tcp/segment.h"

int main() {
  using namespace cruz;
  using namespace cruz::bench;

  const bool smoke = BenchSmoke();
  std::printf("== Fig. 5(a): total checkpoint latency (slm, checkpoints "
              "every 8 s)%s ==\n\n",
              smoke ? " [smoke]" : "");
  std::printf("%6s %18s %12s %16s %16s %10s\n", "nodes", "latency (ms)",
              "stddev", "max local (ms)", "span local (ms)", "samples");
  SweepOptions opt;
  if (smoke) {
    opt.max_nodes = 4;
    opt.app_duration = 16 * kSecond;
  }
  double min_mean = 1e18, max_mean = 0;
  bool spans_agree = true;
  std::vector<SweepResult> sweep;
  for (std::uint32_t n = opt.min_nodes; n <= opt.max_nodes; ++n) {
    SweepResult r = RunSlmSweep(n, opt);
    std::printf("%6u %18.1f %12.2f %16.1f %16.1f %10u\n", r.nodes,
                r.mean_latency_ms, r.stddev_latency_ms, r.mean_local_ms,
                r.span_mean_local_ms, r.samples);
    min_mean = std::min(min_mean, r.mean_latency_ms);
    max_mean = std::max(max_mean, r.mean_latency_ms);
    // Trace spans and coordinator statistics measure the same sim-time
    // windows; disagreement beyond float formatting noise means the
    // instrumentation drifted from the protocol.
    if (std::abs(r.span_mean_local_ms - r.mean_local_ms) >
            0.01 * r.mean_local_ms + 0.01 ||
        std::abs(r.span_mean_downtime_ms - r.mean_downtime_ms) >
            0.01 * r.mean_downtime_ms + 0.01) {
      spans_agree = false;
    }
    sweep.push_back(std::move(r));
  }
  std::printf("\npaper: ~1000 ms, flat across 2-8 nodes "
              "(dominated by writing state to disk)\n");
  bool flat = max_mean - min_mean < 0.2 * max_mean;
  bool second_scale = min_mean > 500 && max_mean < 2000;
  std::printf("shape check: latency is %s and %s; trace spans %s "
              "coordinator stats\n",
              flat ? "flat across node counts" : "NOT FLAT",
              second_scale ? "on the ~1 s scale" : "OFF SCALE",
              spans_agree ? "match" : "DO NOT MATCH");

  // --- critical-path attribution (per-op mean, from the causal graph) -----
  std::printf("\n== critical-path attribution (per-op mean) ==\n\n");
  std::printf("%6s %12s %18s %18s %16s %6s\n", "nodes", "save (ms)",
              "freeze-wait (us)", "commit-wait (us)", "unattributed",
              "ok");
  bool attribution_ok = true;
  for (const SweepResult& r : sweep) {
    std::printf("%6u %12.1f %18.1f %18.1f %15.3f%% %6s\n", r.nodes,
                r.cp_mean_save_ms, r.cp_mean_freeze_wait_us,
                r.cp_mean_commit_wait_us, r.cp_mean_unattributed_pct,
                r.cp_attribution_ok ? "yes" : "NO");
    attribution_ok = attribution_ok && r.cp_attribution_ok;
  }
  std::printf("shape check: phase attribution %s the coordinator wall "
              "time (1%% tolerance, exact tiling)\n",
              attribution_ok ? "matches" : "DOES NOT MATCH");

  // --- downtime vs total across capture modes -----------------------------
  std::printf("\n== downtime vs total per capture mode (slm, 4 nodes)%s "
              "==\n\n",
              smoke ? " [smoke]" : "");
  std::printf("%12s %18s %14s %14s %12s\n", "state", "mode",
              "downtime (ms)", "span dt (ms)", "total (ms)");
  struct Mode {
    const char* name;
    bool cow;
    bool compress;
  };
  const Mode kModes[] = {{"stop-the-world", false, false},
                         {"cow", true, false},
                         {"cow+compressed", true, true}};
  std::vector<std::uint32_t> rows_sweep =
      smoke ? std::vector<std::uint32_t>{256}
            : std::vector<std::uint32_t>{128, 256, 512};
  std::FILE* json = std::fopen("BENCH_downtime.json", "w");
  if (json != nullptr) std::fprintf(json, "[\n");
  bool first_row = true;
  double stw_downtime_largest = 0, cow_downtime_largest = 0;
  double cow_total_largest = 0;
  for (std::uint32_t rows : rows_sweep) {
    for (const Mode& mode : kModes) {
      SweepOptions mopt;
      mopt.app_duration = smoke ? 12 * kSecond : 24 * kSecond;
      mopt.grid_rows = rows;
      mopt.grid_cols = 512;
      mopt.copy_on_write = mode.cow;
      mopt.compress = mode.compress;
      // COW rides the Fig. 4 optimized protocol: early resume overlaps
      // network re-enable with the background save.
      mopt.variant = mode.cow ? coord::ProtocolVariant::kOptimized
                              : coord::ProtocolVariant::kBlocking;
      SweepResult r = RunSlmSweep(4, mopt);
      char state[32];
      std::snprintf(state, sizeof state, "%ux512", rows);
      std::printf("%12s %18s %14.2f %14.2f %12.1f\n", state, mode.name,
                  r.mean_downtime_ms, r.span_mean_downtime_ms,
                  r.mean_latency_ms);
      if (std::abs(r.span_mean_downtime_ms - r.mean_downtime_ms) >
          0.01 * r.mean_downtime_ms + 0.01) {
        spans_agree = false;
      }
      if (json != nullptr) {
        std::fprintf(json,
                     "%s  {\"grid\": \"%s\", \"mode\": \"%s\", "
                     "\"downtime_ms\": %.3f, \"total_ms\": %.3f, "
                     "\"samples\": %u}",
                     first_row ? "" : ",\n", state, mode.name,
                     r.mean_downtime_ms, r.mean_latency_ms, r.samples);
        first_row = false;
      }
      if (rows == rows_sweep.back()) {
        if (!mode.cow) stw_downtime_largest = r.mean_downtime_ms;
        if (mode.cow && !mode.compress) {
          cow_downtime_largest = r.mean_downtime_ms;
          cow_total_largest = r.mean_latency_ms;
        }
      }
    }
  }
  if (json != nullptr) {
    std::fprintf(json, "\n]\n");
    std::fclose(json);
    std::printf("\nwrote BENCH_downtime.json\n");
  }
  bool cow_cuts_downtime =
      cow_downtime_largest < 0.25 * stw_downtime_largest;
  std::printf("shape check: at the largest state, cow downtime %.2f ms "
              "is %s stop-the-world downtime %.1f ms\n",
              cow_downtime_largest,
              cow_cuts_downtime ? "< 25% of" : "NOT < 25% of",
              stw_downtime_largest);

  // --- multi-tier storage: per-tier commit latency + restore sources ------
  // Synchronous commit covers the local + partner disk tiers; the netfs
  // flush drains in the background (its lag is the third tier's commit
  // cost). The degraded restart runs with the netfs down and the writer
  // node dead, so one pod must come back from its partner replica.
  std::printf("\n== multi-tier storage (3 nodes, local+partner+netfs) ==\n\n");
  double tiered_commit_ms = 0, tiered_flush_lag_ms = 0;
  double tiered_degraded_restart_ms = 0;
  std::uint64_t restored_local = 0, restored_partner = 0;
  bool tiered_ok = true;
  {
    ClusterConfig config;
    config.num_nodes = 3;
    Cluster c(config);
    os::PodId a = c.CreatePod(0, "a");
    c.pods(0).SpawnInPod(a, "cruz.counter", apps::CounterArgs(1u << 30));
    os::PodId b = c.CreatePod(1, "b");
    c.pods(1).SpawnInPod(b, "cruz.counter", apps::CounterArgs(1u << 30));
    c.sim().RunFor(10 * kMillisecond);

    coord::Coordinator::Options topt;
    topt.tiered = true;
    auto ckpt1 = c.RunGenerationCheckpoint(
        {c.MemberFor(0, a), c.MemberFor(1, b)}, topt);
    tiered_ok = tiered_ok && ckpt1.stats.success;
    tiered_commit_ms =
        static_cast<double>(ckpt1.stats.full_latency) / kMillisecond;
    TimeNs flush_start = c.sim().Now();
    while (c.tiered().PendingFlushCount() > 0 &&
           c.sim().Now() - flush_start < 30 * kSecond) {
      c.sim().RunFor(10 * kMillisecond);
    }
    tiered_ok = tiered_ok && c.tiered().PendingFlushCount() == 0;
    tiered_flush_lag_ms =
        static_cast<double>(c.sim().Now() - flush_start) / kMillisecond;

    // Second generation lands while the netfs is down, then the writer
    // node dies: pod a's only surviving replica is on its ring partner.
    c.fs().set_available(false);
    auto ckpt2 = c.RunGenerationCheckpoint(
        {c.MemberFor(0, a), c.MemberFor(1, b)}, topt);
    tiered_ok = tiered_ok && ckpt2.stats.success;
    c.node(0).Fail();
    c.pods(1).DestroyPod(b);
    c.sim().RunFor(5 * kMillisecond);
    auto restart = c.RunGenerationRestart(
        {c.MemberFor(2, a), c.MemberFor(1, b)}, topt);
    tiered_ok = tiered_ok && restart.stats.success &&
                restart.generation == ckpt2.generation;
    tiered_degraded_restart_ms =
        static_cast<double>(restart.stats.full_latency) / kMillisecond;
    restored_local =
        c.sim().metrics().counter("ckpt.store.restore_source_local").value();
    restored_partner =
        c.sim()
            .metrics()
            .counter("ckpt.store.restore_source_partner")
            .value();
    tiered_ok = tiered_ok && restored_partner >= 1;

    std::printf("%28s %14s\n", "metric", "value");
    std::printf("%28s %14.2f\n", "commit local+partner (ms)",
                tiered_commit_ms);
    std::printf("%28s %14.2f\n", "netfs flush lag (ms)",
                tiered_flush_lag_ms);
    std::printf("%28s %14.2f\n", "degraded restart (ms)",
                tiered_degraded_restart_ms);
    std::printf("%28s %9llu/%llu\n", "restore local/partner",
                static_cast<unsigned long long>(restored_local),
                static_cast<unsigned long long>(restored_partner));
    std::printf("shape check: netfs-down restart %s, partner replica %s\n",
                restart.stats.success ? "succeeded" : "FAILED",
                restored_partner >= 1 ? "used" : "NOT USED");
  }

  // --- restart fallback: one damaged generation ---------------------------
  // The coordinator reads no image: an agent whose chain does not load
  // answers <failed>, the attempt aborts, and the next attempt uses the
  // next-older committed generation. So one damaged generation costs one
  // failed attempt. Here the newest generation's image of pod a is
  // corrupted as it is written, so every tier holds only damaged bytes
  // (the netfs flush refuses them), and the restart lands on the older
  // generation after exactly one fallback step.
  std::printf("\n== restart fallback (2 nodes, tiered, newest generation "
              "damaged on every tier) ==\n\n");
  double fallback_restart_ms = 0;
  bool fallback_ok = true;
  {
    ClusterConfig config;
    config.num_nodes = 2;
    Cluster c(config);
    os::PodId a = c.CreatePod(0, "a");
    c.pods(0).SpawnInPod(a, "cruz.counter", apps::CounterArgs(1u << 30));
    os::PodId b = c.CreatePod(1, "b");
    c.pods(1).SpawnInPod(b, "cruz.counter", apps::CounterArgs(1u << 30));
    c.sim().RunFor(10 * kMillisecond);
    std::vector<coord::Coordinator::Member> members = {c.MemberFor(0, a),
                                                       c.MemberFor(1, b)};
    coord::Coordinator::Options fopt;
    fopt.tiered = true;
    auto older = c.RunGenerationCheckpoint(members, fopt);
    c.sim().RunFor(kSecond);
    fault::FaultPlan plan(5);
    plan.ArmImageCorruption(c.node(0).name());
    c.ArmFaults(plan);
    auto newest = c.RunGenerationCheckpoint(members, fopt);
    c.sim().RunFor(kSecond);
    c.pods(0).DestroyPod(a);
    c.pods(1).DestroyPod(b);
    c.sim().RunFor(5 * kMillisecond);
    const TimeNs start = c.sim().Now();
    auto restart = c.RunGenerationRestart(members, fopt);
    fallback_restart_ms =
        static_cast<double>(c.sim().Now() - start) / kMillisecond;
    const std::size_t steps =
        obs::TraceQuery(c.sim().tracer())
            .Count(obs::TraceQuery::Filter{}.Name("coord.restart.fallback"));
    fallback_ok = older.stats.success && newest.stats.success &&
                  restart.stats.success && restart.fell_back &&
                  restart.generation == older.generation &&
                  restart.latest_committed == newest.generation &&
                  steps == 1;
    std::printf("%28s %14s\n", "metric", "value");
    std::printf("%28s %14.3f\n", "restart, one fallback (ms)",
                fallback_restart_ms);
    std::printf("%28s %14.3f\n", "successful attempt (ms)",
                static_cast<double>(restart.stats.full_latency) /
                    kMillisecond);
    std::printf("shape check: restart %s on the older generation after %zu "
                "fallback step(s)\n",
                fallback_ok ? "landed" : "did NOT land", steps);
  }

  // --- host work: CRC-32 passes per image byte ----------------------------
  // One clean tiered generation cycle of a 2-rank slm job: the checkpoint
  // and its settle, the background flush, a restart. The grids are
  // incompressible, so the bytes CRC'd divide into whole passes over the
  // image bytes; a leftover over 1% of a pass fails the bench. The same
  // cycle counts the page bytes the checkpoint serialized and the restart
  // deserialized, and the page bytes os::Memory copied during the
  // restart, as passes over the generation's pages × kPageSize.
  std::printf("\n== host work: CRC-32 passes per image byte (tiered slm "
              "cycle) ==\n\n");
  const char* kCrcPhases[3] = {"checkpoint", "flush", "restart"};
  double crc_passes[3] = {0, 0, 0};
  bool crc_ok = true;
  // Page bytes the checkpoint serialized and the restart deserialized,
  // and the generation's page bytes (pages × kPageSize).
  std::uint64_t serialize_bytes = 0, deserialize_bytes = 0, page_bytes = 0;
  std::uint64_t memory_copy_bytes = 0;
  {
    apps::RegisterSlmProgram();
    ClusterConfig config;
    config.num_nodes = 2;
    Cluster c(config);
    apps::SlmConfig base;
    base.nranks = 2;
    base.rows = 256;
    base.cols = 512;
    base.iterations = 1u << 31;
    base.exit_when_done = false;
    std::vector<os::PodId> pods;
    std::vector<coord::Coordinator::Member> members;
    for (std::uint32_t r = 0; r < 2; ++r) {
      pods.push_back(c.CreatePod(r, "slm" + std::to_string(r)));
      base.peers.push_back(c.pods(r).Find(pods.back())->ip);
    }
    for (std::uint32_t r = 0; r < 2; ++r) {
      apps::SlmConfig cfg = base;
      cfg.rank = r;
      c.pods(r).SpawnInPod(pods[r], "cruz.slm_rank", apps::SlmArgs(cfg));
      members.push_back(c.MemberFor(r, pods[r]));
    }
    c.sim().RunFor(200 * kMillisecond);

    coord::Coordinator::Options options;
    options.tiered = true;
    options.variant = coord::ProtocolVariant::kOptimized;
    options.compress = true;
    std::uint64_t crc_bytes[4] = {Crc32BytesTotal(), 0, 0, 0};
    const std::uint64_t serialized = ckpt::PageBytesSerializedTotal();
    auto ck = c.RunGenerationCheckpoint(members, options);
    crc_bytes[1] = Crc32BytesTotal();
    serialize_bytes = ckpt::PageBytesSerializedTotal() - serialized;
    c.sim().RunFor(kSecond);
    crc_bytes[2] = Crc32BytesTotal();
    for (std::uint32_t r = 0; r < 2; ++r) c.pods(r).DestroyPod(pods[r]);
    const std::uint64_t deserialized = ckpt::PageBytesDeserializedTotal();
    const std::uint64_t memory_copied = os::MemoryBytesCopiedTotal();
    auto rs = c.RunGenerationRestart(members, options);
    crc_bytes[3] = Crc32BytesTotal();
    deserialize_bytes = ckpt::PageBytesDeserializedTotal() - deserialized;
    memory_copy_bytes = os::MemoryBytesCopiedTotal() - memory_copied;
    crc_ok = ck.stats.success && rs.stats.success &&
             c.tiered().PendingFlushCount() == 0;
    // The generation's pages, as each member's save span counted them.
    obs::TraceQuery q(c.sim().tracer());
    for (const obs::TraceEvent* save : q.Select(
             obs::TraceQuery::Filter{}.Name("agent.save").Op(ck.stats.op_id))) {
      for (const auto& [key, value] : save->attrs.args) {
        if (key == "pages") page_bytes += std::stoull(value) * os::kPageSize;
      }
    }

    std::uint64_t image_bytes = 0;
    auto manifest = ckpt::GenerationStore(c.tiered())
                        .ReadManifest(ck.generation);
    if (manifest.has_value()) {
      for (const ckpt::ManifestEntry& e : *manifest) image_bytes += e.size;
    }
    crc_ok = crc_ok && image_bytes > 0;
    std::printf("%12s %8s %12s\n", "phase", "passes", "CRC'd/image");
    for (int i = 0; i < 3 && crc_ok; ++i) {
      const double ratio =
          static_cast<double>(crc_bytes[i + 1] - crc_bytes[i]) / image_bytes;
      crc_passes[i] = std::round(ratio);
      crc_ok = crc_ok && std::abs(ratio - crc_passes[i]) <= 0.01;
      std::printf("%12s %8.0f %12.4f\n", kCrcPhases[i], crc_passes[i],
                  ratio);
    }
    std::printf("shape check: CRC'd bytes %s whole passes per image byte\n",
                crc_ok ? "are" : "are NOT");
    crc_ok = crc_ok && page_bytes > 0;
    std::printf("\n%12s %18s\n", "phase", "passes per page");
    std::printf("%12s %18.4f\n", "serialize",
                static_cast<double>(serialize_bytes) / page_bytes);
    std::printf("%12s %18.4f\n", "deserialize",
                static_cast<double>(deserialize_bytes) / page_bytes);
    std::printf("%12s %18.4f\n", "memory copy",
                static_cast<double>(memory_copy_bytes) / page_bytes);
  }

  // --- host work: TCP payload copy passes -------------------------------
  // A 2-rank slm job run to completion with no checkpoint in the way, so
  // every byte sent is delivered: the payload bytes memcpy'd anywhere on
  // the TCP path over the bytes the ranks received. The path copies each
  // byte once per hop: into the send buffer, into the frame, into the
  // receive buffer and out to the reader's memory.
  std::printf("\n== host work: TCP payload copy passes (slm halo "
              "exchange) ==\n\n");
  double tcp_copy_passes = 0;
  bool tcp_copy_ok = false;
  {
    apps::RegisterSlmProgram();
    ClusterConfig config;
    config.num_nodes = 2;
    Cluster c(config);
    apps::SlmConfig base;
    base.nranks = 2;
    base.rows = 16;
    base.cols = 512;
    base.iterations = 200;
    std::vector<os::PodId> pods;
    for (std::uint32_t r = 0; r < 2; ++r) {
      pods.push_back(c.CreatePod(r, "slm" + std::to_string(r)));
      base.peers.push_back(c.pods(r).Find(pods.back())->ip);
    }
    const std::uint64_t copied = tcp::TcpPayloadBytesCopiedTotal();
    const std::uint64_t delivered = tcp::TcpPayloadBytesDeliveredTotal();
    for (std::uint32_t r = 0; r < 2; ++r) {
      apps::SlmConfig cfg = base;
      cfg.rank = r;
      c.pods(r).SpawnInPod(pods[r], "cruz.slm_rank", apps::SlmArgs(cfg));
    }
    c.sim().RunFor(5 * kSecond);
    const std::uint64_t copied_bytes =
        tcp::TcpPayloadBytesCopiedTotal() - copied;
    const std::uint64_t delivered_bytes =
        tcp::TcpPayloadBytesDeliveredTotal() - delivered;
    const std::uint64_t expected_bytes =
        2ull * base.iterations * base.cols * 8;
    tcp_copy_ok = delivered_bytes == expected_bytes;
    if (tcp_copy_ok) {
      tcp_copy_passes = static_cast<double>(copied_bytes) / delivered_bytes;
    }
    std::printf("%18s %14s %12s\n", "delivered bytes", "copied bytes",
                "passes");
    std::printf("%18llu %14llu %12.4f\n",
                static_cast<unsigned long long>(delivered_bytes),
                static_cast<unsigned long long>(copied_bytes),
                tcp_copy_passes);
    std::printf("shape check: the ranks %s every row\n",
                tcp_copy_ok ? "received" : "did NOT receive");
  }

  // Regression-gate metrics (sim-time values and host work counts, all
  // deterministic).
  {
    bench::BenchGate gate("fig5a");
    for (const SweepResult& r : sweep) {
      gate.Metric("mean_latency_ms_n" + std::to_string(r.nodes),
                  r.mean_latency_ms, "ms");
    }
    gate.Metric("stw_downtime_ms", stw_downtime_largest, "ms");
    gate.Metric("cow_downtime_ms", cow_downtime_largest, "ms");
    gate.Metric("cow_total_ms", cow_total_largest, "ms");
    // Critical-path breakdown of the largest sweep, cross-checked above
    // against the coordinator's full_latency per op.
    gate.Metric("critical_path_save_ms", sweep.back().cp_mean_save_ms, "ms");
    gate.Metric("critical_path_commit_wait_us",
                sweep.back().cp_mean_commit_wait_us, "us");
    gate.Metric("critical_path_unattributed_pct",
                sweep.back().cp_mean_unattributed_pct, "pct");
    // Multi-tier storage: synchronous commit (local + partner), the
    // background netfs flush lag, the netfs-down + node-loss restart,
    // and how many images each disk tier actually served.
    gate.Metric("tiered_commit_ms", tiered_commit_ms, "ms");
    gate.Metric("tiered_flush_lag_ms", tiered_flush_lag_ms, "ms");
    gate.Metric("tiered_degraded_restart_ms", tiered_degraded_restart_ms,
                "ms");
    gate.Metric("tiered_restore_local_total",
                static_cast<double>(restored_local), "count", "higher");
    gate.Metric("tiered_restore_partner_total",
                static_cast<double>(restored_partner), "count", "higher");
    // A restart past one damaged generation: the failed attempt plus the
    // successful one.
    gate.Metric("restart_fallback_one_step_ms", fallback_restart_ms, "ms");
    // Host work, counted rather than timed, so it is gated exactly too.
    for (int i = 0; i < 3; ++i) {
      gate.Metric(std::string("work_crc_passes_") + kCrcPhases[i],
                  crc_passes[i], "count");
    }
    gate.Metric("work_serialize_passes_checkpoint",
                static_cast<double>(serialize_bytes) / page_bytes, "count");
    gate.Metric("work_deserialize_passes_restart",
                static_cast<double>(deserialize_bytes) / page_bytes, "count");
    gate.Metric("work_memory_copy_passes_restart",
                static_cast<double>(memory_copy_bytes) / page_bytes, "count");
    gate.Metric("work_tcp_payload_copy_passes", tcp_copy_passes, "count");
  }
  return (flat && second_scale && cow_cuts_downtime && spans_agree &&
          attribution_ok && tiered_ok && fallback_ok && crc_ok &&
          tcp_copy_ok)
             ? 0
             : 1;
}
