// Ablation of the §5.2 optimizations the paper proposes as future work:
//
//   (a) incremental checkpointing — save only pages dirtied since the
//       previous checkpoint (image size and latency per generation);
//   (b) copy-on-write checkpoint-and-continue — resume the application
//       right after the in-memory capture while the disk write proceeds
//       (application stall time per protocol variant).
//
// Every printed row is simulated time or image size, so each is written
// to BENCH_ablation.json as an exact metric for the regression gate.
#include <cstdio>
#include <vector>

#include "apps/programs.h"
#include "apps/slm.h"
#include "bench_gate.h"
#include "cruz/cluster.h"

namespace {

using namespace cruz;

// --- (a) incremental vs full image sizes -------------------------------------

void RunIncrementalAblation(bench::BenchGate& gate) {
  std::printf("--- (a) incremental checkpointing: slm, 2 nodes, 5 "
              "generations ---\n\n");
  std::printf("%6s %18s %18s %20s %20s\n", "gen", "full img (KiB)",
              "incr img (KiB)", "full latency (ms)", "incr latency (ms)");

  // Two identical runs: one with full checkpoints, one incremental.
  double full_kib[5], incr_kib[5], full_ms[5], incr_ms[5];
  for (int mode = 0; mode < 2; ++mode) {
    apps::RegisterSlmProgram();
    ClusterConfig config;
    config.num_nodes = 2;
    config.node_template.disk_write_bytes_per_sec = 20 * kMiB;
    Cluster c(config);
    apps::SlmConfig base;
    base.nranks = 2;
    base.rows = 512;  // ~2 MiB grid, mostly static
    base.cols = 512;
    base.iterations = 1u << 30;
    base.compute_per_iteration = kMillisecond;
    base.exit_when_done = false;
    std::vector<os::PodId> pods;
    std::vector<coord::Coordinator::Member> members;
    for (std::uint32_t r = 0; r < 2; ++r) {
      pods.push_back(c.CreatePod(r, "slm" + std::to_string(r)));
      base.peers.push_back(c.pods(r).Find(pods.back())->ip);
      members.push_back(c.MemberFor(r, pods.back()));
    }
    for (std::uint32_t r = 0; r < 2; ++r) {
      apps::SlmConfig cfg = base;
      cfg.rank = r;
      c.pods(r).SpawnInPod(pods[r], "cruz.slm_rank", apps::SlmArgs(cfg));
    }
    c.sim().RunFor(kSecond);
    for (int gen = 0; gen < 5; ++gen) {
      c.sim().RunFor(2 * kSecond);
      coord::Coordinator::Options options;
      options.incremental = (mode == 1);
      options.image_prefix = "/ckpt/abl_m" + std::to_string(mode) + "_g" +
                             std::to_string(gen);
      auto stats = c.RunCheckpoint(members, options);
      if (!stats.success) continue;
      cruz::Bytes raw;
      c.fs().ReadFile(stats.image_paths[0], raw);
      double kib = static_cast<double>(raw.size()) / 1024.0;
      double ms = ToMillis(stats.checkpoint_latency);
      if (mode == 0) {
        full_kib[gen] = kib;
        full_ms[gen] = ms;
      } else {
        incr_kib[gen] = kib;
        incr_ms[gen] = ms;
      }
    }
  }
  for (int gen = 0; gen < 5; ++gen) {
    std::printf("%6d %18.1f %18.1f %20.2f %20.2f\n", gen, full_kib[gen],
                incr_kib[gen], full_ms[gen], incr_ms[gen]);
    const std::string g = "_g" + std::to_string(gen);
    gate.Metric("full_image_kib" + g, full_kib[gen], "KiB");
    gate.Metric("incr_image_kib" + g, incr_kib[gen], "KiB");
    gate.Metric("full_latency_ms" + g, full_ms[gen], "ms");
    gate.Metric("incr_latency_ms" + g, incr_ms[gen], "ms");
  }
  std::printf("\n(generation 0 is always full; slm dirties only its "
              "boundary rows, so the deltas are ~%.0fx smaller and the "
              "checkpoints correspondingly faster)\n\n",
              full_kib[2] / incr_kib[2]);
}

// --- (b) application stall per variant -------------------------------------------

double MeasureStallMs(coord::ProtocolVariant variant, bool cow) {
  ClusterConfig config;
  config.num_nodes = 2;
  config.node_template.disk_write_bytes_per_sec = 4 * kMiB;  // slow disk
  Cluster c(config);
  std::vector<os::PodId> pods;
  std::vector<os::Pid> vpids;
  std::vector<coord::Coordinator::Member> members;
  for (std::uint32_t i = 0; i < 2; ++i) {
    pods.push_back(c.CreatePod(i, "cnt" + std::to_string(i)));
    vpids.push_back(c.pods(i).SpawnInPod(pods.back(), "cruz.counter",
                                         apps::CounterArgs(1u << 30)));
    // Working set so the disk write takes ~250 ms.
    os::Process* proc = c.node(i).os().FindProcess(
        c.pods(i).ToRealPid(pods.back(), vpids.back()));
    cruz::Bytes page(os::kPageSize, 0x42);
    for (std::uint64_t k = 0; k < 256; ++k) {
      proc->memory().InstallPage(0x100 + k, page);
    }
    members.push_back(c.MemberFor(i, pods.back()));
  }
  c.sim().RunFor(50 * kMillisecond);

  // Sample pod 0's counter every 250 us; stall = longest flat interval.
  std::vector<std::pair<TimeNs, std::uint64_t>> samples;
  bool sampling = true;
  std::function<void()> sample = [&] {
    if (!sampling) return;
    os::Process* proc =
        c.node(0).os().FindProcess(c.pods(0).ToRealPid(pods[0], vpids[0]));
    if (proc != nullptr) {
      samples.emplace_back(c.sim().Now(), apps::ReadCounter(*proc));
    }
    c.sim().Schedule(250 * kMicrosecond, sample);
  };
  c.sim().Schedule(0, sample);

  coord::Coordinator::Options options;
  options.variant = variant;
  options.copy_on_write = cow;
  options.image_prefix = "/ckpt/stall";
  auto stats = c.RunCheckpoint(members, options);
  c.sim().RunFor(kSecond);
  sampling = false;
  c.sim().RunFor(kMillisecond);
  if (!stats.success) return -1;

  TimeNs longest = 0, start = 0;
  for (std::size_t i = 1; i < samples.size(); ++i) {
    if (samples[i].second == samples[i - 1].second) {
      if (start == 0) start = samples[i - 1].first;
      longest = std::max<TimeNs>(longest, samples[i].first - start);
    } else {
      start = 0;
    }
  }
  return ToMillis(longest);
}

}  // namespace

int main() {
  std::printf("== Ablation: §5.2 checkpoint optimizations ==\n\n");
  bench::BenchGate gate("ablation");
  RunIncrementalAblation(gate);

  std::printf("--- (b) application stall during a checkpoint (2 nodes, "
              "~250 ms disk write) ---\n\n");
  double blocking = MeasureStallMs(coord::ProtocolVariant::kBlocking,
                                   false);
  double optimized = MeasureStallMs(coord::ProtocolVariant::kOptimized,
                                    false);
  double cow = MeasureStallMs(coord::ProtocolVariant::kOptimized, true);
  std::printf("%34s %14s\n", "variant", "stall (ms)");
  std::printf("%34s %14.1f\n", "Fig. 2 blocking", blocking);
  std::printf("%34s %14.1f\n", "Fig. 4 optimized", optimized);
  std::printf("%34s %14.1f\n", "Fig. 4 + copy-on-write", cow);
  gate.Metric("stall_ms_blocking", blocking, "ms");
  gate.Metric("stall_ms_optimized", optimized, "ms");
  gate.Metric("stall_ms_cow", cow, "ms");

  bool ok = blocking > 100 && cow >= 0 && cow < blocking / 10 &&
            optimized <= blocking + 1;
  std::printf("\nshape check: %s\n",
              ok ? "copy-on-write removes the disk write from the "
                   "application's critical path"
                 : "UNEXPECTED");
  return ok ? 0 : 1;
}
