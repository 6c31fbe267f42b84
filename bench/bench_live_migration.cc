// Live-migration mode sweep under the streaming kvstore workload.
//
// The paper's migration use case (§1) is downtime-sensitive maintenance.
// A kv server pod is migrated while remote clients stream PUT/GET
// traffic at full rate; each MigrateMode trades downtime against
// post-resume degradation differently:
//
//   stop-and-copy — downtime is the whole image: grows with pod memory.
//   pre-copy      — iterative rounds; stops only for the final dirty
//                   set + kernel state, independent of ballast size.
//   post-copy     — stops for the hot set only; the residue is demand-
//                   fetched after resume (counted as degradation).
//   hybrid        — pre-copy rounds until the stop threshold or the
//                   round cap, then post-copy: the stop moves kernel
//                   state only.
//
// The table sweeps pod ballast sizes; every metric is sim-time derived
// and deterministic. Emits BENCH_migration.json for check_regression.py.
// CRUZ_BENCH_SMOKE=1 runs the 4 MiB pod only (committed baselines are
// generated in that mode; full-sweep sizes show up as NEW,
// informational).
#include <cstdio>
#include <map>
#include <vector>

#include "apps/kvstore.h"
#include "bench_gate.h"
#include "ckpt/live_migrate.h"
#include "cruz/cluster.h"
#include "slm_sweep.h"

namespace {

using namespace cruz;

constexpr std::uint64_t kBallastBase = 0x4000;
constexpr int kClients = 4;

struct ModeResult {
  ckpt::LiveMigrateStats stats;
  bool served_after = false;      // kv server made progress post-migrate
  std::uint64_t failures = 0;     // client-side GET verification failures
};

ModeResult Measure(std::uint64_t ballast_pages, ckpt::MigrateMode mode) {
  apps::RegisterKvPrograms();
  ModeResult result;
  ClusterConfig config;
  config.num_nodes = 3;
  Cluster c(config);
  os::PodId id = c.CreatePod(0, "kv");
  net::Ipv4Address db_ip = c.pods(0).Find(id)->ip;
  os::Pid server_vpid =
      c.pods(0).SpawnInPod(id, "cruz.kv_server", apps::KvServerArgs(5432));
  os::Process* server =
      c.node(0).os().FindProcess(c.pods(0).ToRealPid(id, server_vpid));
  cruz::Bytes page(os::kPageSize, 0x42);
  for (std::uint64_t i = 0; i < ballast_pages; ++i) {
    server->memory().InstallPage(kBallastBase + i, page);
  }
  c.sim().RunFor(5 * kMillisecond);
  // Zero think time: the clients stream as fast as one op per RTT, so
  // the server's table churns through the whole migration window.
  std::vector<os::Pid> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(c.node(2).os().Spawn(
        "cruz.kv_client",
        apps::KvClientArgs(db_ip, 5432, 1u << 30, 1000 + i, 0)));
  }
  c.sim().RunFor(30 * kMillisecond);

  ckpt::LiveMigrateOptions options;
  options.hot_window = 200 * kMicrosecond;
  bool done = false;
  ckpt::LiveMigrator::MigrateWithMode(c.pods(0), c.pods(1), id, mode,
                                      options,
                                      [&](const ckpt::LiveMigrateStats& s) {
                                        result.stats = s;
                                        done = true;
                                      });
  c.sim().RunWhile([&] { return done; }, c.sim().Now() + 600 * kSecond);

  // The migrated server keeps serving: wait for full residency, then
  // require the request counter to advance (TCP recovers from the
  // blackout via retransmission).
  os::Process* moved =
      c.node(1).os().FindProcess(c.pods(1).ToRealPid(id, server_vpid));
  if (moved != nullptr) {
    c.sim().RunWhile([&] { return !moved->memory().HasMissingPages(); },
                     c.sim().Now() + 600 * kSecond);
    std::uint64_t served = apps::ReadKvServerRequests(*moved);
    c.sim().RunFor(2 * kSecond);
    result.served_after = apps::ReadKvServerRequests(*moved) > served;
  }
  for (os::Pid pid : clients) {
    os::Process* proc = c.node(2).os().FindProcess(pid);
    if (proc != nullptr) {
      result.failures += apps::ReadKvClientStatus(*proc)
                             .verification_failures;
    }
  }
  return result;
}

}  // namespace

int main() {
  const bool smoke = cruz::bench::BenchSmoke();
  std::printf("== Live-migration mode sweep (streaming kvstore)%s ==\n\n",
              smoke ? " [smoke]" : "");
  std::vector<std::uint64_t> sizes =
      smoke ? std::vector<std::uint64_t>{1024}
            : std::vector<std::uint64_t>{1024, 4096, 16384};
  constexpr ckpt::MigrateMode kModes[] = {
      ckpt::MigrateMode::kStopAndCopy, ckpt::MigrateMode::kPreCopy,
      ckpt::MigrateMode::kPostCopy, ckpt::MigrateMode::kHybrid};

  bool ok = true;
  std::map<std::uint64_t, std::map<ckpt::MigrateMode, ModeResult>> table;
  for (std::uint64_t pages : sizes) {
    std::printf("-- pod ballast %.0f MiB --\n",
                static_cast<double>(pages * os::kPageSize) /
                    static_cast<double>(kMiB));
    std::printf("%15s %13s %11s %16s %9s %8s\n", "mode", "downtime(ms)",
                "total(ms)", "degradation(ms)", "fetched", "rounds");
    for (ckpt::MigrateMode mode : kModes) {
      ModeResult r = Measure(pages, mode);
      table[pages][mode] = r;
      std::printf("%15s %13.3f %11.2f %16.3f %9llu %8d\n",
                  ckpt::MigrateModeName(mode), ToMillis(r.stats.downtime),
                  ToMillis(r.stats.total_duration),
                  ToMillis(r.stats.degradation),
                  static_cast<unsigned long long>(
                      r.stats.pages_fetched_on_demand),
                  r.stats.rounds);
      if (!r.served_after || r.failures != 0) ok = false;
    }
    const ModeResult& stop = table[pages][ckpt::MigrateMode::kStopAndCopy];
    const ModeResult& pre = table[pages][ckpt::MigrateMode::kPreCopy];
    const ModeResult& post = table[pages][ckpt::MigrateMode::kPostCopy];
    const ModeResult& hybrid = table[pages][ckpt::MigrateMode::kHybrid];
    // The mode ladder: post-copy stops for the hot set, pre-copy for the
    // final dirty set, stop-and-copy for everything; hybrid for kernel
    // state only. Post-copy pays with demand-fetch degradation instead.
    if (!(post.stats.downtime < pre.stats.downtime &&
          pre.stats.downtime < stop.stats.downtime &&
          hybrid.stats.downtime <= post.stats.downtime)) {
      ok = false;
    }
    if (post.stats.degradation <= 0 || stop.stats.degradation != 0 ||
        pre.stats.degradation != 0) {
      ok = false;
    }
    for (const ModeResult* r : {&post, &hybrid}) {
      if (r->stats.pages_resident_at_resume +
              r->stats.pages_fetched_on_demand + r->stats.pages_pushed !=
          r->stats.pages_total) {
        ok = false;
      }
      if (r->stats.late_serves != 0) ok = false;
    }
    std::printf("\n");
  }
  std::printf("shape check: %s\n",
              ok ? "downtime ladder post < pre < stop (hybrid <= post), "
                   "degradation only under post-copy, page accounting "
                   "balanced, server kept serving, zero client "
                   "verification failures"
                 : "UNEXPECTED");

  // Regression-gate metrics (sim-time, hence deterministic and exact).
  {
    bench::BenchGate gate("migration");
    for (std::uint64_t pages : sizes) {
      std::string suffix = "_p" + std::to_string(pages);
      for (ckpt::MigrateMode mode : kModes) {
        const ModeResult& r = table[pages][mode];
        std::string m = ckpt::MigrateModeName(mode);
        for (char& ch : m) {
          if (ch == '-') ch = '_';
        }
        gate.Metric(m + "_downtime_ms" + suffix, ToMillis(r.stats.downtime),
                    "ms");
      }
      const ModeResult& post = table[pages][ckpt::MigrateMode::kPostCopy];
      gate.Metric("post_copy_total_ms" + suffix,
                  ToMillis(post.stats.total_duration), "ms");
      gate.Metric("post_copy_degradation_ms" + suffix,
                  ToMillis(post.stats.degradation), "ms");
      gate.Metric("post_copy_pages_fetched" + suffix,
                  static_cast<double>(post.stats.pages_fetched_on_demand),
                  "pages");
    }
  }
  return ok ? 0 : 1;
}
