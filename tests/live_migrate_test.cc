// Live (pre-copy) migration: downtime covers only the final dirty set,
// not the whole address space; connections survive; write-heavy pods
// converge via the round limit.
#include <gtest/gtest.h>

#include "apps/kvstore.h"
#include "apps/programs.h"
#include "ckpt/live_migrate.h"
#include "cruz/cluster.h"
#include "os/program.h"

namespace cruz::ckpt {
namespace {

// Builds a pod whose process has `static_pages` of untouched memory plus
// the counter's small working set.
os::PodId MakeBigPod(Cluster& c, std::size_t node,
                     std::uint64_t static_pages, os::Pid* vpid_out) {
  os::PodId id = c.CreatePod(node, "big");
  os::Pid vpid = c.pods(node).SpawnInPod(id, "cruz.counter",
                                         apps::CounterArgs(1u << 30));
  os::Process* proc =
      c.node(node).os().FindProcess(c.pods(node).ToRealPid(id, vpid));
  cruz::Bytes page(os::kPageSize, 0x42);
  for (std::uint64_t i = 0; i < static_pages; ++i) {
    proc->memory().InstallPage(0x1000 + i, page);
  }
  if (vpid_out != nullptr) *vpid_out = vpid;
  return id;
}

TEST(LiveMigrate, DowntimeFractionOfStopAndCopy) {
  // ~8 MiB pod, counter touching a single page: pre-copy must converge
  // in a couple of rounds and stop only for kilobytes.
  LiveMigrateStats live, naive;
  for (int mode = 0; mode < 2; ++mode) {
    ClusterConfig config;
    config.num_nodes = 2;
    Cluster c(config);
    os::Pid vpid = 0;
    os::PodId id = MakeBigPod(c, 0, 2048, &vpid);
    c.sim().RunFor(50 * kMillisecond);
    bool done = false;
    LiveMigrateOptions options;
    auto on_done = [&](const LiveMigrateStats& s) {
      (mode == 0 ? live : naive) = s;
      done = true;
    };
    LiveMigrator::MigrateWithMode(
        c.pods(0), c.pods(1), id,
        mode == 0 ? MigrateMode::kPreCopy : MigrateMode::kStopAndCopy,
        options, on_done);
    ASSERT_TRUE(c.sim().RunWhile([&] { return done; },
                                 c.sim().Now() + 600 * kSecond));
    // The pod runs on the target afterwards.
    const LiveMigrateStats& s = (mode == 0 ? live : naive);
    os::Pid real = c.pods(1).ToRealPid(s.pod, vpid);
    os::Process* proc = c.node(1).os().FindProcess(real);
    ASSERT_NE(proc, nullptr);
    std::uint64_t counter = apps::ReadCounter(*proc);
    c.sim().RunFor(10 * kMillisecond);
    EXPECT_GT(apps::ReadCounter(*proc), counter);
  }
  EXPECT_GE(live.rounds, 1);  // converges fast: tiny dirty rate
  EXPECT_GT(naive.final_bytes, 8 * kMiB);
  // The headline: live migration's downtime is a small fraction of
  // stop-and-copy's (the 8 MiB transfer happens while running).
  EXPECT_LT(live.downtime, naive.downtime / 10);
  EXPECT_LT(live.final_bytes, 512 * 1024u);
}

// Rewrites every page of a 64-page (256 KiB) pool each step, so the
// dirty set never falls to the pre-copy stop threshold.
class PoolWriterProgram : public os::Program {
 public:
  static constexpr std::uint64_t kPoolPage = 0x2000;
  static constexpr std::uint64_t kPoolPages = 64;

  void Step(os::ProcessCtx& ctx) override {
    for (std::uint64_t i = 0; i < kPoolPages; ++i) {
      ctx.Mem().WriteU64((kPoolPage + i) * os::kPageSize, ctx.Reg(3));
    }
    ctx.Reg(3) += 1;
    ctx.ChargeCpu(20 * kMicrosecond);
  }
};

TEST(LiveMigrate, WriteHeavyPodStillConverges) {
  // Every round finds more than the stop threshold dirty, so only the
  // round cap stops pre-copy.
  static_assert(PoolWriterProgram::kPoolPages * os::kPageSize >
                kStopThresholdBytes);
  os::ProgramRegistry::Instance().Register(
      "test.pool_writer", [] { return std::make_unique<PoolWriterProgram>(); });
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  os::PodId id = c.CreatePod(0, "heavy");
  os::Pid vpid = c.pods(0).SpawnInPod(id, "test.pool_writer", {});
  c.sim().RunFor(20 * kMillisecond);
  bool done = false;
  LiveMigrateStats stats;
  LiveMigrator::MigrateWithMode(c.pods(0), c.pods(1), id,
                                MigrateMode::kPreCopy, {},
                                [&](const LiveMigrateStats& s) {
                                  stats = s;
                                  done = true;
                                });
  ASSERT_TRUE(c.sim().RunWhile([&] { return done; },
                               c.sim().Now() + 600 * kSecond));
  EXPECT_EQ(stats.rounds, kMaxPrecopyRounds);
  for (std::size_t i = 1; i < stats.round_breakdown.size(); ++i) {
    EXPECT_GT(stats.round_breakdown[i].dirty_bytes, kStopThresholdBytes);
  }
  os::Pid real = c.pods(1).ToRealPid(stats.pod, vpid);
  EXPECT_NE(c.node(1).os().FindProcess(real), nullptr);
}

TEST(LiveMigrate, ConnectionSurvivesLiveMigration) {
  ClusterConfig config;
  config.num_nodes = 3;
  Cluster c(config);
  os::PodId id = c.CreatePod(0, "srv");
  net::Ipv4Address pod_ip = c.pods(0).Find(id)->ip;
  c.pods(0).SpawnInPod(id, "cruz.echo_server", apps::EchoServerArgs(9000));
  // Ballast so the migration actually has rounds to do.
  os::Process* server =
      c.node(0).os().FindProcess(c.pods(0).ToRealPid(id, 1));
  cruz::Bytes page(os::kPageSize, 0x11);
  for (std::uint64_t i = 0; i < 1024; ++i) {
    server->memory().InstallPage(0x10000 + i, page);
  }
  c.sim().RunFor(10 * kMillisecond);
  os::Pid client = c.node(2).os().Spawn(
      "cruz.echo_client",
      apps::EchoClientArgs(pod_ip, 9000, 40, 128, 2 * kMillisecond));
  int code = -1;
  apps::EchoClientStatus final_status;
  c.node(2).os().set_process_exit_hook([&](os::Pid p, int exit_code) {
    if (p == client && exit_code == 0) {
      code = exit_code;
      final_status =
          apps::ReadEchoClientStatus(*c.node(2).os().FindProcess(p));
    }
  });
  c.sim().RunFor(20 * kMillisecond);

  bool migrated = false;
  LiveMigrator::MigrateWithMode(
      c.pods(0), c.pods(1), id, MigrateMode::kPreCopy, {},
      [&](const LiveMigrateStats&) { migrated = true; });
  ASSERT_TRUE(c.sim().RunWhile([&] { return migrated; },
                               c.sim().Now() + 600 * kSecond));
  c.sim().RunFor(120 * kSecond);
  EXPECT_EQ(code, 0);
  EXPECT_EQ(final_status.messages_done, 40u);
  EXPECT_EQ(final_status.mismatches, 0u);
}

// A NIC's ARP filter holds its stack's own addresses and its neighbour
// entries (DESIGN.md §12). A migrated pod's address leaves the origin's
// filter with the VIF and enters the target's; a client that talks to
// the pod keeps it through the move.
TEST(LiveMigrate, PodAddressMovesBetweenArpFilters) {
  ClusterConfig config;
  config.num_nodes = 3;
  Cluster c(config);
  os::PodId id = c.CreatePod(0, "srv");
  const net::Ipv4Address pod_ip = c.pods(0).Find(id)->ip;
  c.pods(0).SpawnInPod(id, "cruz.echo_server", apps::EchoServerArgs(9000));
  c.sim().RunFor(10 * kMillisecond);
  c.node(2).os().Spawn(
      "cruz.echo_client",
      apps::EchoClientArgs(pod_ip, 9000, 1000, 128, 2 * kMillisecond));
  c.sim().RunFor(20 * kMillisecond);
  auto in_filter = [&](std::size_t node) {
    return c.node(node).nic().arp_filter().contains(pod_ip);
  };
  EXPECT_TRUE(in_filter(0));
  EXPECT_FALSE(in_filter(1));
  EXPECT_TRUE(in_filter(2));

  bool migrated = false;
  LiveMigrator::MigrateWithMode(
      c.pods(0), c.pods(1), id, MigrateMode::kStopAndCopy, {},
      [&](const LiveMigrateStats&) { migrated = true; });
  ASSERT_TRUE(c.sim().RunWhile([&] { return migrated; },
                               c.sim().Now() + 10 * kSecond));
  EXPECT_FALSE(c.node(0).stack().OwnsIp(pod_ip));
  EXPECT_FALSE(in_filter(0));
  EXPECT_TRUE(c.node(1).stack().OwnsIp(pod_ip));
  EXPECT_TRUE(in_filter(1));
  EXPECT_TRUE(in_filter(2));
}

// Each migration deletes the pod's VIF on the origin and kills its
// processes there without a sound (§4.2). Every established connection
// the pod held lingers briefly in its close, and the purge that follows
// erases it; nothing of it may stay in the event queue, or the queue
// grows by one dead reaper per connection per migration.
TEST(LiveMigrate, RepeatedTeardownLeavesNoDeadEvents) {
  constexpr int kConnections = 16;
  constexpr int kRounds = 4;
  apps::RegisterKvPrograms();
  ClusterConfig config;
  config.num_nodes = 3;
  Cluster c(config);
  os::PodId id = c.CreatePod(0, "kv");
  net::Ipv4Address pod_ip = c.pods(0).Find(id)->ip;
  c.pods(0).SpawnInPod(id, "cruz.kv_server", apps::KvServerArgs(5432, true));
  c.sim().RunFor(5 * kMillisecond);
  std::vector<os::Pid> clients;
  for (int i = 0; i < kConnections; ++i) {
    clients.push_back(c.node(2).os().Spawn(
        "cruz.kv_client",
        apps::KvClientArgs(pod_ip, 5432, 1u << 20, 100 + i,
                           50 * kMillisecond)));
  }
  c.sim().RunFor(200 * kMillisecond);
  std::vector<std::uint64_t> done_before;
  for (os::Pid pid : clients) {
    done_before.push_back(apps::ReadKvClientStatus(
                              *c.node(2).os().FindProcess(pid))
                              .operations_done);
  }

  std::vector<std::size_t> pending;
  std::size_t from = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::size_t to = 1 - from;
    bool migrated = false;
    LiveMigrator::MigrateWithMode(
        c.pods(from), c.pods(to), id, MigrateMode::kStopAndCopy, {},
        [&](const LiveMigrateStats&) { migrated = true; });
    ASSERT_TRUE(c.sim().RunWhile([&] { return migrated; },
                                 c.sim().Now() + 10 * kSecond));
    ASSERT_EQ(c.pods(from).Find(id), nullptr);
    ASSERT_NE(c.pods(to).Find(id), nullptr);
    c.sim().RunFor(kSecond);
    pending.push_back(c.sim().pending_events());
    from = to;
  }
  for (int round = 1; round < kRounds; ++round) {
    EXPECT_LE(pending[round], pending[0])
        << "round " << round << " of " << kRounds;
  }
  // Every connection survived every move: each client is still alive
  // (a broken connection makes it exit) and still completing requests.
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const os::Process* proc = c.node(2).os().FindProcess(clients[i]);
    ASSERT_NE(proc, nullptr);
    EXPECT_GT(apps::ReadKvClientStatus(*proc).operations_done,
              done_before[i] + kRounds * 10);
  }
}

}  // namespace
}  // namespace cruz::ckpt
