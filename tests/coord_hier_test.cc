// Hierarchical coordinator robustness (DESIGN.md §13): sub-coordinator
// crash recovery, epoch fencing across root incarnations with live subs,
// the lying-middle-tier sabotage the gen-commit oracle exists to catch
// (see check_oracle_test.cc for the oracle side), and roster
// fragmentation across the Ethernet MTU.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/programs.h"
#include "coord/agent.h"
#include "coord/message.h"
#include "cruz/cluster.h"
#include "fault/fault.h"
#include "obs/trace_query.h"

namespace cruz {
namespace {

constexpr std::uint8_t kCheckpointByte =
    static_cast<std::uint8_t>(coord::MsgType::kCheckpoint);
constexpr std::uint8_t kRestartByte =
    static_cast<std::uint8_t>(coord::MsgType::kRestart);

os::PodId SpawnCounterPod(Cluster& c, std::size_t node,
                          const std::string& name) {
  os::PodId id = c.CreatePod(node, name);
  c.pods(node).SpawnInPod(id, "cruz.counter", apps::CounterArgs(1u << 30));
  return id;
}

bool PodProcessLive(Cluster& c, std::size_t node, os::PodId pod) {
  os::Pid real = c.pods(node).ToRealPid(pod, 1);
  if (real == os::kNoPid) return false;
  os::Process* proc = c.node(node).os().FindProcess(real);
  return proc != nullptr && proc->state() == os::ProcessState::kLive;
}

std::vector<coord::Coordinator::Member> SpawnMembers(
    Cluster& c, std::size_t n, std::vector<os::PodId>* pods) {
  std::vector<coord::Coordinator::Member> members;
  for (std::size_t i = 0; i < n; ++i) {
    os::PodId pod = SpawnCounterPod(c, i, "p" + std::to_string(i));
    pods->push_back(pod);
    members.push_back(c.MemberFor(i, pod));
  }
  c.sim().RunFor(10 * kMillisecond);
  return members;
}

// A sub-coordinator that dies mid-checkpoint must not wedge the op or
// leak images: the root gives up on the silent shard and aborts (fencing
// every agent directly, so even the dead sub's shard resumes), and the
// restarted sub's journal recovery re-fences and re-reaps. Zero orphan
// bytes on any storage tier, and the cluster checkpoints cleanly again.
TEST(CoordHier, SubCrashMidCheckpointAbortsCleanlyWithoutOrphans) {
  ClusterConfig config;
  config.num_nodes = 6;
  Cluster c(config);
  std::vector<os::PodId> pods;
  auto members = SpawnMembers(c, 6, &pods);

  coord::Coordinator::Options options;
  options.fan_out = 3;  // shards: head node1 (0-2), head node4 (3-5)
  options.tiered = true;
  options.image_prefix = "/ckpt/subcrash";
  options.retransmit_interval = 500 * kMillisecond;
  options.max_retransmit_rounds = 3;

  bool finished = false;
  coord::Coordinator::OpStats stats;
  c.coordinator().Checkpoint(members, options, [&](const auto& s) {
    finished = true;
    stats = s;
  });
  // The second shard's sub-coordinator dies after forwarding to its
  // agents (their saves are in flight) but before aggregating <done>s.
  c.sim().Schedule(1 * kMillisecond,
                   [&] { c.shard_coordinator(3).Crash(); });
  c.sim().RunFor(30 * kSecond);

  ASSERT_TRUE(finished);
  EXPECT_FALSE(stats.success);
  EXPECT_FALSE(stats.abort_reason.empty());
  // The direct agent fencing in AbortOp resumed every pod, including the
  // crashed sub's shard.
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(PodProcessLive(c, i, pods[i])) << "pod " << i;
  }
  // No orphan images on any tier: shared FS, local/partner disks, or
  // pending background flushes.
  EXPECT_TRUE(c.fs().List("/ckpt/subcrash/").empty());
  EXPECT_EQ(c.tiered().BytesUnderPrefix("/ckpt/subcrash/"), 0u);
  EXPECT_EQ(c.tiered().PendingFlushCount(), 0u);

  // The restarted sub replays its intent journal (abort + reap) and the
  // cluster is whole: the next hierarchical checkpoint commits.
  c.shard_coordinator(3).Reset();
  c.sim().RunFor(100 * kMillisecond);
  EXPECT_TRUE(c.fs().List("/ckpt/subcrash/").empty());
  auto retry = c.RunCheckpoint(members, options);
  EXPECT_TRUE(retry.success);
  EXPECT_EQ(retry.shard_count, 2u);
}

// Epoch fencing composes across the tree: a root that crashes mid-op and
// restarts resumes the fencing sequence, live sub-coordinators accept
// the new incarnation's higher epoch (superseding the stalled op), and a
// replayed stale-epoch shard request is silently dropped.
TEST(CoordHier, EpochFencingAcrossRootRestartWithLiveSubs) {
  ClusterConfig config;
  config.num_nodes = 4;
  Cluster c(config);
  fault::FaultPlan plan(5);
  // Stall op 2: the 4th node's agent process dies on <checkpoint>, so
  // its shard can never aggregate a <shard-done>.
  plan.ArmAgentCrash("node4", kCheckpointByte);
  std::vector<os::PodId> pods;
  auto members = SpawnMembers(c, 4, &pods);

  coord::Coordinator::Options options;
  options.fan_out = 2;  // shards: head node1 (0-1), head node3 (2-3)
  options.retransmit_interval = 500 * kMillisecond;
  options.image_prefix = "/ckpt/fence";

  // Op 1 (epoch 1) succeeds: both subs have now observed epoch 1.
  auto first = c.RunCheckpoint(members, options);
  ASSERT_TRUE(first.success);
  EXPECT_EQ(first.epoch, 1u);
  EXPECT_EQ(c.shard_coordinator(0).ops_served(), 1u);
  EXPECT_EQ(c.shard_coordinator(2).ops_served(), 1u);

  // Op 2 (epoch 2) stalls on the crashed agent; the root dies mid-op.
  c.ArmFaults(plan);
  bool finished = false;
  c.coordinator().Checkpoint(members, options,
                             [&](const auto&) { finished = true; });
  c.sim().RunFor(1 * kSecond);
  ASSERT_FALSE(finished);
  c.RestartCoordinator();
  EXPECT_TRUE(c.coordinator().recovery().had_incomplete);
  EXPECT_EQ(c.coordinator().recovery().epoch, 2u);
  EXPECT_EQ(c.coordinator().epoch(), 2u);  // fencing sequence resumes

  // Heal the crashed agent and run op 3 (epoch 3): the live subs accept
  // the higher epoch — superseding any shard state left from op 2 — and
  // the op commits.
  c.agent(3).Reset();
  c.sim().RunFor(100 * kMillisecond);
  auto third = c.RunCheckpoint(members, options);
  EXPECT_TRUE(third.success);
  EXPECT_EQ(third.epoch, 3u);
  EXPECT_EQ(c.shard_coordinator(0).ops_served(), 2u);

  // A replayed stale shard request (epoch 1, from a long-dead
  // incarnation) must be fenced: the sub stays idle and its shard's pod
  // keeps running.
  coord::CoordMessage stale;
  stale.type = coord::MsgType::kShardCheckpoint;
  stale.op_id = 99;
  stale.epoch = 1;
  coord::ShardMember sm;
  sm.agent_ip = c.node(0).ip().value;
  sm.pod = pods[0];
  sm.image_path = "/ckpt/fence/stale.img";
  stale.shard_members.push_back(sm);
  net::UdpDatagram dgram;
  dgram.src_port = coord::kCoordinatorPort;
  dgram.dst_port = coord::kShardPort;
  dgram.payload = stale.Encode();
  net::Ipv4Packet pkt;
  pkt.src = c.coordinator_node().ip();
  pkt.dst = c.node(0).ip();
  pkt.proto = net::IpProto::kUdp;
  pkt.payload = dgram.Encode();
  c.coordinator_node().stack().SendIpv4(pkt);
  c.sim().RunFor(1 * kSecond);
  EXPECT_FALSE(c.shard_coordinator(0).busy());
  EXPECT_EQ(c.shard_coordinator(0).ops_served(), 2u);
  EXPECT_TRUE(PodProcessLive(c, 0, pods[0]));
  EXPECT_TRUE(c.fs().List("/ckpt/fence/stale").empty());
}

// The sabotage the gen-commit oracle exists to catch, at the protocol
// level: sub-coordinators that acknowledge upward without ever
// forwarding produce a "successful" op during which no agent saved
// anything — exactly the commit-without-saves shape the oracle flags
// (tests/check_oracle_test.cc proves the catch; this proves the lie is
// otherwise invisible to the root).
TEST(CoordHier, AckWithoutForwardCommitsWithZeroAgentSaves) {
  ClusterConfig config;
  config.num_nodes = 4;
  Cluster c(config);
  std::vector<os::PodId> pods;
  auto members = SpawnMembers(c, 4, &pods);
  c.shard_coordinator(0).set_test_ack_without_forward(true);
  c.shard_coordinator(2).set_test_ack_without_forward(true);

  coord::Coordinator::Options options;
  options.fan_out = 2;
  options.tiered = true;
  options.image_prefix = "/ckpt/lie";
  auto stats = c.RunCheckpoint(members, options);

  // The root believes the op committed...
  EXPECT_TRUE(stats.success);
  EXPECT_EQ(stats.shard_count, 2u);
  // ...but no agent ever heard about it and nothing was written.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(c.agent(i).checkpoints_served(), 0u) << "agent " << i;
  }
  EXPECT_TRUE(c.fs().List("/ckpt/lie/").empty());
  EXPECT_EQ(c.tiered().BytesUnderPrefix("/ckpt/lie/"), 0u);
}

std::size_t CountEvents(Cluster& c, const std::string& name) {
  return obs::TraceQuery(c.sim().tracer())
      .Count(obs::TraceQuery::Filter{}.Name(name));
}

std::string ArgOf(const obs::TraceEvent& e, const std::string& key) {
  for (const auto& [k, v] : e.attrs.args) {
    if (k == key) return v;
  }
  return {};
}

// Restart picks its generation through the protocol at depth 2 too. A
// sub-coordinator's <shard-failed> names the failed member's pod when an
// agent answered <failed> (its chain did not load), and no pod when the
// sub gave up on a silent agent (retry cap, self-clean timeout). Only
// the first falls back: a corrupt chain costs exactly one failed attempt,
// a silent agent ends the restart after one attempt.
TEST(CoordHier, TreeRestartFallsBackOnlyForAnUnreadableChain) {
  ClusterConfig config;
  config.num_nodes = 6;
  Cluster c(config);
  fault::FaultPlan plan(11);
  c.ArmFaults(plan);
  std::vector<os::PodId> pods;
  auto members = SpawnMembers(c, 6, &pods);
  coord::Coordinator::Options options;
  options.fan_out = 3;  // shards: head node1 (0-2), head node4 (3-5)
  auto destroy_all = [&] {
    for (std::size_t i = 0; i < 6; ++i) c.pods(i).DestroyPod(pods[i]);
    c.sim().RunFor(10 * kMillisecond);
  };

  auto g1 = c.RunGenerationCheckpoint(members, options);
  ASSERT_TRUE(g1.stats.success);
  c.sim().RunFor(20 * kMillisecond);
  auto g2 = c.RunGenerationCheckpoint(members, options);
  ASSERT_TRUE(g2.stats.success);
  // Silent media corruption of node5's newest image.
  const std::string victim = g2.stats.image_paths.at(4);
  Bytes raw;
  ASSERT_TRUE(SysOk(c.fs().ReadFile(victim, raw)));
  raw[raw.size() / 2] ^= 0x40;
  ASSERT_TRUE(SysOk(c.fs().WriteFile(victim, std::move(raw))));

  destroy_all();
  auto corrupt = c.RunGenerationRestart(members, options);
  ASSERT_TRUE(corrupt.stats.success) << corrupt.stats.abort_reason;
  EXPECT_TRUE(corrupt.fell_back);
  EXPECT_EQ(corrupt.generation, g1.generation);
  EXPECT_EQ(corrupt.latest_committed, g2.generation);
  EXPECT_EQ(CountEvents(c, "coord.op.restart"), 2u);
  obs::TraceQuery query(c.sim().tracer());
  auto fallbacks = query.Select(
      obs::TraceQuery::Filter{}.Name("coord.restart.fallback"));
  ASSERT_EQ(fallbacks.size(), 1u);
  EXPECT_EQ(ArgOf(*fallbacks[0], "from"), std::to_string(g2.generation));
  EXPECT_EQ(ArgOf(*fallbacks[0], "to"), std::to_string(g1.generation));
  auto aborts = query.Select(obs::TraceQuery::Filter{}.Name("coord.abort"));
  ASSERT_EQ(aborts.size(), 1u);
  EXPECT_EQ(ArgOf(*aborts[0], "reason"),
            "shard " + std::to_string(c.node(3).ip().value) + " failed");
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(PodProcessLive(c, i, pods[i])) << "pod " << i;
  }

  // node5's agent dies on <restart>; its sub hits the retry cap and
  // reports <shard-failed> without a pod. Generation 3 is intact, and the
  // restart ends after its one attempt.
  auto g3 = c.RunGenerationCheckpoint(members, options);
  ASSERT_TRUE(g3.stats.success);
  plan.ArmAgentCrash("node5", kRestartByte);
  destroy_all();
  auto silent = c.RunGenerationRestart(members, options);
  EXPECT_FALSE(silent.stats.success);
  EXPECT_EQ(silent.stats.abort_reason,
            "shard " + std::to_string(c.node(3).ip().value) + " failed");
  EXPECT_EQ(silent.stats.failed_pod, os::kNoPod);
  EXPECT_FALSE(silent.fell_back);
  EXPECT_EQ(silent.generation, g3.generation);
  EXPECT_EQ(CountEvents(c, "coord.op.restart"), 3u);
  EXPECT_EQ(CountEvents(c, "coord.restart.fallback"), 1u);
  std::size_t retry_caps = 0;
  obs::TraceQuery after(c.sim().tracer());
  for (const obs::TraceEvent* e : after.Select(
           obs::TraceQuery::Filter{}.Name("coord.shard.abort"))) {
    if (ArgOf(*e, "reason") == "retry cap") ++retry_caps;
  }
  EXPECT_EQ(retry_caps, 1u);
  // All-or-nothing across the tree: no member pod the attempt restored
  // survives its abort.
  c.sim().RunFor(10 * kMillisecond);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(c.pods(i).Find(pods[i]), nullptr) << "pod " << i;
  }
}

// Roster fragmentation: a single shard of 40 members with long image
// paths exceeds the 1500-byte Ethernet MTU in both directions (the
// downward request roster and the upward tiered <shard-done> report).
// The stack does not IP-fragment — oversized frames are dropped at the
// NIC — so the coordination layer must split and reassemble.
TEST(CoordHier, FragmentedRosterAssemblesAcrossMtuLimit) {
  ClusterConfig config;
  config.num_nodes = 40;
  Cluster c(config);
  std::vector<os::PodId> pods;
  auto members = SpawnMembers(c, 40, &pods);

  coord::Coordinator::Options options;
  options.fan_out = 40;  // one shard: the full roster in one request
  options.tiered = true;
  options.image_prefix =
      "/ckpt/a-rather-long-prefix-that-pushes-the-roster-well-past-one-mtu";
  auto stats = c.RunCheckpoint(members, options);

  ASSERT_TRUE(stats.success);
  EXPECT_EQ(stats.shard_count, 1u);
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_EQ(c.agent(i).checkpoints_served(), 1u) << "agent " << i;
  }
  // Fragmentation overhead stays inside the documented O(N) envelope.
  EXPECT_LE(stats.total_messages, 6 * 40u);
  // Every member's tiered report made it back up: the root knows where
  // each of the 40 images landed.
  ASSERT_EQ(stats.replica_sets.size(), 40u);
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_FALSE(stats.replica_sets[i].empty()) << "member " << i;
  }
}

}  // namespace
}  // namespace cruz
