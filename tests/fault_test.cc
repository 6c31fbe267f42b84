// Deterministic fault injection against the coordination protocol: the
// FaultPlan's seeded fates must reproduce bit-for-bit, and every injected
// failure (disk I/O error, agent crash, coordinator crash, node crash,
// stale-epoch replay, unbounded loss) must leave the cluster in a clean
// state — pods running, no leaked partial images, fencing intact.
#include <gtest/gtest.h>

#include "apps/programs.h"
#include "check/explorer.h"
#include "check/scenario.h"
#include "ckpt/generation.h"
#include "ckpt/live_migrate.h"
#include "coord/agent.h"
#include "cruz/cluster.h"
#include "fault/fault.h"
#include "migrate_harness.h"
#include "obs/causal/causal_graph.h"
#include "obs/trace_query.h"

namespace cruz {
namespace {

constexpr std::uint8_t kCheckpointByte =
    static_cast<std::uint8_t>(coord::MsgType::kCheckpoint);
constexpr std::uint8_t kContinueByte =
    static_cast<std::uint8_t>(coord::MsgType::kContinue);
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

std::string ArgOf(const obs::TraceEvent& e, const std::string& key) {
  for (const auto& [k, v] : e.attrs.args) {
    if (k == key) return v;
  }
  return {};
}

// Identically seeded runs must produce identical fault-event logs and
// identical protocol outcomes — this is what makes a chaos failure
// replayable from its seed.
TEST(Fault, EventLogIsDeterministicAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    ClusterConfig config;
    config.seed = seed;
    config.num_nodes = 2;
    Cluster c(config);
    fault::FaultPlan plan(seed * 13 + 1);
    plan.ArmMessageLoss(0.3);
    plan.ArmMessageDuplication(0.3);
    plan.ArmMessageDelay(0.3, 20 * kMillisecond);
    c.ArmFaults(plan);

    os::PodId a = SpawnCounterPod(c, 0, "a");
    os::PodId b = SpawnCounterPod(c, 1, "b");
    c.sim().RunFor(10 * kMillisecond);
    coord::Coordinator::Options options;
    options.retransmit_interval = 200 * kMillisecond;
    options.timeout = 60 * kSecond;
    auto stats =
        c.RunCheckpoint({c.MemberFor(0, a), c.MemberFor(1, b)}, options);
    return plan.EventLog() + "|" + (stats.success ? "ok" : "fail") + "|" +
           std::to_string(stats.retransmits);
  };

  std::string first = run(42);
  std::string second = run(42);
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find('|'), std::string::npos);
  // With 30% fault rates on every control message, at least one fault
  // must have fired (the log is non-empty).
  EXPECT_GT(first.find('|'), 0u);
  // A different seed draws different fates.
  EXPECT_NE(run(43), first);
}

TEST(Fault, DiskWriteFailureAbortsFastWithoutLeakingImages) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  fault::FaultPlan plan(7);
  plan.ArmDiskWriteFailure("node2");
  c.ArmFaults(plan);

  os::PodId a = SpawnCounterPod(c, 0, "a");
  os::PodId b = SpawnCounterPod(c, 1, "b");
  c.sim().RunFor(10 * kMillisecond);

  TimeNs before = c.sim().Now();
  auto result = c.RunGenerationCheckpoint(
      {c.MemberFor(0, a), c.MemberFor(1, b)});
  EXPECT_FALSE(result.stats.success);
  EXPECT_NE(result.stats.abort_reason.find("failed"), std::string::npos);
  EXPECT_EQ(result.generation, 0u);      // aborted gen was discarded
  EXPECT_EQ(result.latest_committed, 0u);
  // The <failed> report aborts the op orders of magnitude faster than the
  // 120 s operation timeout.
  EXPECT_LT(c.sim().Now() - before, 10 * kSecond);
  EXPECT_EQ(plan.CountEvents(fault::FaultKind::kDiskWriteFail), 1u);

  // No partial image of either member survives anywhere under the
  // generation root, and both pods are running again.
  EXPECT_TRUE(c.fs().List("/ckpt/gens/gen_").empty());
  c.sim().RunFor(10 * kMillisecond);
  EXPECT_TRUE(PodProcessLive(c, 0, a));
  EXPECT_TRUE(PodProcessLive(c, 1, b));

  // The failure was one-shot: the next attempt commits a generation.
  auto retry = c.RunGenerationCheckpoint(
      {c.MemberFor(0, a), c.MemberFor(1, b)});
  EXPECT_TRUE(retry.stats.success);
  EXPECT_EQ(retry.latest_committed, retry.generation);
}

// A coordinator crash mid-op: the restarted incarnation replays the
// intent journal, aborts the in-flight op, garbage-collects its partial
// images, and continues with a fenced (higher) epoch.
TEST(Fault, CoordinatorRestartRecoversFromIntentJournal) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  fault::FaultPlan plan(11);
  // Stall the op at step 3: the second agent's process dies on <continue>,
  // after both images are already on the shared FS.
  plan.ArmAgentCrash("node2", kContinueByte);
  c.ArmFaults(plan);

  os::PodId a = SpawnCounterPod(c, 0, "a");
  os::PodId b = SpawnCounterPod(c, 1, "b");
  c.sim().RunFor(10 * kMillisecond);

  coord::Coordinator::Options options;
  options.image_prefix = "/ckpt/jrec";
  options.retransmit_interval = 500 * kMillisecond;
  bool finished = false;
  c.coordinator().Checkpoint({c.MemberFor(0, a), c.MemberFor(1, b)},
                             options, [&](const auto&) { finished = true; });
  c.sim().RunFor(3 * kSecond);
  ASSERT_FALSE(finished);  // stalled waiting for the crashed agent
  ASSERT_EQ(c.fs().List("/ckpt/jrec/").size(), 2u);

  // The coordinator process "crashes" and comes back.
  c.RestartCoordinator();
  const auto& recovery = c.coordinator().recovery();
  EXPECT_TRUE(recovery.had_incomplete);
  EXPECT_FALSE(recovery.was_restart);
  EXPECT_EQ(recovery.epoch, 1u);
  EXPECT_EQ(recovery.images_removed, 2u);
  EXPECT_TRUE(c.fs().List("/ckpt/jrec/").empty());
  EXPECT_EQ(c.coordinator().epoch(), 1u);  // resumes the fencing sequence

  // Recovery also sent <abort>: the healthy agent resumes its pod.
  c.sim().RunFor(100 * kMillisecond);
  EXPECT_TRUE(PodProcessLive(c, 0, a));
  // Each recovery <abort> is on record as a send, and the causal analyzer
  // joins every delivery of one to it (node2's dead agent hears nothing).
  const auto& events = c.sim().tracer().events();
  obs::causal::CausalGraph graph = obs::causal::CausalGraph::Build(
      std::vector<obs::TraceEvent>(events.begin(), events.end()));
  std::size_t abort_recvs = 0;
  for (std::size_t i = 0; i < graph.events().size(); ++i) {
    const obs::TraceEvent& e = graph.events()[i];
    if (e.name != "agent.msg.recv" || e.attrs.op != 1 ||
        ArgOf(e, "type") != "abort") {
      continue;
    }
    ++abort_recvs;
    EXPECT_TRUE(graph.SendFor(i).has_value()) << e.attrs.agent;
  }
  EXPECT_EQ(abort_recvs, 1u);

  // Restart the dead agent process and verify the cluster is whole: a
  // fresh op succeeds under the next epoch.
  c.agent(1).Reset();
  c.sim().RunFor(10 * kMillisecond);
  auto stats = c.RunCheckpoint({c.MemberFor(0, a), c.MemberFor(1, b)});
  EXPECT_TRUE(stats.success);
  EXPECT_EQ(stats.epoch, 2u);
  EXPECT_EQ(stats.op_id, 2u);
}

// Abort-path GC across tiers: when a tiered generation aborts, the
// orphan partner replicas and any half-flushed netfs images are reaped
// along with the writer's local copies — zero bytes survive on any tier,
// and no background flush keeps resurrecting them.
TEST(Fault, AbortedTieredGenerationLeavesZeroOrphanBytesOnAllTiers) {
  ClusterConfig config;
  config.num_nodes = 3;
  Cluster c(config);
  fault::FaultPlan plan(21);
  // The second agent's image write fails after the first agent already
  // committed its image to local + partner and queued the netfs flush.
  plan.ArmDiskWriteFailure("node2");
  c.ArmFaults(plan);

  os::PodId a = SpawnCounterPod(c, 0, "a");
  os::PodId b = SpawnCounterPod(c, 1, "b");
  c.sim().RunFor(10 * kMillisecond);

  coord::Coordinator::Options options;
  options.tiered = true;
  auto result = c.RunGenerationCheckpoint(
      {c.MemberFor(0, a), c.MemberFor(1, b)}, options);
  EXPECT_FALSE(result.stats.success);
  EXPECT_EQ(result.generation, 0u);
  c.sim().RunFor(2 * kSecond);  // any surviving flush would land by now

  const std::string prefix =
      std::string(ckpt::GenerationStore::kDefaultRoot) + "/gen_";
  EXPECT_EQ(c.tiered().BytesUnderPrefix(prefix), 0u);
  EXPECT_TRUE(c.fs().List(prefix).empty());
  EXPECT_EQ(c.tiered().PendingFlushCount(), 0u);

  // The cluster is whole: pods resumed, and the next tiered attempt
  // commits cleanly.
  c.sim().RunFor(10 * kMillisecond);
  EXPECT_TRUE(PodProcessLive(c, 0, a));
  EXPECT_TRUE(PodProcessLive(c, 1, b));
  auto retry = c.RunGenerationCheckpoint(
      {c.MemberFor(0, a), c.MemberFor(1, b)}, options);
  EXPECT_TRUE(retry.stats.success);
  EXPECT_EQ(retry.latest_committed, retry.generation);
}

// A replayed request from a dead (lower-epoch) coordinator incarnation
// must be silently dropped by the fencing check, even when its op id is
// novel.
TEST(Fault, EpochFencingDropsStaleCoordinatorRequests) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  os::PodId id = SpawnCounterPod(c, 0, "job");
  c.sim().RunFor(10 * kMillisecond);
  auto stats = c.RunCheckpoint({c.MemberFor(0, id)});
  ASSERT_TRUE(stats.success);
  ASSERT_EQ(stats.epoch, 1u);
  EXPECT_EQ(c.agent(0).checkpoints_served(), 1u);

  coord::CoordMessage stale;
  stale.type = coord::MsgType::kCheckpoint;
  stale.op_id = 999;  // novel op — only the epoch marks it stale
  stale.epoch = 0;
  stale.pod_id = id;
  stale.image_path = "/ckpt/stale.img";
  net::UdpDatagram dgram;
  dgram.src_port = coord::kCoordinatorPort;
  dgram.dst_port = coord::kAgentPort;
  dgram.payload = stale.Encode();
  net::Ipv4Packet pkt;
  pkt.src = c.coordinator_node().ip();
  pkt.dst = c.node(0).ip();
  pkt.proto = net::IpProto::kUdp;
  pkt.payload = dgram.Encode();
  c.coordinator_node().stack().SendIpv4(pkt);
  c.sim().RunFor(kSecond);

  EXPECT_EQ(c.agent(0).checkpoints_served(), 1u);
  EXPECT_FALSE(c.fs().Exists("/ckpt/stale.img"));
  EXPECT_TRUE(PodProcessLive(c, 0, id));

  // The live coordinator's next (higher-epoch) op still goes through.
  auto next = c.RunCheckpoint({c.MemberFor(0, id)});
  EXPECT_TRUE(next.success);
  EXPECT_EQ(next.epoch, 2u);
}

// With the channel fully dead, the retransmit-round cap bounds the op far
// below the 120 s operation timeout.
TEST(Fault, RetryCapAbortsUnreachableAgentsFast) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  fault::FaultPlan plan(3);
  plan.ArmMessageLoss(1.0);
  c.ArmFaults(plan);

  os::PodId id = SpawnCounterPod(c, 0, "job");
  c.sim().RunFor(10 * kMillisecond);

  coord::Coordinator::Options options;
  options.retransmit_interval = 100 * kMillisecond;
  options.max_retransmit_rounds = 3;
  options.timeout = 60 * kSecond;
  TimeNs before = c.sim().Now();
  auto stats = c.RunCheckpoint({c.MemberFor(0, id)}, options);
  EXPECT_FALSE(stats.success);
  EXPECT_EQ(stats.abort_reason, "retry cap");
  EXPECT_EQ(stats.timeouts, 0u);
  EXPECT_GE(stats.retransmits, 3u);
  EXPECT_GE(stats.aborts, 1u);
  EXPECT_LT(c.sim().Now() - before, 5 * kSecond);
  EXPECT_GT(plan.CountEvents(fault::FaultKind::kMessageDrop), 0u);
  // The agent never saw the request; its pod kept running throughout.
  EXPECT_EQ(c.agent(0).checkpoints_served(), 0u);
  EXPECT_TRUE(PodProcessLive(c, 0, id));
}

// A whole-machine fail-stop between checkpoints, followed by a scheduled
// reboot: the work is lost with the machine, but the rebooted node can
// host the pod again, restored from the last committed generation.
TEST(Fault, NodeCrashRebootThenGenerationRestart) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  os::PodId id = SpawnCounterPod(c, 0, "job");
  c.sim().RunFor(20 * kMillisecond);
  auto ck = c.RunGenerationCheckpoint({c.MemberFor(0, id)});
  ASSERT_TRUE(ck.stats.success);
  ASSERT_GT(ck.generation, 0u);

  fault::FaultPlan plan(5);
  plan.ArmNodeCrash(0, c.sim().Now() + 50 * kMillisecond,
                    /*reboot_after=*/100 * kMillisecond);
  c.ArmFaults(plan);
  c.sim().RunFor(300 * kMillisecond);

  EXPECT_EQ(plan.CountEvents(fault::FaultKind::kNodeCrash), 1u);
  EXPECT_EQ(plan.CountEvents(fault::FaultKind::kNodeReboot), 1u);
  EXPECT_FALSE(c.node(0).failed());
  EXPECT_EQ(c.pods(0).Find(id), nullptr);  // pod died with the machine

  auto rs = c.RunGenerationRestart({c.MemberFor(0, id)});
  EXPECT_TRUE(rs.stats.success);
  EXPECT_EQ(rs.generation, ck.generation);
  EXPECT_FALSE(rs.fell_back);

  os::Pid real = c.pods(0).ToRealPid(id, 1);
  ASSERT_NE(real, os::kNoPid);
  os::Process* proc = c.node(0).os().FindProcess(real);
  ASSERT_NE(proc, nullptr);
  std::uint64_t before = apps::ReadCounter(*proc);
  c.sim().RunFor(20 * kMillisecond);
  EXPECT_GT(apps::ReadCounter(*proc), before);
}

// Silent bit corruption injected at image-write time survives the commit:
// the commit record is the frame trailer the image carries, and a flip
// that misses the trailer leaves it as written. The deep verification
// pass catches it, because the image's frame CRC fails to check, so
// restart falls back to the older generation. A tiered image corrupted
// this way never reaches the netfs: no disk copy passes the flush's frame
// check, so the flush is abandoned instead of copying the broken bytes.
TEST(Fault, SilentImageCorruptionCaughtAtRestart) {
  for (bool tiered : {false, true}) {
    SCOPED_TRACE(tiered ? "tiered" : "one-tier");
    ClusterConfig config;
    config.num_nodes = 2;
    Cluster c(config);
    coord::Coordinator::Options options;
    options.tiered = tiered;
    os::PodId id = SpawnCounterPod(c, 0, "job");
    c.sim().RunFor(20 * kMillisecond);
    auto g1 = c.RunGenerationCheckpoint({c.MemberFor(0, id)}, options);
    ASSERT_TRUE(g1.stats.success);

    fault::FaultPlan plan(13);
    plan.ArmImageCorruption("node1");
    c.ArmFaults(plan);
    c.sim().RunFor(20 * kMillisecond);
    auto g2 = c.RunGenerationCheckpoint({c.MemberFor(0, id)}, options);
    ASSERT_TRUE(g2.stats.success);  // the corruption is silent at write time
    EXPECT_EQ(plan.CountEvents(fault::FaultKind::kImageCorrupt), 1u);

    if (tiered) {
      const std::string corrupt = g2.stats.image_paths.at(0);
      c.sim().RunFor(2 * kSecond);
      EXPECT_EQ(c.tiered().PendingFlushCount(), 0u);
      EXPECT_FALSE(c.tiered().FlushedToNetfs(corrupt));
      EXPECT_FALSE(c.fs().Exists(corrupt));
      obs::TraceQuery query(c.sim().tracer());
      std::size_t abandoned = 0;
      for (const obs::TraceEvent* e : query.Select(
               obs::TraceQuery::Filter{}.Name("ckpt.store.flush_abandoned"))) {
        EXPECT_EQ(ArgOf(*e, "path"), corrupt);
        EXPECT_EQ(ArgOf(*e, "reason"), "no intact source copy");
        ++abandoned;
      }
      EXPECT_EQ(abandoned, 1u);
    }

    c.pods(0).DestroyPod(id);
    c.sim().RunFor(10 * kMillisecond);
    auto rs = c.RunGenerationRestart({c.MemberFor(0, id)}, options);
    EXPECT_TRUE(rs.stats.success);
    EXPECT_TRUE(rs.fell_back);
    EXPECT_EQ(rs.generation, g1.generation);
    EXPECT_EQ(rs.latest_committed, g2.generation);
    EXPECT_TRUE(PodProcessLive(c, 0, id));
  }
}

// Duplicated and delayed control messages alone (no loss) must never
// break an op: dedupe by op id and epoch fencing absorb them. The
// invariant oracle checks the whole run — every checkpoint commits its
// generation exactly once, <continue> reaches each member exactly once,
// the protocol phases stay ordered, and no partial state leaks.
TEST(Fault, DuplicationAndDelayAreHarmless) {
  check::Scenario scenario;
  scenario.seed = 9;
  scenario.num_nodes = 2;
  scenario.workload = check::WorkloadKind::kCounters;
  scenario.workload_units = 20000;
  scenario.faults = {
      {check::FaultSpecKind::kMessageDup, 0, 500, 0},
      {check::FaultSpecKind::kMessageDelay, 0, 500, 30},
  };
  for (int round = 0; round < 3; ++round) {
    check::OpSpec ck;
    ck.kind = check::OpKind::kCheckpoint;
    ck.pre_delay = 20 * kMillisecond;
    scenario.ops.push_back(ck);
  }
  check::Explorer explorer;
  check::RunResult result = explorer.RunScenario(scenario);
  EXPECT_TRUE(result.passed) << result.summary;
  for (const check::Violation& v : result.violations) {
    ADD_FAILURE() << v.invariant << ": " << v.detail;
  }
}

// Fig. 4 under hostile control channels: every message is duplicated and
// half are delayed (so <comm-disabled> arrives twice and out of order).
// The optimized variant must still send the early <continue> exactly
// once per member, open exactly one commit phase, and grant resume
// BEFORE the freeze phase closes — that early grant is the whole point
// of the optimization, and duplicate <comm-disabled> must not re-fire it.
TEST(Fault, Fig4OptimizedSurvivesDuplicatedCommDisabled) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  fault::FaultPlan plan(29);
  plan.ArmMessageDuplication(1.0);
  plan.ArmMessageDelay(0.5, 10 * kMillisecond);
  c.ArmFaults(plan);

  os::PodId a = SpawnCounterPod(c, 0, "a");
  os::PodId b = SpawnCounterPod(c, 1, "b");
  c.sim().RunFor(10 * kMillisecond);

  coord::Coordinator::Options options;
  options.variant = coord::ProtocolVariant::kOptimized;
  auto stats = c.RunCheckpoint({c.MemberFor(0, a), c.MemberFor(1, b)},
                               options);
  ASSERT_TRUE(stats.success);
  EXPECT_EQ(c.agent(0).checkpoints_served(), 1u);
  EXPECT_EQ(c.agent(1).checkpoints_served(), 1u);

  obs::TraceQuery q(c.sim().tracer());
  auto count_continue = [&](const char* name) {
    std::size_t n = 0;
    for (const obs::TraceEvent* e :
         q.Select(obs::TraceQuery::Filter{}.Name(name).Op(stats.op_id))) {
      for (const auto& kv : e->attrs.args) {
        if (kv.first == "type" && kv.second == "continue") ++n;
      }
    }
    return n;
  };
  // Exactly one intentional <continue> per member: fresh sends minus
  // coordinator retransmissions (fault-layer duplicates happen below the
  // send instant and are absorbed by the agents' dedupe).
  EXPECT_EQ(count_continue("coord.msg.send") -
                count_continue("coord.retransmit"),
            2u);

  std::vector<const obs::TraceEvent*> commits = q.Select(
      obs::TraceQuery::Filter{}.Name("coord.phase.commit").Op(stats.op_id));
  ASSERT_EQ(commits.size(), 1u);
  const obs::TraceEvent* freeze = q.First(
      obs::TraceQuery::Filter{}.Name("coord.phase.freeze").Op(stats.op_id));
  ASSERT_NE(freeze, nullptr);
  // The early grant: the commit phase opens before the freeze phase has
  // closed (the Fig. 2 blocking protocol would order them the other way).
  EXPECT_LT(commits[0]->ts, freeze->end_ts());

  // Each agent resumed its pod exactly once despite the duplicates.
  EXPECT_EQ(q.Count(obs::TraceQuery::Filter{}
                        .Name("agent.continue")
                        .Op(stats.op_id)),
            2u);
}

// The agent-crash hook takes the agent down *before* it can process the
// request, so this also exercises heartbeat-based liveness detection in
// the checkpoint (not just journal-recovery) path.
TEST(Fault, AgentCrashOnRequestDetectedByHeartbeat) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  fault::FaultPlan plan(21);
  plan.ArmAgentCrash("node2", kCheckpointByte);
  c.ArmFaults(plan);

  os::PodId a = SpawnCounterPod(c, 0, "a");
  os::PodId b = SpawnCounterPod(c, 1, "b");
  c.sim().RunFor(10 * kMillisecond);

  coord::Coordinator::Options options;
  options.retransmit_interval = 500 * kMillisecond;
  options.heartbeat_interval = 200 * kMillisecond;
  options.max_missed_heartbeats = 2;
  options.timeout = 60 * kSecond;
  TimeNs before = c.sim().Now();
  auto stats =
      c.RunCheckpoint({c.MemberFor(0, a), c.MemberFor(1, b)}, options);
  EXPECT_FALSE(stats.success);
  EXPECT_NE(stats.abort_reason.find("unresponsive"), std::string::npos);
  EXPECT_LT(c.sim().Now() - before, 10 * kSecond);
  EXPECT_EQ(plan.CountEvents(fault::FaultKind::kAgentCrash), 1u);
  EXPECT_TRUE(c.agent(1).crashed());
}

// An aborted restart undoes its own work: node2's agent dies on
// <restart> after node1's agent has already restored its pod, and the
// heartbeat abort must leave no trace of that pod on node1 — neither
// running (half of the application would run on) nor stopped (the
// retry's restore of the same pod id would collide with it). A silent
// member ends the restart: one attempt, no fallback.
TEST(Fault, AbortedRestartDestroysThePodsItRestored) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  os::PodId a = SpawnCounterPod(c, 0, "a");
  os::PodId b = SpawnCounterPod(c, 1, "b");
  c.sim().RunFor(10 * kMillisecond);
  std::vector<coord::Coordinator::Member> members = {c.MemberFor(0, a),
                                                     c.MemberFor(1, b)};
  coord::Coordinator::Options options;
  options.retransmit_interval = 500 * kMillisecond;
  options.heartbeat_interval = 200 * kMillisecond;
  options.max_missed_heartbeats = 2;
  options.timeout = 60 * kSecond;
  auto g1 = c.RunGenerationCheckpoint(members, options);
  ASSERT_TRUE(g1.stats.success);

  fault::FaultPlan plan(23);
  plan.ArmAgentCrash("node2", kRestartByte);
  c.ArmFaults(plan);
  c.pods(0).DestroyPod(a);
  c.pods(1).DestroyPod(b);
  c.sim().RunFor(10 * kMillisecond);

  auto rs = c.RunGenerationRestart(members, options);
  EXPECT_FALSE(rs.stats.success);
  EXPECT_NE(rs.stats.abort_reason.find("unresponsive"), std::string::npos)
      << rs.stats.abort_reason;
  EXPECT_FALSE(rs.fell_back);
  EXPECT_EQ(rs.generation, g1.generation);
  EXPECT_TRUE(c.agent(1).crashed());
  c.sim().RunFor(10 * kMillisecond);

  // node1 did restore its pod before the abort...
  obs::TraceQuery query(c.sim().tracer());
  auto restores = query.Select(
      obs::TraceQuery::Filter{}.Name("agent.restore").Op(rs.stats.op_id));
  ASSERT_EQ(restores.size(), 1u);
  EXPECT_EQ(ArgOf(*restores[0], "outcome"), "ok");
  EXPECT_EQ(restores[0]->attrs.agent, c.node(0).name());
  // ...and the abort destroyed it.
  EXPECT_EQ(c.pods(0).Find(a), nullptr);
  EXPECT_EQ(c.pods(1).Find(b), nullptr);
  EXPECT_EQ(query.Count(obs::TraceQuery::Filter{}.Name("coord.op.restart")),
            1u);
  EXPECT_EQ(
      query.Count(obs::TraceQuery::Filter{}.Name("coord.restart.fallback")),
      0u);

  // The restarted agent process and a retry restore the whole job.
  c.agent(1).Reset();
  auto retry = c.RunGenerationRestart(members, options);
  ASSERT_TRUE(retry.stats.success) << retry.stats.abort_reason;
  EXPECT_TRUE(PodProcessLive(c, 0, a));
  EXPECT_TRUE(PodProcessLive(c, 1, b));
}

// A disk failure that hits DURING the background write-out of a forked
// (copy-on-write) checkpoint: the pod resumed at snapshot time, long
// before the write fails. The op must abort, the partial image must be
// GC'd, and the previously committed generation must remain `latest`
// and restorable.
TEST(Fault, DiskFailureDuringCowWriteOutKeepsPriorGeneration) {
  ClusterConfig config;
  config.num_nodes = 2;
  config.node_template.disk_write_bytes_per_sec = 2 * kMiB;
  Cluster c(config);
  os::PodId a = SpawnCounterPod(c, 0, "a");
  os::PodId b = SpawnCounterPod(c, 1, "b");
  // Enough state on node2 that its write-out takes real (simulated) time.
  os::Process* bp = c.node(1).os().FindProcess(c.pods(1).ToRealPid(b, 1));
  Bytes page(os::kPageSize, 0x42);
  for (std::uint64_t i = 0; i < 512; ++i) {
    bp->memory().InstallPage(0x1000 + i, page);
  }
  c.sim().RunFor(10 * kMillisecond);

  coord::Coordinator::Options options;
  options.variant = coord::ProtocolVariant::kOptimized;
  options.copy_on_write = true;
  options.compress = true;
  auto g1 = c.RunGenerationCheckpoint(
      {c.MemberFor(0, a), c.MemberFor(1, b)}, options);
  ASSERT_TRUE(g1.stats.success);

  fault::FaultPlan plan(11);
  plan.ArmDiskWriteFailure("node2");
  c.ArmFaults(plan);
  auto g2 = c.RunGenerationCheckpoint(
      {c.MemberFor(0, a), c.MemberFor(1, b)}, options);
  EXPECT_FALSE(g2.stats.success);
  EXPECT_NE(g2.stats.abort_reason.find("failed"), std::string::npos);
  EXPECT_EQ(g2.generation, 0u);  // discarded, never committed
  EXPECT_EQ(g2.latest_committed, g1.generation);
  EXPECT_EQ(plan.CountEvents(fault::FaultKind::kDiskWriteFail), 1u);

  // The aborted generation's partial images are gone: only generation-1
  // files (plus the SEQ counter) remain under the root.
  ckpt::GenerationStore store(c.fs());
  std::string keep = store.Prefix(g1.generation);
  for (const std::string& path : c.fs().List("/ckpt/gens/")) {
    EXPECT_TRUE(path == "/ckpt/gens/SEQ" || path.rfind(keep, 0) == 0)
        << path;
  }

  // Both pods kept running (the failed member was resumed on abort, the
  // healthy one never noticed), and generation 1 restores cleanly.
  c.sim().RunFor(10 * kMillisecond);
  EXPECT_TRUE(PodProcessLive(c, 0, a));
  EXPECT_TRUE(PodProcessLive(c, 1, b));
  c.pods(0).DestroyPod(a);
  c.pods(1).DestroyPod(b);
  auto rs = c.RunGenerationRestart({c.MemberFor(0, a), c.MemberFor(1, b)});
  EXPECT_TRUE(rs.stats.success);
  EXPECT_FALSE(rs.fell_back);
  EXPECT_EQ(rs.generation, g1.generation);
}

// An agent process crash in the middle of the background write-out: the
// pod has already resumed and its TCP stream keeps flowing; heartbeats
// detect the dead agent, the op aborts, the partial image is GC'd, the
// prior generation stays `latest`, and the stream drains intact.
TEST(Fault, AgentCrashDuringCowWriteOutLeavesStreamClean) {
  ClusterConfig config;
  config.num_nodes = 2;
  config.node_template.disk_write_bytes_per_sec = 2 * kMiB;
  Cluster c(config);
  os::PodId rp = c.CreatePod(1, "recv");
  net::Ipv4Address rip = c.pods(1).Find(rp)->ip;
  // Bursty consumer (64 KiB per 20 ms): the 16 MiB stream stays active
  // for several simulated seconds — far longer than the write-out.
  os::Pid rv = c.pods(1).SpawnInPod(
      rp, "cruz.stream_receiver",
      apps::StreamReceiverArgs(9100, 20 * kMillisecond, 64 * 1024));
  c.sim().RunFor(5 * kMillisecond);
  os::PodId sp = c.CreatePod(0, "send");
  c.pods(0).SpawnInPod(sp, "cruz.stream_sender",
                       apps::StreamSenderArgs(rip, 9100, 16 * kMiB));
  auto status = [&] {
    os::Process* p =
        c.node(1).os().FindProcess(c.pods(1).ToRealPid(rp, rv));
    return p != nullptr ? apps::ReadStreamStatus(*p) : apps::StreamStatus{};
  };
  ASSERT_TRUE(c.sim().RunWhile(
      [&] { return status().bytes > 256 * 1024; },
      c.sim().Now() + 60 * kSecond));

  // Pad the receiver pod with incompressible state so even the compressed
  // write-out takes ~1 s on the slow disk.
  os::Process* rproc =
      c.node(1).os().FindProcess(c.pods(1).ToRealPid(rp, rv));
  for (std::uint64_t i = 0; i < 512; ++i) {
    Bytes page(os::kPageSize);
    for (std::size_t j = 0; j < page.size(); ++j) {
      page[j] = static_cast<std::uint8_t>(j * 7 + i * 131 + 3);
    }
    rproc->memory().InstallPage(0x1000 + i, page);
  }

  coord::Coordinator::Options options;
  options.variant = coord::ProtocolVariant::kOptimized;
  options.copy_on_write = true;
  options.compress = true;
  options.retransmit_interval = 500 * kMillisecond;
  options.heartbeat_interval = 200 * kMillisecond;
  options.max_missed_heartbeats = 2;
  options.timeout = 60 * kSecond;
  auto g1 = c.RunGenerationCheckpoint(
      {c.MemberFor(0, sp), c.MemberFor(1, rp)}, options);
  ASSERT_TRUE(g1.stats.success);

  // Crash node2's agent 300 ms into the next checkpoint: far inside its
  // background write-out window (the snapshot itself takes microseconds,
  // the disk write around a second).
  fault::FaultPlan plan(13);
  plan.ArmAgentCrashAt(1, c.sim().Now() + 300 * kMillisecond);
  c.ArmFaults(plan);
  TimeNs before = c.sim().Now();
  auto g2 = c.RunGenerationCheckpoint(
      {c.MemberFor(0, sp), c.MemberFor(1, rp)}, options);
  EXPECT_FALSE(g2.stats.success);
  EXPECT_NE(g2.stats.abort_reason.find("unresponsive"), std::string::npos);
  EXPECT_LT(c.sim().Now() - before, 10 * kSecond);
  EXPECT_EQ(g2.generation, 0u);
  EXPECT_EQ(g2.latest_committed, g1.generation);
  EXPECT_EQ(plan.CountEvents(fault::FaultKind::kAgentCrash), 1u);
  EXPECT_TRUE(c.agent(1).crashed());

  // The aborted generation (including the crashed agent's partial image)
  // was garbage-collected wholesale.
  ckpt::GenerationStore store(c.fs());
  std::string keep = store.Prefix(g1.generation);
  for (const std::string& path : c.fs().List("/ckpt/gens/")) {
    EXPECT_TRUE(path == "/ckpt/gens/SEQ" || path.rfind(keep, 0) == 0)
        << path;
  }

  // The receiver pod resumed before the crash; after the agent process
  // restarts, the stream drains to completion without a corrupted byte.
  c.agent(1).Reset();
  apps::StreamStatus last;
  ASSERT_TRUE(c.sim().RunWhile(
      [&] {
        auto s = status();
        if (s.bytes != 0) last = s;
        return last.bytes >= 16 * kMiB;
      },
      c.sim().Now() + 600 * kSecond));
  EXPECT_EQ(last.mismatches, 0u);
}

// Chaos on the post-copy page channel: every page request and response
// is subject to seeded loss, duplication, and delay. The protocol must
// stall-then-recover — retransmit timers re-request lost fetches, the
// push loop re-pushes lost responses — and the recovered pod's final
// memory must still be bit-identical to the fault-free reference model.
TEST(Fault, PageChannelLossDupDelayStallsThenRecovers) {
  for (ckpt::MigrateMode mode :
       {ckpt::MigrateMode::kPostCopy, ckpt::MigrateMode::kHybrid}) {
    fault::FaultPlan plan(17);
    plan.ArmMessageLoss(0.25);
    plan.ArmMessageDuplication(0.25);
    plan.ArmMessageDelay(0.25, 1 * kMillisecond);

    ckpt::testing::ScribProfile profile = ckpt::testing::ProfileFromSeed(5);
    ckpt::LiveMigrateOptions options;
    options.hot_window = 200 * kMicrosecond;
    options.injector = &plan;
    ckpt::testing::ModeRun run =
        ckpt::testing::RunScribblerMigration(profile, mode, options);

    ASSERT_TRUE(run.migrated);
    ASSERT_TRUE(run.completed);
    // Lost requests were re-requested; the run still converged.
    EXPECT_GT(run.stats.requests_retransmitted, 0u);
    EXPECT_GT(plan.CountEvents(fault::FaultKind::kMessageDrop), 0u);
    // Nothing lost, nothing served after release, accounting balanced.
    EXPECT_EQ(run.stats.late_serves, 0u);
    EXPECT_EQ(run.stats.pages_resident_at_resume +
                  run.stats.pages_fetched_on_demand + run.stats.pages_pushed,
              run.stats.pages_total);
    // The decisive check: chaos changed timings, not contents.
    cruz::Bytes args = ckpt::testing::ScribblerArgs(
        profile.scribble_seed, profile.iterations, profile.pool_pages);
    ckpt::testing::ScribExpectation expected =
        ckpt::testing::ExpectedScribblerState(profile, args);
    EXPECT_EQ(run.checksum, expected.checksum);
    EXPECT_EQ(run.image, expected.image);
  }
}

// Source-node crash in the middle of demand paging: the target pod
// stalls cleanly (parked on its fault, no crash, no torn state), a
// checkpoint of the half-resident pod is refused cleanly, and the pod is
// restartable from the latest committed generation with zero orphan
// images left behind.
TEST(Fault, SourceCrashMidDemandPagingFailsCleanlyAndRestarts) {
  ckpt::testing::RegisterScribbler();
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  os::PodId id = c.CreatePod(0, "scrib");
  c.pods(0).SpawnInPod(
      id, "harness.scribbler",
      ckpt::testing::ScribblerArgs(3, std::uint64_t{1} << 40, 96));
  os::Process* scrib = c.node(0).os().FindProcess(c.pods(0).ToRealPid(id, 1));
  cruz::Bytes page(os::kPageSize, 0x55);
  for (std::uint64_t i = 0; i < 1024; ++i) {
    scrib->memory().InstallPage(ckpt::testing::kScribBallastPage + i, page);
  }
  c.sim().RunFor(20 * kMillisecond);

  // Committed safety net: generation G of the running pod.
  auto g = c.RunGenerationCheckpoint({c.MemberFor(0, id)});
  ASSERT_TRUE(g.stats.success);
  ASSERT_GT(g.generation, 0u);

  // Post-copy migrate 0 -> 1; kill the source right as demand paging
  // begins (stop at +0.2 ms, hot-set transfer ~1.5 ms, so +2.5 ms is
  // moments after the resume, with nearly all of the residue missing),
  // rebooting later.
  fault::FaultPlan plan(19);
  plan.ArmNodeCrash(0, c.sim().Now() + 2500 * kMicrosecond,
                    /*reboot_after=*/50 * kMillisecond);
  c.ArmFaults(plan);
  ckpt::LiveMigrateOptions options;
  options.hot_window = 200 * kMicrosecond;
  bool done = false;
  ckpt::LiveMigrator::MigrateWithMode(
      c.pods(0), c.pods(1), id, ckpt::MigrateMode::kPostCopy, options,
      [&](const ckpt::LiveMigrateStats&) { done = true; });
  c.sim().RunFor(200 * kMillisecond);
  EXPECT_EQ(plan.CountEvents(fault::FaultKind::kNodeCrash), 1u);
  EXPECT_FALSE(done);  // the migration can never reach full residency

  // The target pod exists but is parked on a demand fetch that will
  // never be served — stalled, not crashed, not torn.
  os::Pid real = c.pods(1).ToRealPid(id, 1);
  ASSERT_NE(real, os::kNoPid);
  os::Process* stuck = c.node(1).os().FindProcess(real);
  ASSERT_NE(stuck, nullptr);
  EXPECT_TRUE(stuck->memory().HasMissingPages());
  std::uint64_t frozen_count = stuck->memory().ReadU64(apps::kStatusAddr);
  c.sim().RunFor(50 * kMillisecond);
  EXPECT_EQ(stuck->memory().ReadU64(apps::kStatusAddr), frozen_count);

  // A checkpoint of the half-resident pod is refused cleanly by the
  // agent (no partial image, no crash), leaving gen G untouched.
  auto bad = c.RunGenerationCheckpoint({c.MemberFor(1, id)});
  EXPECT_FALSE(bad.stats.success);
  EXPECT_EQ(bad.latest_committed, g.generation);

  // Zero orphans: everything under the generation root still belongs to
  // the committed generation.
  ckpt::GenerationStore store(c.fs());
  std::string keep = store.Prefix(g.generation);
  for (const std::string& path : c.fs().List("/ckpt/gens/")) {
    EXPECT_TRUE(path == "/ckpt/gens/SEQ" || path.rfind(keep, 0) == 0)
        << path;
  }

  // Recovery: abandon the stuck copy and restart from gen G on the
  // rebooted source node. The pod must run and make progress.
  c.pods(1).DestroyPod(id);
  c.sim().RunFor(10 * kMillisecond);
  ASSERT_FALSE(c.node(0).failed());  // rebooted
  auto rs = c.RunGenerationRestart({c.MemberFor(0, id)});
  EXPECT_TRUE(rs.stats.success);
  EXPECT_EQ(rs.generation, g.generation);
  os::Pid back = c.pods(0).ToRealPid(id, 1);
  ASSERT_NE(back, os::kNoPid);
  os::Process* proc = c.node(0).os().FindProcess(back);
  ASSERT_NE(proc, nullptr);
  std::uint64_t before = proc->memory().ReadU64(apps::kStatusAddr);
  c.sim().RunFor(20 * kMillisecond);
  EXPECT_GT(proc->memory().ReadU64(apps::kStatusAddr), before);
}

}  // namespace
}  // namespace cruz
