// End-to-end assertions on the exported trace of a coordinated
// checkpoint: the Fig. 2 phase ordering (freeze strictly precedes
// commit, local saves happen inside freeze, continues inside commit),
// the communication-silence guarantee (no pod TCP traffic delivered
// while the packet filters are up), injected faults appearing on the
// same timeline, and byte-identical exports across same-seed runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "apps/programs.h"
#include "ckpt/live_migrate.h"
#include "cruz/cluster.h"
#include "fault/fault.h"
#include "golden_util.h"
#include "migrate_harness.h"
#include "obs/trace_query.h"

namespace cruz {
namespace {

using obs::TraceEvent;
using obs::TraceQuery;

os::PodId SpawnCounterPod(Cluster& c, std::size_t node,
                          const std::string& name) {
  os::PodId id = c.CreatePod(node, name);
  c.pods(node).SpawnInPod(id, "cruz.counter", apps::CounterArgs(1u << 30));
  return id;
}

// Fig. 2: the blocking protocol's phases, read back from the trace. The
// freeze span (checkpoint request through last <done>) must fully close
// before the commit span (first <continue> through last <continue-done>)
// opens, every agent's save span must sit inside freeze, and every
// continue span inside commit.
TEST(TracePipeline, Fig2PhaseOrderingFromTrace) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  os::PodId a = SpawnCounterPod(c, 0, "a");
  os::PodId b = SpawnCounterPod(c, 1, "b");
  c.sim().RunFor(10 * kMillisecond);

  auto stats =
      c.RunCheckpoint({c.MemberFor(0, a), c.MemberFor(1, b)});
  ASSERT_TRUE(stats.success);
  ASSERT_NE(stats.op_id, 0u);

  TraceQuery q(c.sim().tracer());
  const TraceEvent* op = q.First(
      TraceQuery::Filter{}.Name("coord.op.checkpoint").Op(stats.op_id));
  const TraceEvent* freeze = q.First(
      TraceQuery::Filter{}.Name("coord.phase.freeze").Op(stats.op_id));
  const TraceEvent* commit = q.First(
      TraceQuery::Filter{}.Name("coord.phase.commit").Op(stats.op_id));
  ASSERT_NE(op, nullptr);
  ASSERT_NE(freeze, nullptr);
  ASSERT_NE(commit, nullptr);

  // Phase ordering: freeze ends before commit begins; both lie inside
  // the operation span.
  EXPECT_LE(freeze->end_ts(), commit->ts);
  EXPECT_TRUE(TraceQuery::Within(*freeze, *op));
  EXPECT_TRUE(TraceQuery::Within(*commit, *op));

  // One save and one continue span per member, contained in their phase.
  std::vector<const TraceEvent*> saves =
      q.Select(TraceQuery::Filter{}.Name("agent.save").Op(stats.op_id));
  std::vector<const TraceEvent*> continues = q.Select(
      TraceQuery::Filter{}.Name("agent.continue").Op(stats.op_id));
  ASSERT_EQ(saves.size(), 2u);
  ASSERT_EQ(continues.size(), 2u);
  for (const TraceEvent* save : saves) {
    EXPECT_TRUE(TraceQuery::Within(*save, *freeze))
        << "agent.save for " << save->attrs.agent << " outside freeze";
  }
  for (const TraceEvent* cont : continues) {
    EXPECT_TRUE(TraceQuery::Within(*cont, *commit))
        << "agent.continue for " << cont->attrs.agent << " outside commit";
  }

  // Stop-the-world downtime is the save itself: the span sits inside
  // freeze and closes with the local checkpoint.
  std::vector<const TraceEvent*> downtimes = q.Select(
      TraceQuery::Filter{}.Name("agent.downtime").Op(stats.op_id));
  ASSERT_EQ(downtimes.size(), 2u);
  for (const TraceEvent* dt : downtimes) {
    EXPECT_TRUE(TraceQuery::Within(*dt, *freeze));
  }

  // Fig. 2 message complexity on the trace: 2 coordinator sends per
  // member (<checkpoint>, <continue>) and one recv per reply.
  EXPECT_EQ(q.Count(TraceQuery::Filter{}
                        .Name("coord.msg.send")
                        .Op(stats.op_id)),
            4u);
  EXPECT_GE(q.Count(TraceQuery::Filter{}
                        .Name("coord.msg.recv")
                        .Op(stats.op_id)),
            4u);
}

// While the packet filters are up (between every agent's filter install
// and the first resume), no TCP segment may be delivered to a pod
// connection: the stall in Fig. 6 is silence, not queueing at the app.
TEST(TracePipeline, NoPodTrafficDeliveredWhileFiltersUp) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);

  os::PodId recv_pod = c.CreatePod(1, "recv");
  net::Ipv4Address recv_ip = c.pods(1).Find(recv_pod)->ip;
  os::Pid recv_vpid = c.pods(1).SpawnInPod(
      recv_pod, "cruz.stream_receiver", apps::StreamReceiverArgs(9100));
  c.sim().RunFor(5 * kMillisecond);
  os::PodId send_pod = c.CreatePod(0, "send");
  c.pods(0).SpawnInPod(send_pod, "cruz.stream_sender",
                       apps::StreamSenderArgs(recv_ip, 9100, 8 * kMiB));
  std::string pod_ip = recv_ip.ToString();

  auto delivered = [&] {
    os::Pid real = c.pods(1).ToRealPid(recv_pod, recv_vpid);
    os::Process* proc = c.node(1).os().FindProcess(real);
    return proc != nullptr ? apps::ReadStreamStatus(*proc).bytes : 0ull;
  };
  ASSERT_TRUE(c.sim().RunWhile([&] { return delivered() > 512 * 1024; },
                               c.sim().Now() + 60 * kSecond));

  // Record per-segment instants only around the checkpoint window.
  c.sim().tracer().set_verbose(true);
  auto stats = c.RunCheckpoint(
      {c.MemberFor(0, send_pod), c.MemberFor(1, recv_pod)});
  ASSERT_TRUE(stats.success);
  // Run until the sender's retransmission recovers and fresh segments
  // reach the receiver again (new deliveries imply new tcp.rx events).
  std::uint64_t at_ckpt = delivered();
  ASSERT_TRUE(c.sim().RunWhile(
      [&] { return delivered() > at_ckpt + 64 * 1024; },
      c.sim().Now() + 30 * kSecond));
  c.sim().tracer().set_verbose(false);

  TraceQuery q(c.sim().tracer());
  std::vector<const TraceEvent*> installs = q.Select(
      TraceQuery::Filter{}.Name("agent.filter.install").Op(stats.op_id));
  std::vector<const TraceEvent*> resumes = q.Select(
      TraceQuery::Filter{}.Name("agent.resume").Op(stats.op_id));
  ASSERT_EQ(installs.size(), 2u);
  ASSERT_EQ(resumes.size(), 2u);
  TimeNs filters_up = 0, first_resume = ~TimeNs{0};
  for (const TraceEvent* e : installs)
    filters_up = std::max(filters_up, e->ts);
  for (const TraceEvent* e : resumes)
    first_resume = std::min(first_resume, e->ts);
  ASSERT_LT(filters_up, first_resume);

  // Partition the pod connection's rx instants around the silence window.
  std::size_t before = 0, during = 0, after = 0;
  for (const TraceEvent& e : q.events()) {
    if (e.name != "tcp.rx" ||
        e.attrs.conn.find(pod_ip) == std::string::npos) {
      continue;
    }
    if (e.ts <= filters_up) {
      ++before;
    } else if (e.ts < first_resume) {
      ++during;
    } else {
      ++after;
    }
  }
  // Verbose capture saw live traffic on both sides of the window, and
  // absolute silence inside it.
  EXPECT_GT(before, 0u);
  EXPECT_GT(after, 0u);
  EXPECT_EQ(during, 0u);
}

// A chaos run's injected faults land on the same timeline as the
// protocol events they perturb, and retransmissions show up as
// coordinator instants.
TEST(TracePipeline, FaultEventsShareTheTimeline) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  fault::FaultPlan plan(777);
  plan.ArmMessageLoss(0.4);
  c.ArmFaults(plan);

  os::PodId a = SpawnCounterPod(c, 0, "a");
  os::PodId b = SpawnCounterPod(c, 1, "b");
  c.sim().RunFor(10 * kMillisecond);
  coord::Coordinator::Options options;
  options.retransmit_interval = 200 * kMillisecond;
  options.timeout = 60 * kSecond;
  auto stats =
      c.RunCheckpoint({c.MemberFor(0, a), c.MemberFor(1, b)}, options);
  ASSERT_TRUE(stats.success);

  TraceQuery q(c.sim().tracer());
  std::size_t drops = q.Count(TraceQuery::Filter{}.Name("fault.msg-drop"));
  ASSERT_EQ(drops, plan.events().size());
  ASSERT_GT(drops, 0u);
  // Drops were repaired by retransmissions, and both event kinds share
  // one clock: the first retransmit can only follow a preceding drop
  // (nothing else leaves a reply outstanding in this scenario).
  std::vector<const TraceEvent*> rexmits =
      q.Select(TraceQuery::Filter{}.Name("coord.retransmit"));
  ASSERT_FALSE(rexmits.empty());
  const TraceEvent* first_drop =
      q.First(TraceQuery::Filter{}.Name("fault.msg-drop"));
  EXPECT_LE(first_drop->ts, rexmits.front()->ts);
  EXPECT_EQ(c.sim().metrics().counter("coord.retransmits_total").value(),
            rexmits.size());
}

// The determinism contract behind the bench regression gate: two runs of
// the same seeded scenario produce byte-identical trace exports and
// metrics dumps.
TEST(TracePipeline, SameSeedRunsExportIdenticalTraces) {
  auto run = [](std::uint64_t seed) {
    ClusterConfig config;
    config.seed = seed;
    config.num_nodes = 3;
    Cluster c(config);
    fault::FaultPlan plan(seed + 5);
    plan.ArmMessageLoss(0.2);
    c.ArmFaults(plan);
    std::vector<coord::Coordinator::Member> members;
    for (std::size_t n = 0; n < 3; ++n) {
      members.push_back(c.MemberFor(
          n, SpawnCounterPod(c, n, "p" + std::to_string(n))));
    }
    c.sim().RunFor(10 * kMillisecond);
    coord::Coordinator::Options options;
    options.retransmit_interval = 200 * kMillisecond;
    options.timeout = 60 * kSecond;
    c.RunCheckpoint(members, options);
    struct Exports {
      std::string chrome, jsonl, metrics;
    } out{c.sim().tracer().ExportChromeJson(),
          c.sim().tracer().ExportJsonl(),
          c.sim().metrics().ExportJson()};
    return out;
  };

  auto first = run(1234);
  auto second = run(1234);
  EXPECT_EQ(first.chrome, second.chrome);
  EXPECT_EQ(first.jsonl, second.jsonl);
  EXPECT_EQ(first.metrics, second.metrics);
  // Sanity: the export is substantial, not trivially empty-equal.
  EXPECT_GT(first.chrome.size(), 1000u);
  EXPECT_NE(first.jsonl.find("coord.op.checkpoint"), std::string::npos);

  auto other = run(4321);
  EXPECT_NE(first.jsonl, other.jsonl);
}

// Cross-kernel golden: a fixed-seed checkpoint/restart scenario whose
// Chrome-trace and JSONL exports are committed byte-for-byte. Unlike
// SameSeedRunsExportIdenticalTraces (which only proves two runs of the
// *same* binary agree), this pins the output across rewrites of the
// simulator kernel itself — the event-queue/pooling perf pass must
// change zero bytes of it. Verbose per-segment capture is on so the
// highest-volume event class is covered too.
TEST(TracePipeline, GoldenCheckpointRestartExports) {
  ClusterConfig config;
  config.seed = 20260808;
  config.num_nodes = 3;
  Cluster c(config);
  c.sim().tracer().set_verbose(true);

  os::PodId counter = SpawnCounterPod(c, 0, "cnt");
  os::PodId recv_pod = c.CreatePod(2, "recv");
  net::Ipv4Address recv_ip = c.pods(2).Find(recv_pod)->ip;
  c.pods(2).SpawnInPod(recv_pod, "cruz.stream_receiver",
                       apps::StreamReceiverArgs(9200));
  c.sim().RunFor(5 * kMillisecond);
  os::PodId send_pod = c.CreatePod(1, "send");
  c.pods(1).SpawnInPod(send_pod, "cruz.stream_sender",
                       apps::StreamSenderArgs(recv_ip, 9200, 192 * 1024));
  c.sim().RunFor(100 * kMillisecond);

  std::vector<coord::Coordinator::Member> members{
      c.MemberFor(0, counter), c.MemberFor(1, send_pod),
      c.MemberFor(2, recv_pod)};
  auto ckpt = c.RunCheckpoint(members);
  ASSERT_TRUE(ckpt.success);
  c.sim().RunFor(200 * kMillisecond);
  // Tear the pods down (simulated node failure aftermath) and roll the
  // whole ensemble back to the checkpoint.
  c.pods(0).DestroyPod(counter);
  c.pods(1).DestroyPod(send_pod);
  c.pods(2).DestroyPod(recv_pod);
  c.sim().RunFor(50 * kMillisecond);
  auto restart = c.RunRestart(members, ckpt.image_paths);
  ASSERT_TRUE(restart.success);
  c.sim().RunFor(100 * kMillisecond);

  cruz::testing::ExpectMatchesGolden("ckpt_restart_trace.jsonl",
                                     c.sim().tracer().ExportJsonl());
  cruz::testing::ExpectMatchesGolden("ckpt_restart_chrome.json",
                                     c.sim().tracer().ExportChromeJson());
}

// Scripted control-channel faults for the coordination goldens: each
// armed drop loses the first matching transmission once, and one image
// write on one node can be made to fail. No randomness, so the scenario
// pins exact retransmit and abort paths.
class ScriptedFaults : public fault::Injector {
 public:
  struct Drop {
    std::string sender;  // node name
    std::uint32_t dst_ip = 0;
    coord::MsgType type = coord::MsgType::kCheckpoint;
  };
  std::vector<Drop> drops;
  std::string fail_write_node;
  std::uint32_t fail_writes = 0;

  fault::MessageFate OnControlSend(const std::string& sender,
                                   std::uint32_t dst_ip,
                                   std::uint8_t type) override {
    for (auto it = drops.begin(); it != drops.end(); ++it) {
      if (it->sender == sender && it->dst_ip == dst_ip &&
          static_cast<std::uint8_t>(it->type) == type) {
        drops.erase(it);
        fault::MessageFate fate;
        fate.drop = true;
        return fate;
      }
    }
    return {};
  }
  bool FailImageWrite(const std::string& node, const std::string&) override {
    if (node != fail_write_node || fail_writes == 0) return false;
    --fail_writes;
    return true;
  }
};

struct OpSummary {
  std::uint32_t total_messages, coordinator_messages, retransmits, aborts;
  std::string abort_reason;
};

OpSummary Summarize(const coord::Coordinator::OpStats& s) {
  return {s.total_messages, s.coordinator_messages, s.retransmits, s.aborts,
          s.abort_reason};
}

void ExpectSummary(const OpSummary& got, const OpSummary& want,
                   const char* op) {
  EXPECT_EQ(got.total_messages, want.total_messages) << op;
  EXPECT_EQ(got.coordinator_messages, want.coordinator_messages) << op;
  EXPECT_EQ(got.retransmits, want.retransmits) << op;
  EXPECT_EQ(got.aborts, want.aborts) << op;
  EXPECT_EQ(got.abort_reason, want.abort_reason) << op;
}

// Fault-path goldens for the coordination protocol. One script, run over
// a 3-wide tree (fan_out = 3: two shards) and flat, on 6 nodes with the
// Fig. 4 variant, copy-on-write and tiered storage:
//  1. a checkpoint that loses one agent <checkpoint> (the driving
//     coordinator retransmits it) and one upward <shard-done> / <done>
//     (the root retransmits; the sub or agent re-answers from its reply
//     cache);
//  2. a checkpoint in which one agent's image write fails, so it reports
//     <failed> and the op aborts with image GC;
//  3. a restart of every pod from op 1's images.
// The JSONL trace, the metrics dump and each op's message/abort counters
// are pinned, covering the retransmit, reply-cache and abort paths the
// fault-free golden above never reaches.
struct FaultScriptResult {
  OpSummary checkpoint, failed, restart;
  std::string jsonl, metrics;
};

FaultScriptResult RunCoordFaultScript(std::uint32_t fan_out) {
  ClusterConfig config;
  config.seed = 20261017;
  config.num_nodes = 6;
  Cluster c(config);
  ScriptedFaults faults;
  c.coordinator().set_fault_injector(&faults);
  for (std::size_t i = 0; i < c.num_nodes(); ++i) {
    c.agent(i).set_fault_injector(&faults);
    c.shard_coordinator(i).set_fault_injector(&faults);
  }
  std::vector<coord::Coordinator::Member> members;
  std::vector<os::PodId> pods;
  for (std::size_t i = 0; i < c.num_nodes(); ++i) {
    pods.push_back(SpawnCounterPod(c, i, "p" + std::to_string(i)));
    members.push_back(c.MemberFor(i, pods.back()));
  }
  c.sim().RunFor(10 * kMillisecond);

  coord::Coordinator::Options options;
  options.variant = coord::ProtocolVariant::kOptimized;
  options.copy_on_write = true;
  options.tiered = true;
  options.fan_out = fan_out;
  options.retransmit_interval = 300 * kMillisecond;
  options.timeout = 60 * kSecond;

  // Op 1. Tree: the shard-0 sub (node0) loses its <checkpoint> to node1,
  // and the shard-1 sub (node3) loses its <shard-done>. Flat: the root
  // loses its <checkpoint> to node1, and node3's agent loses its <done>.
  const std::uint32_t root_ip = c.coordinator_node().ip().value;
  faults.drops.push_back(
      {fan_out > 0 ? c.node(0).name() : c.coordinator_node().name(),
       c.node(1).ip().value, coord::MsgType::kCheckpoint});
  faults.drops.push_back(
      {c.node(3).name(), root_ip,
       fan_out > 0 ? coord::MsgType::kShardDone : coord::MsgType::kDone});
  options.image_prefix = "/ckpt/faults1";
  auto ckpt = c.RunCheckpoint(members, options);
  EXPECT_TRUE(ckpt.success);
  EXPECT_TRUE(faults.drops.empty());
  c.sim().RunFor(200 * kMillisecond);

  // Op 2: node4's background image write fails.
  faults.fail_write_node = c.node(4).name();
  faults.fail_writes = 1;
  options.image_prefix = "/ckpt/faults2";
  auto failed = c.RunCheckpoint(members, options);
  EXPECT_FALSE(failed.success);
  EXPECT_EQ(faults.fail_writes, 0u);
  EXPECT_TRUE(c.fs().List("/ckpt/faults2/").empty());
  EXPECT_EQ(c.tiered().BytesUnderPrefix("/ckpt/faults2/"), 0u);
  c.sim().RunFor(200 * kMillisecond);

  // Op 3: roll every pod back to op 1's images.
  for (std::size_t i = 0; i < c.num_nodes(); ++i) {
    c.pods(i).DestroyPod(pods[i]);
  }
  c.sim().RunFor(50 * kMillisecond);
  auto restart = c.RunRestart(members, ckpt.image_paths, options);
  EXPECT_TRUE(restart.success);
  c.sim().RunFor(100 * kMillisecond);

  return {Summarize(ckpt), Summarize(failed), Summarize(restart),
          c.sim().tracer().ExportJsonl(), c.sim().metrics().ExportJson()};
}

TEST(TracePipeline, GoldenCoordFaultsTree) {
  FaultScriptResult r = RunCoordFaultScript(/*fan_out=*/3);
  ExpectSummary(r.checkpoint, {43, 6, 2, 0, ""}, "checkpoint");
  ExpectSummary(r.failed, {41, 12, 0, 8, "shard 167772164 failed"},
                "failed checkpoint");
  ExpectSummary(r.restart, {32, 4, 0, 0, ""}, "restart");
  cruz::testing::ExpectMatchesGolden("coord_faults_tree_trace.jsonl",
                                     r.jsonl);
  cruz::testing::ExpectMatchesGolden("coord_faults_tree_metrics.json",
                                     r.metrics);
}

TEST(TracePipeline, GoldenCoordFaultsFlat) {
  FaultScriptResult r = RunCoordFaultScript(/*fan_out=*/0);
  ExpectSummary(r.checkpoint, {32, 14, 2, 0, ""}, "checkpoint");
  ExpectSummary(r.failed, {35, 18, 0, 6, "member 167772165 failed"},
                "failed checkpoint");
  ExpectSummary(r.restart, {24, 12, 0, 0, ""}, "restart");
  cruz::testing::ExpectMatchesGolden("coord_faults_flat_trace.jsonl",
                                     r.jsonl);
  cruz::testing::ExpectMatchesGolden("coord_faults_flat_metrics.json",
                                     r.metrics);
}

// Post-copy migration golden: a fixed-seed scribbler pod migrated with
// demand paging + background push, exports pinned byte-for-byte. Two
// same-binary runs must agree exactly (determinism of the page-channel
// scheduling), and the committed golden pins it across kernel rewrites.
// Covers the migrate.op.*/migrate.downtime/migrate.postcopy.* span
// vocabulary end to end.
TEST(TracePipeline, GoldenPostCopyMigrationExports) {
  auto run = [] {
    ckpt::testing::RegisterScribbler();
    ClusterConfig config;
    config.seed = 20260808;
    config.num_nodes = 2;
    Cluster c(config);
    c.sim().tracer().set_verbose(true);
    ckpt::testing::ScribProfile profile;
    profile.scribble_seed = 11;
    profile.iterations = 4000;
    profile.pool_pages = 64;
    profile.ballast_pages = 128;
    profile.migrate_at = 3 * kMillisecond;
    ckpt::LiveMigrateOptions options;
    options.hot_window = 200 * kMicrosecond;
    os::PodId id = c.CreatePod(0, "scrib");
    c.pods(0).SpawnInPod(
        id, "harness.scribbler",
        ckpt::testing::ScribblerArgs(profile.scribble_seed,
                                     profile.iterations,
                                     profile.pool_pages));
    os::Process* scrib =
        c.node(0).os().FindProcess(c.pods(0).ToRealPid(id, 1));
    cruz::Bytes page(os::kPageSize, 0x42);
    for (std::uint64_t i = 0; i < profile.ballast_pages; ++i) {
      scrib->memory().InstallPage(ckpt::testing::kScribBallastPage + i,
                                  page);
    }
    c.sim().RunFor(profile.migrate_at);
    bool done = false;
    ckpt::LiveMigrator::MigrateWithMode(
        c.pods(0), c.pods(1), id, ckpt::MigrateMode::kPostCopy, options,
        [&](const ckpt::LiveMigrateStats&) { done = true; });
    EXPECT_TRUE(c.sim().RunWhile([&] { return done; },
                                 c.sim().Now() + 600 * kSecond));
    c.sim().RunFor(100 * kMillisecond);
    struct Exports {
      std::string chrome, jsonl;
    } out{c.sim().tracer().ExportChromeJson(),
          c.sim().tracer().ExportJsonl()};
    return out;
  };

  auto first = run();
  auto second = run();
  EXPECT_EQ(first.chrome, second.chrome);
  EXPECT_EQ(first.jsonl, second.jsonl);
  EXPECT_NE(first.jsonl.find("migrate.op.post-copy"), std::string::npos);
  EXPECT_NE(first.jsonl.find("migrate.postcopy.fetch"), std::string::npos);
  EXPECT_NE(first.jsonl.find("migrate.postcopy.resume"), std::string::npos);
  cruz::testing::ExpectMatchesGolden("postcopy_migrate_trace.jsonl",
                                     first.jsonl);
  cruz::testing::ExpectMatchesGolden("postcopy_migrate_chrome.json",
                                     first.chrome);
}

}  // namespace
}  // namespace cruz
