// Tests for the causal analysis layer (src/obs/causal): the
// correlation-id join that turns *.msg.send / *.msg.recv instants into
// happens-before edges, the critical-path analyzer's exact phase tiling
// and straggler attribution, the deterministic analyzer output contract,
// and the crash-scoped flight recorder, including replaying a recorded
// violation from the repro string embedded in the artifact, and the
// metrics-snapshot import behind cruz_analyze --metrics.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/programs.h"
#include "check/explorer.h"
#include "ckpt/live_migrate.h"
#include "cruz/cluster.h"
#include "fault/fault.h"
#include "migrate_harness.h"
#include "obs/causal/causal_graph.h"
#include "obs/causal/critical_path.h"
#include "obs/causal/flight_recorder.h"
#include "obs/causal/json_lite.h"
#include "obs/causal/metrics_io.h"
#include "obs/causal/slo_report.h"
#include "obs/causal/trace_io.h"
#include "obs/trace_query.h"

namespace cruz {
namespace {

using obs::TraceAttrs;
using obs::TraceEvent;
using obs::TraceQuery;
using obs::Tracer;
using obs::causal::CausalGraph;
using obs::causal::CriticalPathAnalyzer;
using obs::causal::FlightRecorder;
using obs::causal::FlightRecorderOptions;
using obs::causal::FlightTrigger;
using obs::causal::ImportJsonl;
using obs::causal::ImportMetricsJson;
using obs::causal::JsonValue;
using obs::causal::OpBreakdown;
using obs::causal::ParseJson;
using obs::causal::PhaseTotal;

// A tracer driven by a hand-cranked clock, so tests control timestamps.
struct ClockedTracer {
  TimeNs now = 0;
  Tracer tracer;

  ClockedTracer() {
    tracer.SetClock([this] { return now; });
  }

  std::vector<TraceEvent> Events() const {
    return std::vector<TraceEvent>(tracer.events().begin(),
                                   tracer.events().end());
  }
};

os::PodId SpawnCounterPod(Cluster& c, std::size_t node,
                          const std::string& name) {
  os::PodId id = c.CreatePod(node, name);
  c.pods(node).SpawnInPod(id, "cruz.counter", apps::CounterArgs(1u << 30));
  return id;
}

DurationNs AttributedSum(const OpBreakdown& b) {
  DurationNs sum = 0;
  for (const PhaseTotal& p : b.phases) sum += p.total;
  return sum;
}

const PhaseTotal* FindPhase(const OpBreakdown& b, const std::string& name) {
  for (const PhaseTotal& p : b.phases) {
    if (p.phase == name) return &p;
  }
  return nullptr;
}

// Fault residue stays honest: a wire duplicate joins the same send twice
// (second edge flagged), a dropped transmission is a send with no recv,
// and a recv with an unknown or missing corr id stays unmatched. None of
// these may ever turn into a mis-join.
TEST(CausalGraph, DuplicatedAndDroppedMessagesLeaveHonestResidue) {
  ClockedTracer t;
  t.now = 100;
  t.tracer.Instant("coord", "coord.msg.send",
                   TraceAttrs{}
                       .Op(1)
                       .Agent("coordinator")
                       .Arg("type", "checkpoint")
                       .Arg("corr", "1:checkpoint:10.0.0.99:1"));
  t.now = 150;
  t.tracer.Instant("agent", "agent.msg.recv",
                   TraceAttrs{}
                       .Op(1)
                       .Agent("node1")
                       .Arg("type", "checkpoint")
                       .Arg("corr", "1:checkpoint:10.0.0.99:1"));
  t.now = 160;  // the same datagram again: a wire duplicate
  t.tracer.Instant("agent", "agent.msg.recv",
                   TraceAttrs{}
                       .Op(1)
                       .Agent("node1")
                       .Arg("type", "checkpoint")
                       .Arg("corr", "1:checkpoint:10.0.0.99:1"));
  t.now = 200;  // dropped on the wire: no recv will join it
  t.tracer.Instant("coord", "coord.msg.send",
                   TraceAttrs{}
                       .Op(1)
                       .Agent("coordinator")
                       .Arg("type", "checkpoint")
                       .Arg("corr", "1:checkpoint:10.0.0.99:2"));
  t.now = 250;  // no such send in the window
  t.tracer.Instant("agent", "agent.msg.recv",
                   TraceAttrs{}
                       .Op(1)
                       .Agent("node2")
                       .Arg("type", "done")
                       .Arg("corr", "1:done:10.0.0.3:9"));
  t.now = 260;  // pre-correlation sender: no corr arg at all
  t.tracer.Instant("agent", "agent.msg.recv",
                   TraceAttrs{}.Op(1).Agent("node2").Arg("type", "done"));

  CausalGraph g = CausalGraph::Build(t.Events());
  EXPECT_EQ(g.stats().sends, 2u);
  EXPECT_EQ(g.stats().recvs, 4u);
  EXPECT_EQ(g.stats().matched, 2u);
  EXPECT_EQ(g.stats().duplicate_recvs, 1u);
  EXPECT_EQ(g.stats().unmatched_sends, 1u);
  EXPECT_EQ(g.stats().unmatched_recvs, 2u);
  EXPECT_EQ(g.stats().mis_joins, 0u);

  ASSERT_EQ(g.edges().size(), 2u);
  EXPECT_FALSE(g.edges()[0].duplicate);
  EXPECT_TRUE(g.edges()[1].duplicate);
  EXPECT_EQ(g.edges()[0].send, g.edges()[1].send);
  EXPECT_EQ(g.RecvsFor(g.edges()[0].send).size(), 2u);
  ASSERT_EQ(g.UnmatchedSends().size(), 1u);
  EXPECT_EQ(obs::causal::EventArg(g.events()[g.UnmatchedSends()[0]], "corr"),
            "1:checkpoint:10.0.0.99:2");
}

// A corr id that resolves to a send disagreeing on op or message type is
// an instrumentation bug, not an edge: the join is refused and counted.
TEST(CausalGraph, DisagreeingJoinIsRefusedAsMisJoin) {
  ClockedTracer t;
  t.now = 100;
  t.tracer.Instant("agent", "agent.msg.send",
                   TraceAttrs{}
                       .Op(1)
                       .Agent("node1")
                       .Arg("type", "done")
                       .Arg("corr", "1:done:10.0.0.2:1"));
  t.now = 150;  // same corr id, different message type
  t.tracer.Instant("coord", "coord.msg.recv",
                   TraceAttrs{}
                       .Op(1)
                       .Agent("coordinator")
                       .Arg("type", "continue")
                       .Arg("corr", "1:done:10.0.0.2:1"));
  t.now = 160;  // same corr id, different op
  t.tracer.Instant("coord", "coord.msg.recv",
                   TraceAttrs{}
                       .Op(2)
                       .Agent("coordinator")
                       .Arg("type", "done")
                       .Arg("corr", "1:done:10.0.0.2:1"));

  CausalGraph g = CausalGraph::Build(t.Events());
  EXPECT_EQ(g.stats().mis_joins, 2u);
  EXPECT_EQ(g.stats().matched, 0u);
  EXPECT_TRUE(g.edges().empty());
  EXPECT_EQ(g.stats().unmatched_sends, 1u);
}

// On a real checkpoint under message loss, every fault.msg-drop shows up
// as exactly one unmatched send (the transmission's send instant with no
// recv) and nothing else: retransmissions are separate transmissions
// with their own corr ids, so there are no duplicates and no mis-joins.
TEST(CausalGraph, CheckpointDropsShowAsUnmatchedSends) {
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
  ASSERT_GT(drops, 0u);

  const auto& ring = c.sim().tracer().events();
  CausalGraph g = CausalGraph::Build(
      std::vector<TraceEvent>(ring.begin(), ring.end()));
  EXPECT_EQ(g.stats().unmatched_sends, drops);
  EXPECT_EQ(g.stats().matched, g.stats().sends - drops);
  EXPECT_EQ(g.stats().duplicate_recvs, 0u);
  EXPECT_EQ(g.stats().unmatched_recvs, 0u);
  EXPECT_EQ(g.stats().mis_joins, 0u);
}

// The satellite straggler scenario: four nodes, one with a disk an order
// of magnitude slower. The analyzer must (a) tile the op's wall time
// exactly, (b) charge the slowdown to the save phase — not to
// commit-wait — and (c) name the slow node as the save straggler.
TEST(CriticalPath, SlowDiskStragglerIsChargedToSavePhase) {
  ClusterConfig config;
  config.num_nodes = 4;
  Cluster c(config);
  // node3 (index 2) writes at 32 KiB/s against the 80 MiB/s default.
  c.node(2).set_disk_write_bytes_per_sec(32 * 1024);

  std::vector<coord::Coordinator::Member> members;
  for (std::size_t n = 0; n < 4; ++n) {
    members.push_back(
        c.MemberFor(n, SpawnCounterPod(c, n, "p" + std::to_string(n))));
  }
  c.sim().RunFor(10 * kMillisecond);
  auto stats = c.RunCheckpoint(members);
  ASSERT_TRUE(stats.success);

  const auto& ring = c.sim().tracer().events();
  CausalGraph g = CausalGraph::Build(
      std::vector<TraceEvent>(ring.begin(), ring.end()));
  EXPECT_EQ(g.stats().mis_joins, 0u);
  CriticalPathAnalyzer analyzer(g);
  auto b = analyzer.AnalyzeOp(stats.op_id);
  ASSERT_TRUE(b.has_value());
  EXPECT_TRUE(b->success);

  // Exact tiling: phase totals sum to the wall time by construction, and
  // effectively everything is explained.
  EXPECT_EQ(AttributedSum(*b), b->wall());
  EXPECT_LT(b->unattributed * 100, b->wall());

  const PhaseTotal* save = FindPhase(*b, "save-downtime");
  ASSERT_NE(save, nullptr);
  EXPECT_EQ(save->straggler, "node3");
  EXPECT_GT(save->total, b->wall() / 2);
  EXPECT_GT(save->straggler_ns, b->wall() / 2);
  // The slowdown lives in the save, not in the commit exchange.
  EXPECT_LT(b->PhaseNs("commit-wait"), save->total / 10);
}

// Fig. 4: under the optimized protocol with copy-on-write capture the
// coordinator broadcasts <continue> as soon as communication is down, so
// the op's completion is gated by the background write-out and
// commit-wait leaves the critical path entirely. The blocking protocol
// keeps it there.
TEST(CriticalPath, EarlyContinueRemovesCommitWaitFromCriticalPath) {
  auto run = [](coord::ProtocolVariant variant, bool cow) {
    ClusterConfig config;
    config.num_nodes = 2;
    // Slow disk: the write-out dominates the commit exchange by orders
    // of magnitude, as in the paper's testbed.
    config.node_template.disk_write_bytes_per_sec = 64 * 1024;
    Cluster c(config);
    os::PodId a = SpawnCounterPod(c, 0, "a");
    os::PodId b = SpawnCounterPod(c, 1, "b");
    c.sim().RunFor(10 * kMillisecond);
    coord::Coordinator::Options options;
    options.variant = variant;
    options.copy_on_write = cow;
    auto stats =
        c.RunCheckpoint({c.MemberFor(0, a), c.MemberFor(1, b)}, options);
    EXPECT_TRUE(stats.success);
    const auto& ring = c.sim().tracer().events();
    CausalGraph g = CausalGraph::Build(
        std::vector<TraceEvent>(ring.begin(), ring.end()));
    CriticalPathAnalyzer analyzer(g);
    auto breakdown = analyzer.AnalyzeOp(stats.op_id);
    EXPECT_TRUE(breakdown.has_value());
    return *breakdown;
  };

  OpBreakdown blocking = run(coord::ProtocolVariant::kBlocking, false);
  EXPECT_EQ(AttributedSum(blocking), blocking.wall());
  EXPECT_GT(blocking.PhaseNs("commit-wait"), 0u);
  EXPECT_EQ(blocking.PhaseNs("save-background"), 0u);

  OpBreakdown early = run(coord::ProtocolVariant::kOptimized, true);
  EXPECT_EQ(AttributedSum(early), early.wall());
  EXPECT_EQ(early.PhaseNs("commit-wait"), 0u);
  EXPECT_GT(early.PhaseNs("save-background"), 0u);
}

// Tiered restarts: the analyzer attributes every restored image to the
// tier it was actually read from, and the attribution survives the JSONL
// export round trip cruz_analyze consumes.
TEST(CriticalPath, TieredRestartAttributesRestoreSources) {
  ClusterConfig config;
  config.num_nodes = 3;
  Cluster c(config);
  os::PodId a = SpawnCounterPod(c, 0, "a");
  os::PodId b = SpawnCounterPod(c, 1, "b");
  c.sim().RunFor(10 * kMillisecond);

  coord::Coordinator::Options options;
  options.tiered = true;
  c.fs().set_available(false);  // only the disk tiers can serve restores
  auto ckpt = c.RunGenerationCheckpoint(
      {c.MemberFor(0, a), c.MemberFor(1, b)}, options);
  ASSERT_TRUE(ckpt.stats.success);
  c.node(0).Fail();
  c.pods(1).DestroyPod(b);
  c.sim().RunFor(5 * kMillisecond);
  // Pod a lands on node3 (partner copy), pod b back on node2 (local).
  auto restart = c.RunGenerationRestart(
      {c.MemberFor(2, a), c.MemberFor(1, b)}, options);
  ASSERT_TRUE(restart.stats.success);

  obs::causal::ImportStats import_stats;
  CausalGraph g = CausalGraph::Build(obs::causal::ImportJsonl(
      c.sim().tracer().ExportJsonl(), &import_stats));
  CriticalPathAnalyzer analyzer(g);
  auto bd = analyzer.AnalyzeOp(restart.stats.op_id);
  ASSERT_TRUE(bd.has_value());
  EXPECT_EQ(bd->kind, "restart");
  ASSERT_EQ(bd->restore_sources.size(), 2u);
  EXPECT_EQ(bd->restore_sources[0].node, "node2");
  EXPECT_EQ(bd->restore_sources[0].source, "local");
  EXPECT_EQ(bd->restore_sources[1].node, "node3");
  EXPECT_EQ(bd->restore_sources[1].source, "partner");

  std::string report = CriticalPathAnalyzer::RenderReport({*bd}, g.stats());
  EXPECT_NE(report.find("restore-sources:"), std::string::npos);
  EXPECT_NE(report.find("node3=partner"), std::string::npos);
  std::string json = CriticalPathAnalyzer::RenderJson({*bd}, g.stats());
  EXPECT_NE(json.find("\"restore_sources\":[{\"node\":\"node2\""),
            std::string::npos);
}

// The determinism contract of the analyzer: the same seeded scenario
// yields a byte-identical report, and importing the exported JSONL back
// through ImportJsonl yields the same report as analyzing the live ring
// (the canonical (ts, node, seq) order erases the round trip).
TEST(CriticalPath, SameSeedAnalyzerReportsAreByteIdentical) {
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

    const auto& ring = c.sim().tracer().events();
    CausalGraph live = CausalGraph::Build(
        std::vector<TraceEvent>(ring.begin(), ring.end()));
    CriticalPathAnalyzer live_analyzer(live);
    std::string live_report = CriticalPathAnalyzer::RenderReport(
        live_analyzer.AnalyzeAll(), live.stats());

    obs::causal::ImportStats import_stats;
    CausalGraph imported = CausalGraph::Build(
        ImportJsonl(c.sim().tracer().ExportJsonl(), &import_stats));
    EXPECT_EQ(import_stats.skipped, 0u);
    EXPECT_EQ(import_stats.events, ring.size());
    CriticalPathAnalyzer imported_analyzer(imported);
    std::string imported_report = CriticalPathAnalyzer::RenderReport(
        imported_analyzer.AnalyzeAll(), imported.stats());
    EXPECT_EQ(live_report, imported_report);

    std::string json = CriticalPathAnalyzer::RenderJson(
        live_analyzer.AnalyzeAll(), live.stats());
    return live_report + "\n---\n" + json;
  };

  std::string first = run(1234);
  std::string second = run(1234);
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("causal critical-path report"), std::string::npos);
  EXPECT_NE(first.find("save-downtime"), std::string::npos);
}

// Capture() keeps only events overlapping the pre-fault window, bounds
// the artifact size (oldest dropped first, marked truncated), and embeds
// the causal slice alongside the trigger metadata.
TEST(FlightRecorder, CaptureBoundsWindowAndJoinsEdges) {
  ClockedTracer t;
  t.now = 1000;  // ancient: falls out of the window
  t.tracer.Instant("tcp", "tcp.rto");
  t.now = 9000;
  t.tracer.Instant("coord", "coord.msg.send",
                   TraceAttrs{}
                       .Op(3)
                       .Agent("coordinator")
                       .Arg("type", "checkpoint")
                       .Arg("corr", "3:checkpoint:10.0.0.99:1"));
  t.now = 9500;
  t.tracer.Instant("agent", "agent.msg.recv",
                   TraceAttrs{}
                       .Op(3)
                       .Agent("node1")
                       .Arg("type", "checkpoint")
                       .Arg("corr", "3:checkpoint:10.0.0.99:1"));

  FlightTrigger trigger;
  trigger.ts = 10000;
  trigger.op = 3;
  trigger.kind = "invariant-violation";
  trigger.detail = "comm-silence: segment delivered while filters up";
  trigger.repro = "cruzrepro1 seed=1 nodes=2";
  FlightRecorderOptions options;
  options.window = 2000;

  std::string record = FlightRecorder::Capture(t.Events(), trigger, options);
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(record, doc, error)) << error;
  const JsonValue* window = doc.Find("window");
  ASSERT_NE(window, nullptr);
  EXPECT_EQ(window->Find("begin_ns")->AsU64(), 8000u);
  EXPECT_EQ(window->Find("end_ns")->AsU64(), 10000u);
  EXPECT_EQ(window->Find("events")->AsU64(), 2u);
  EXPECT_FALSE(window->Find("truncated")->boolean);
  const JsonValue* trig = doc.Find("trigger");
  ASSERT_NE(trig, nullptr);
  EXPECT_EQ(trig->Find("kind")->text, "invariant-violation");
  EXPECT_EQ(trig->Find("repro")->text, "cruzrepro1 seed=1 nodes=2");
  const JsonValue* causal = doc.Find("causal");
  ASSERT_NE(causal, nullptr);
  EXPECT_EQ(causal->Find("stats")->Find("matched")->AsU64(), 1u);
  EXPECT_EQ(causal->Find("edges")->items.size(), 1u);

  // A hard cap drops the oldest events first and flags the artifact.
  options.max_events = 1;
  record = FlightRecorder::Capture(t.Events(), trigger, options);
  ASSERT_TRUE(ParseJson(record, doc, error)) << error;
  EXPECT_EQ(doc.Find("window")->Find("events")->AsU64(), 1u);
  EXPECT_TRUE(doc.Find("window")->Find("truncated")->boolean);
  ASSERT_EQ(doc.Find("events")->items.size(), 1u);
  EXPECT_EQ(doc.Find("events")->items[0].Find("name")->text,
            "agent.msg.recv");
}

// End to end through the explorer: an injected protocol bug trips the
// oracle, the run ships a flight recording whose trigger names the
// violation and embeds the repro string — and decoding that exact string
// replays the run to the same violation.
TEST(FlightRecorder, ExplorerViolationProducesReplayableRecording) {
  check::RunOptions options;
  options.mutation = check::Mutation::kDuplicateContinue;
  check::Explorer explorer(options);
  auto scenario = check::Scenario::Decode(
      "cruzrepro1 seed=4 nodes=2 wl=2 units=4000 op=0,10,0,0,0,0,0");
  ASSERT_TRUE(scenario.has_value());

  check::RunResult run = explorer.RunScenario(*scenario);
  ASSERT_FALSE(run.passed);
  ASSERT_FALSE(run.violations.empty());
  ASSERT_FALSE(run.trace_jsonl.empty());
  ASSERT_FALSE(run.flight_record.empty());

  // The recorded trace feeds the analyzer unchanged.
  CausalGraph g = CausalGraph::Build(ImportJsonl(run.trace_jsonl));
  EXPECT_EQ(g.stats().mis_joins, 0u);
  EXPECT_GT(g.stats().matched, 0u);

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(run.flight_record, doc, error)) << error;
  const JsonValue* trigger = doc.Find("trigger");
  ASSERT_NE(trigger, nullptr);
  EXPECT_EQ(trigger->Find("kind")->text, "invariant-violation");
  EXPECT_NE(trigger->Find("detail")->text.find(
                run.violations.front().invariant),
            std::string::npos);
  EXPECT_GT(doc.Find("window")->Find("events")->AsU64(), 0u);
  EXPECT_EQ(doc.Find("causal")->Find("stats")->Find("mis_joins")->AsU64(),
            0u);

  // Replay from the artifact alone: the embedded repro string decodes to
  // the same scenario and fails the same invariant.
  std::string repro = trigger->Find("repro")->text;
  EXPECT_EQ(repro, scenario->Encode());
  auto replay = check::Scenario::Decode(repro);
  ASSERT_TRUE(replay.has_value());
  check::RunResult rerun = explorer.RunScenario(*replay);
  EXPECT_FALSE(rerun.passed);
  ASSERT_FALSE(rerun.violations.empty());
  EXPECT_EQ(rerun.violations.front().invariant,
            run.violations.front().invariant);
  EXPECT_EQ(rerun.flight_record, run.flight_record);
}

// Post-copy degradation attribution: every demand-fetch stall is traced
// as a migrate.postcopy.fetch span, and the analyzer's "postcopy-fetch"
// phase must account for the coordinator-reported degradation within 1%
// (the faulting process parks for the whole fetch, so spans never
// overlap and the tiling sums exactly). The "stop-copy" phase likewise
// reproduces the reported downtime.
TEST(CriticalPath, PostCopyFetchStallsMatchReportedDegradation) {
  ckpt::testing::RegisterScribbler();
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  os::PodId id = c.CreatePod(0, "scrib");
  c.pods(0).SpawnInPod(id, "harness.scribbler",
                       ckpt::testing::ScribblerArgs(21, 20000, 96));
  os::Process* scrib = c.node(0).os().FindProcess(c.pods(0).ToRealPid(id, 1));
  cruz::Bytes page(os::kPageSize, 0x42);
  for (std::uint64_t i = 0; i < 512; ++i) {
    scrib->memory().InstallPage(ckpt::testing::kScribBallastPage + i, page);
  }
  c.sim().RunFor(5 * kMillisecond);
  ckpt::LiveMigrateOptions options;
  options.hot_window = 200 * kMicrosecond;
  bool done = false;
  ckpt::LiveMigrateStats stats;
  ckpt::LiveMigrator::MigrateWithMode(
      c.pods(0), c.pods(1), id, ckpt::MigrateMode::kPostCopy, options,
      [&](const ckpt::LiveMigrateStats& s) {
        stats = s;
        done = true;
      });
  ASSERT_TRUE(
      c.sim().RunWhile([&] { return done; }, c.sim().Now() + 600 * kSecond));
  ASSERT_GT(stats.degradation, 0);
  ASSERT_GT(stats.pages_fetched_on_demand, 0u);

  const auto& ring = c.sim().tracer().events();
  CausalGraph g =
      CausalGraph::Build(std::vector<TraceEvent>(ring.begin(), ring.end()));
  CriticalPathAnalyzer analyzer(g);
  auto b = analyzer.AnalyzeOp(stats.op_id);
  ASSERT_TRUE(b.has_value());
  EXPECT_TRUE(b->success);
  EXPECT_EQ(b->kind, "post-copy");

  const PhaseTotal* fetch = FindPhase(*b, "postcopy-fetch");
  ASSERT_NE(fetch, nullptr);
  DurationNs diff = fetch->total > stats.degradation
                        ? fetch->total - stats.degradation
                        : stats.degradation - fetch->total;
  EXPECT_LE(diff * 100, stats.degradation)
      << "postcopy-fetch=" << fetch->total
      << " degradation=" << stats.degradation;

  const PhaseTotal* stop = FindPhase(*b, "stop-copy");
  ASSERT_NE(stop, nullptr);
  EXPECT_EQ(stop->total, stats.downtime);
}

// cruz_analyze --metrics re-exposes an ExportJson snapshot: restoring
// it must reproduce the live registry's Prometheus exposition byte for
// byte, quantiles included, for values spread over the exact range and
// many log-linear buckets.
// Every JSON renderer in obs escapes strings with the one shared
// escaper, so a string carrying control characters survives a round trip
// through json_lite, which rejects raw ones.
TEST(JsonExport, ControlCharactersRoundTripThroughEveryRenderer) {
  const std::string nasty = std::string("a\"b\\c\rd\ne\tf\x01g\x1fh", 15);
  auto parse = [](const std::string& text) {
    JsonValue doc;
    std::string error;
    EXPECT_TRUE(ParseJson(text, doc, error)) << error << " in " << text;
    return doc;
  };

  obs::TraceEvent event;
  event.name = nasty;
  event.attrs.Agent(nasty).Arg("detail", nasty);
  std::string line;
  obs::AppendJsonlEvent(line, event);
  JsonValue trace = parse(line);
  ASSERT_NE(trace.Find("name"), nullptr);
  EXPECT_EQ(trace.Find("name")->text, nasty);

  obs::causal::OpBreakdown op;
  op.kind = nasty;
  op.coordinator = nasty;
  op.restore_sources.push_back({nasty, nasty, 1});
  op.phases.push_back({nasty, 1, nasty, 1});
  op.segments.push_back({0, 1, nasty, nasty});
  JsonValue path = parse(obs::causal::CriticalPathAnalyzer::RenderJson(
      {op}, obs::causal::MatchStats{}));
  ASSERT_NE(path.Find("ops"), nullptr);
  ASSERT_EQ(path.Find("ops")->items.size(), 1u);
  EXPECT_EQ(path.Find("ops")->items[0].Find("kind")->text, nasty);

  obs::causal::SloReport report;
  obs::causal::SloAttribution violation;
  violation.objective = nasty;
  violation.phase = nasty;
  violation.node = nasty;
  violation.op_kind = nasty;
  report.violations.push_back(violation);
  JsonValue slo = parse(obs::causal::RenderSloJson(report));
  ASSERT_NE(slo.Find("violations"), nullptr);
  ASSERT_EQ(slo.Find("violations")->items.size(), 1u);
  EXPECT_EQ(slo.Find("violations")->items[0].Find("objective")->text, nasty);

  obs::causal::FlightTrigger trigger;
  trigger.kind = nasty;
  trigger.detail = nasty;
  trigger.repro = nasty;
  JsonValue flight =
      parse(obs::causal::FlightRecorder::Capture({event}, trigger));
  ASSERT_NE(flight.Find("trigger"), nullptr);
  EXPECT_EQ(flight.Find("trigger")->Find("detail")->text, nasty);
}

TEST(MetricsImport, ExportJsonRoundTripReExposesIdentically) {
  obs::MetricsRegistry live;
  live.counter("coord.ops_total").Add(3);
  live.gauge("ckpt.codec_ratio").Set(1.03406);
  obs::LatencyHistogram& lat = live.histogram("coord.checkpoint_latency_us");
  std::uint64_t v = 1;
  for (int i = 0; i < 200; ++i) {
    lat.Record(v);
    v = v * 7 % 1'000'000'007;  // spread over ~9 decades
  }
  for (std::uint64_t x : {0ull, 1023ull, 1024ull, 347'821ull, 1ull << 40}) {
    live.histogram("agent.save_us").Record(x);
  }
  live.histogram("agent.downtime_us").Record(30);
  live.histogram("zz.empty");

  const std::string json = live.ExportJson();
  obs::MetricsRegistry restored;
  std::string error;
  ASSERT_TRUE(ImportMetricsJson(json, restored, error)) << error;
  EXPECT_EQ(restored.ExportPrometheus(), live.ExportPrometheus());
  EXPECT_EQ(restored.ExportJson(), json);

  // A bucket `le` that is no bucket upper bound is rejected.
  obs::MetricsRegistry bad;
  EXPECT_FALSE(ImportMetricsJson(
      R"({"histograms":{"h":{"count":1,"sum":5000,"min":5000,)"
      R"("max":5000,"mean":5000,"buckets":[[5000,1]]}}})",
      bad, error));
  // So is a negative one, which would otherwise wrap to 2^64 - 1.
  EXPECT_FALSE(ImportMetricsJson(
      R"({"histograms":{"h":{"count":1,"buckets":[[-1,1]]}}})", bad, error));
  EXPECT_FALSE(ImportMetricsJson("[1,2]", bad, error));
}

}  // namespace
}  // namespace cruz
