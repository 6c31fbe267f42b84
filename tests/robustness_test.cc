// Fault-tolerance of the coordination protocol itself (the paper notes
// the Fig. 2 algorithm "can be extended in a straightforward way to
// tolerate Coordinator and Agent failures"): lossy control channels,
// duplicated requests, and a randomized chaos sequence of checkpoint /
// kill / restart operations against a verified stream.
#include <gtest/gtest.h>

#include <algorithm>

#include "apps/programs.h"
#include "check/explorer.h"
#include "check/scenario.h"
#include "ckpt/engine.h"
#include "ckpt/generation.h"
#include "ckpt/image.h"
#include "ckpt/page_codec.h"
#include "common/crc32.h"
#include "coord/agent.h"
#include "cruz/cluster.h"
#include "fault/fault.h"

namespace cruz::coord {
namespace {

// Makes the coordinator's own link lossy: requests and replies between
// the coordinator and the agents are dropped with probability p, while
// the application nodes' links stay clean.
void MakeCoordinatorLinkLossy(Cluster& c, double p) {
  // Ports are assigned in attach order: app nodes first, coordinator last.
  net::LinkParams lossy;
  lossy.loss_probability = p;
  c.ethernet().SetLinkParams(c.num_nodes(), lossy);
}

TEST(Robustness, CheckpointSurvivesLossyControlChannel) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  MakeCoordinatorLinkLossy(c, 0.4);

  os::PodId rp = c.CreatePod(1, "recv");
  net::Ipv4Address rip = c.pods(1).Find(rp)->ip;
  os::Pid rv = c.pods(1).SpawnInPod(rp, "cruz.stream_receiver",
                                    apps::StreamReceiverArgs(9100));
  c.sim().RunFor(5 * kMillisecond);
  os::PodId sp = c.CreatePod(0, "send");
  c.pods(0).SpawnInPod(sp, "cruz.stream_sender",
                       apps::StreamSenderArgs(rip, 9100, 2 * kMiB));
  apps::StreamStatus last;
  bool receiver_exited = false;
  c.node(1).os().set_process_exit_hook([&](os::Pid p, int) {
    os::Process* proc = c.node(1).os().FindProcess(p);
    if (proc != nullptr && proc->pod() == rp) {
      last = apps::ReadStreamStatus(*proc);
      receiver_exited = true;
    }
  });
  auto status = [&] {
    os::Process* p =
        c.node(1).os().FindProcess(c.pods(1).ToRealPid(rp, rv));
    if (p != nullptr) last = apps::ReadStreamStatus(*p);
    return last;
  };
  ASSERT_TRUE(c.sim().RunWhile(
      [&] { return status().bytes > 256 * 1024; },
      c.sim().Now() + 60 * kSecond));

  // Despite 40% control-message loss, retransmission completes the
  // two-phase protocol (several rounds may be needed).
  coord::Coordinator::Options options;
  options.retransmit_interval = 500 * kMillisecond;
  options.timeout = 60 * kSecond;
  auto stats = c.RunCheckpoint(
      {c.MemberFor(0, sp), c.MemberFor(1, rp)}, options);
  EXPECT_TRUE(stats.success);

  ASSERT_TRUE(c.sim().RunWhile(
      [&] { return receiver_exited || status().bytes >= 2 * kMiB; },
      c.sim().Now() + 600 * kSecond));
  EXPECT_EQ(last.bytes, 2 * kMiB);
  EXPECT_EQ(last.mismatches, 0u);
}

TEST(Robustness, RestartSurvivesLossyControlChannel) {
  ClusterConfig config;
  config.num_nodes = 3;
  Cluster c(config);

  os::PodId id = c.CreatePod(0, "job");
  c.pods(0).SpawnInPod(id, "cruz.counter", apps::CounterArgs(1u << 30));
  c.sim().RunFor(20 * kMillisecond);
  auto ck = c.RunCheckpoint({c.MemberFor(0, id)});
  ASSERT_TRUE(ck.success);
  c.pods(0).DestroyPod(id);

  MakeCoordinatorLinkLossy(c, 0.4);
  coord::Coordinator::Options options;
  options.retransmit_interval = 500 * kMillisecond;
  options.timeout = 60 * kSecond;
  auto rs = c.RunRestart({c.MemberFor(2, id)}, ck.image_paths, options);
  EXPECT_TRUE(rs.success);
  os::Pid real = c.pods(2).ToRealPid(id, 1);
  ASSERT_NE(real, os::kNoPid);
  os::Process* proc = c.node(2).os().FindProcess(real);
  ASSERT_NE(proc, nullptr);
  std::uint64_t before = apps::ReadCounter(*proc);
  c.sim().RunFor(20 * kMillisecond);
  EXPECT_GT(apps::ReadCounter(*proc), before);  // actually resumed
}

TEST(Robustness, DuplicateRequestsAreIdempotent) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  os::PodId id = c.CreatePod(0, "job");
  c.pods(0).SpawnInPod(id, "cruz.counter", apps::CounterArgs(1u << 30));
  c.sim().RunFor(10 * kMillisecond);
  auto stats = c.RunCheckpoint({c.MemberFor(0, id)});
  ASSERT_TRUE(stats.success);
  EXPECT_EQ(c.agent(0).checkpoints_served(), 1u);

  // Replay the original request verbatim (a retransmission arriving after
  // completion): the agent must not checkpoint again.
  CoordMessage dup;
  dup.type = MsgType::kCheckpoint;
  dup.op_id = stats.op_id;
  dup.pod_id = id;
  dup.image_path = stats.image_paths[0];
  net::UdpDatagram dgram;
  dgram.src_port = kCoordinatorPort;
  dgram.dst_port = kAgentPort;
  dgram.payload = dup.Encode();
  net::Ipv4Packet pkt;
  pkt.src = c.coordinator_node().ip();
  pkt.dst = c.node(0).ip();
  pkt.proto = net::IpProto::kUdp;
  pkt.payload = dgram.Encode();
  c.coordinator_node().stack().SendIpv4(pkt);
  c.sim().RunFor(kSecond);
  EXPECT_EQ(c.agent(0).checkpoints_served(), 1u);
  // The pod is still live and running.
  os::Pid real = c.pods(0).ToRealPid(id, 1);
  os::Process* proc = c.node(0).os().FindProcess(real);
  ASSERT_NE(proc, nullptr);
  EXPECT_EQ(proc->state(), os::ProcessState::kLive);
}

// Chaos: a verified stream job runs while a random sequence of
// checkpoint-and-continue and kill-and-restart operations (with random
// target nodes and random incremental/cow flags) is applied. The stream
// must finish with zero corruption regardless of the sequence.
class ChaosSequence : public ::testing::TestWithParam<int> {};

TEST_P(ChaosSequence, StreamAlwaysIntact) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 31 + 5);
  check::Scenario scenario;
  scenario.seed = static_cast<std::uint64_t>(seed);
  scenario.num_nodes = 4;
  scenario.workload = check::WorkloadKind::kStream;
  scenario.workload_units = 3 * kMiB;
  for (int op = 0; op < 5; ++op) {
    check::OpSpec ck;
    ck.kind = check::OpKind::kCheckpoint;
    ck.pre_delay = 20 * kMillisecond + rng.NextBelow(150 * kMillisecond);
    ck.incremental = rng.NextBernoulli(0.5);
    ck.copy_on_write = rng.NextBernoulli(0.5);
    if (ck.copy_on_write) {
      ck.variant = ProtocolVariant::kOptimized;
    }
    scenario.ops.push_back(ck);
    if (rng.NextBernoulli(0.5)) {
      // Kill both pods and restart them on random (distinct) nodes.
      check::OpSpec rs;
      rs.kind = check::OpKind::kRestart;
      rs.pre_delay = rng.NextBelow(300 * kMillisecond);
      rs.placement_salt = static_cast<std::uint32_t>(rng.NextU64());
      scenario.ops.push_back(rs);
    }
  }

  // The oracle subsumes the old hand-rolled assertions: stream intact
  // (workload-intact), checkpoints commit and restarts land correctly,
  // protocol ordering holds, and no partial images are left behind.
  check::Explorer explorer;
  check::RunResult result = explorer.RunScenario(scenario);
  EXPECT_TRUE(result.passed) << result.summary;
  for (const check::Violation& v : result.violations) {
    ADD_FAILURE() << v.invariant << ": " << v.detail;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSequence, ::testing::Range(1, 9));

// Silent corruption of the newest checkpoint generation: restart must
// detect the damaged image through the manifest CRCs and fall back to the
// newest older generation that is fully intact.
TEST(Robustness, RestartFallsBackToNewestIntactGeneration) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  os::PodId id = c.CreatePod(0, "job");
  c.pods(0).SpawnInPod(id, "cruz.counter", apps::CounterArgs(1u << 30));
  c.sim().RunFor(20 * kMillisecond);

  auto g1 = c.RunGenerationCheckpoint({c.MemberFor(0, id)});
  ASSERT_TRUE(g1.stats.success);
  c.sim().RunFor(20 * kMillisecond);
  auto g2 = c.RunGenerationCheckpoint({c.MemberFor(0, id)});
  ASSERT_TRUE(g2.stats.success);
  ASSERT_EQ(g2.latest_committed, g2.generation);

  // Media corruption after commit: flip one bit in the middle of the
  // newest generation's image on the shared FS.
  std::string victim = g2.stats.image_paths.at(0);
  Bytes raw;
  ASSERT_TRUE(SysOk(c.fs().ReadFile(victim, raw)));
  raw[raw.size() / 2] ^= 0x40;
  c.fs().WriteFile(victim, std::move(raw));

  c.pods(0).DestroyPod(id);
  c.sim().RunFor(10 * kMillisecond);
  auto rs = c.RunGenerationRestart({c.MemberFor(0, id)});
  EXPECT_TRUE(rs.stats.success);
  EXPECT_TRUE(rs.fell_back);
  EXPECT_EQ(rs.generation, g1.generation);
  EXPECT_EQ(rs.latest_committed, g2.generation);

  os::Pid real = c.pods(0).ToRealPid(id, 1);
  ASSERT_NE(real, os::kNoPid);
  os::Process* proc = c.node(0).os().FindProcess(real);
  ASSERT_NE(proc, nullptr);
  std::uint64_t before = apps::ReadCounter(*proc);
  c.sim().RunFor(20 * kMillisecond);
  EXPECT_GT(apps::ReadCounter(*proc), before);
}

// An agent process dies in the middle of a coordinated checkpoint (after
// writing its image, upon <continue>). Heartbeat probing detects the dead
// agent within a few intervals, the op aborts cleanly, the surviving
// member's pod keeps running, no partial image is left behind, and after
// the agent restarts the next checkpoint commits.
TEST(Robustness, AgentCrashMidCheckpointAbortsCleanly) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  fault::FaultPlan plan(17);
  plan.ArmAgentCrash("node2",
                     static_cast<std::uint8_t>(MsgType::kContinue));
  c.ArmFaults(plan);

  os::PodId a = c.CreatePod(0, "a");
  c.pods(0).SpawnInPod(a, "cruz.counter", apps::CounterArgs(1u << 30));
  os::PodId b = c.CreatePod(1, "b");
  c.pods(1).SpawnInPod(b, "cruz.counter", apps::CounterArgs(1u << 30));
  c.sim().RunFor(10 * kMillisecond);

  coord::Coordinator::Options options;
  options.retransmit_interval = 500 * kMillisecond;
  options.heartbeat_interval = 200 * kMillisecond;
  options.max_missed_heartbeats = 2;
  options.timeout = 60 * kSecond;
  TimeNs op_start = c.sim().Now();
  auto result = c.RunGenerationCheckpoint(
      {c.MemberFor(0, a), c.MemberFor(1, b)}, options);
  EXPECT_FALSE(result.stats.success);
  EXPECT_NE(result.stats.abort_reason.find("unresponsive"),
            std::string::npos);
  EXPECT_LT(c.sim().Now() - op_start, 10 * kSecond);  // not the full timeout
  EXPECT_EQ(result.generation, 0u);  // discarded, not committed
  EXPECT_TRUE(c.fs().List("/ckpt/gens/gen_").empty());
  EXPECT_TRUE(c.agent(1).crashed());

  // The healthy member's pod was resumed by the abort and is still live.
  c.sim().RunFor(10 * kMillisecond);
  os::Process* proc = c.node(0).os().FindProcess(c.pods(0).ToRealPid(a, 1));
  ASSERT_NE(proc, nullptr);
  EXPECT_EQ(proc->state(), os::ProcessState::kLive);

  // Agent restart (crash recovery): the crashed agent's pod was left
  // stopped behind a drop filter; Reset resumes it and the next
  // checkpoint succeeds end to end.
  c.agent(1).Reset();
  c.sim().RunFor(10 * kMillisecond);
  auto retry = c.RunGenerationCheckpoint(
      {c.MemberFor(0, a), c.MemberFor(1, b)}, options);
  EXPECT_TRUE(retry.stats.success);
  EXPECT_EQ(retry.latest_committed, retry.generation);
}

// Chaos under an armed fault plan: checkpoint / kill / restart cycles of
// a verified TCP stream while every control message is subject to seeded
// loss, duplication and delay. The stream must still finish intact, and
// the generation root must hold only committed generations at the end.
class FaultChaos : public ::testing::TestWithParam<int> {};

TEST_P(FaultChaos, StreamIntactUnderArmedPlan) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 17 + 3);
  check::Scenario scenario;
  scenario.seed = static_cast<std::uint64_t>(seed);
  scenario.num_nodes = 4;
  scenario.workload = check::WorkloadKind::kStream;
  scenario.workload_units = 2 * kMiB;
  scenario.faults = {
      {check::FaultSpecKind::kMessageLoss, 0, 100, 0},
      {check::FaultSpecKind::kMessageDup, 0, 150, 0},
      {check::FaultSpecKind::kMessageDelay, 0, 150, 20},
  };
  for (int cycle = 0; cycle < 4; ++cycle) {
    check::OpSpec ck;
    ck.kind = check::OpKind::kCheckpoint;
    ck.pre_delay = 20 * kMillisecond + rng.NextBelow(150 * kMillisecond);
    ck.incremental = rng.NextBernoulli(0.5);
    scenario.ops.push_back(ck);
    if (rng.NextBernoulli(0.5)) {
      check::OpSpec rs;
      rs.kind = check::OpKind::kRestart;
      rs.pre_delay = rng.NextBelow(300 * kMillisecond);
      rs.placement_salt = static_cast<std::uint32_t>(rng.NextU64());
      scenario.ops.push_back(rs);
    }
  }

  // Oracle-checked end state replaces the old manual assertions: stream
  // loss/duplicate-free (workload-intact), restarts on the newest intact
  // generation, and no uncommitted files under the generation root
  // (no-partial-state) — fault handling never leaks partial state.
  check::Explorer explorer;
  check::RunResult result = explorer.RunScenario(scenario);
  EXPECT_TRUE(result.passed) << result.summary;
  for (const check::Violation& v : result.violations) {
    ADD_FAILURE() << v.invariant << ": " << v.detail;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultChaos, ::testing::Range(1, 5));

// --- image codec compatibility ----------------------------------------------

// Version-1 (raw-page) images are the original wire format; a version-2
// producer must keep reading them unchanged, and the raw and compressed
// serializations of one checkpoint must decode to identical state.
TEST(CodecCompat, V1ImagesLoadUnchanged) {
  Cluster c;
  os::PodId id = c.CreatePod(0, "job");
  os::Pid vpid = c.pods(0).SpawnInPod(id, "cruz.counter",
                                      apps::CounterArgs(1u << 30));
  os::Process* proc =
      c.node(0).os().FindProcess(c.pods(0).ToRealPid(id, vpid));
  ASSERT_NE(proc, nullptr);
  Bytes page(os::kPageSize, 0x5a);
  for (std::uint64_t i = 0; i < 32; ++i) {
    proc->memory().InstallPage(0x1000 + i, page);
  }
  c.sim().RunFor(10 * kMillisecond);

  ckpt::PodCheckpoint ck =
      ckpt::CheckpointEngine::CapturePod(c.pods(0), id);
  ckpt::CheckpointEngine::ResumePod(c.pods(0), id);
  Bytes v1 = ck.Serialize(false);
  Bytes v2 = ck.Serialize(true);
  // Self-describing headers: same magic, version (big-endian u32 at
  // offset 8) distinguishes the page encodings.
  ASSERT_GT(v1.size(), 12u);
  EXPECT_EQ(v1[11], 1);
  EXPECT_EQ(v2[11], 2);
  EXPECT_LT(v2.size(), v1.size());  // constant pages collapse under RLE

  // Both versions decode to the same state: the canonical raw
  // re-serialization of either is byte-identical to the v1 image.
  ckpt::PodCheckpoint from_v1 = ckpt::PodCheckpoint::Deserialize(v1);
  ckpt::PodCheckpoint from_v2 = ckpt::PodCheckpoint::Deserialize(v2);
  EXPECT_EQ(from_v1.Serialize(false), v1);
  EXPECT_EQ(from_v2.Serialize(false), v1);

  // And a v1 image still restores a runnable pod.
  c.pods(0).DestroyPod(id);
  os::PodId restored =
      ckpt::CheckpointEngine::RestorePod(c.pods(0), from_v1);
  ckpt::CheckpointEngine::ResumePod(c.pods(0), restored);
  os::Process* rp =
      c.node(0).os().FindProcess(c.pods(0).ToRealPid(restored, vpid));
  ASSERT_NE(rp, nullptr);
  std::uint64_t before = apps::ReadCounter(*rp);
  c.sim().RunFor(10 * kMillisecond);
  EXPECT_GT(apps::ReadCounter(*rp), before);
}

// A flipped bit inside one compressed page is caught by that page's own
// CRC even when the medium also happens to re-seal the outer whole-image
// checksum — the per-page check is what localizes the damage.
TEST(CodecCompat, BitFlippedCompressedPageRaisesCodecError) {
  ckpt::PodCheckpoint ck;
  ck.pod_id = 7;
  ck.pod_name = "flip";
  ckpt::ProcessRecord rec;
  rec.vpid = 1;
  rec.program = "cruz.counter";
  ckpt::PageRecord pg;
  pg.page_index = 0x2000;
  pg.content = std::make_shared<Bytes>(os::kPageSize, 0xab);
  rec.pages.push_back(pg);
  ck.processes.push_back(std::move(rec));

  Bytes image = ck.Serialize(true);
  ASSERT_NO_THROW(ckpt::PodCheckpoint::Deserialize(image));

  // Flip one bit in the page's encoded RLE payload.
  Bytes needle = ckpt::EncodePage(*pg.content, ckpt::PageCodec::kRle);
  auto it = std::search(image.begin(), image.end(),
                        needle.begin(), needle.end());
  ASSERT_NE(it, image.end());
  *(it + static_cast<std::ptrdiff_t>(needle.size()) - 1) ^= 0x04;

  // Re-seal the outer CRC (big-endian u32 trailer over the body, which
  // starts after magic(8) + version(4) + codec(1) + length(4)).
  constexpr std::size_t kBodyStart = 8 + 4 + 1 + 4;
  ASSERT_GT(image.size(), kBodyStart + 4);
  std::uint32_t crc = Crc32(
      ByteSpan(image.data() + kBodyStart, image.size() - kBodyStart - 4));
  image[image.size() - 4] = static_cast<std::uint8_t>(crc >> 24);
  image[image.size() - 3] = static_cast<std::uint8_t>(crc >> 16);
  image[image.size() - 2] = static_cast<std::uint8_t>(crc >> 8);
  image[image.size() - 1] = static_cast<std::uint8_t>(crc);

  EXPECT_THROW(ckpt::PodCheckpoint::Deserialize(image), CodecError);
}

// Generation fallback works for version-2 images too: corruption of the
// newest compressed generation is detected by restart's verification and
// the previous compressed generation is used instead.
TEST(CodecCompat, CompressedGenerationRestartFallsBack) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  os::PodId id = c.CreatePod(0, "job");
  c.pods(0).SpawnInPod(id, "cruz.counter", apps::CounterArgs(1u << 30));
  c.sim().RunFor(20 * kMillisecond);

  coord::Coordinator::Options options;
  options.variant = ProtocolVariant::kOptimized;
  options.copy_on_write = true;
  options.compress = true;
  auto g1 = c.RunGenerationCheckpoint({c.MemberFor(0, id)}, options);
  ASSERT_TRUE(g1.stats.success);
  c.sim().RunFor(20 * kMillisecond);
  auto g2 = c.RunGenerationCheckpoint({c.MemberFor(0, id)}, options);
  ASSERT_TRUE(g2.stats.success);
  ASSERT_EQ(g2.latest_committed, g2.generation);

  Bytes raw;
  ASSERT_TRUE(SysOk(c.fs().ReadFile(g2.stats.image_paths.at(0), raw)));
  EXPECT_EQ(raw[11], 2);  // the committed image is version-2
  raw[raw.size() / 2] ^= 0x10;
  c.fs().WriteFile(g2.stats.image_paths.at(0), std::move(raw));

  c.pods(0).DestroyPod(id);
  c.sim().RunFor(10 * kMillisecond);
  auto rs = c.RunGenerationRestart({c.MemberFor(0, id)});
  EXPECT_TRUE(rs.stats.success);
  EXPECT_TRUE(rs.fell_back);
  EXPECT_EQ(rs.generation, g1.generation);
  EXPECT_EQ(rs.latest_committed, g2.generation);

  os::Pid real = c.pods(0).ToRealPid(id, 1);
  ASSERT_NE(real, os::kNoPid);
  os::Process* proc = c.node(0).os().FindProcess(real);
  ASSERT_NE(proc, nullptr);
  std::uint64_t before = apps::ReadCounter(*proc);
  c.sim().RunFor(20 * kMillisecond);
  EXPECT_GT(apps::ReadCounter(*proc), before);
}

// A store can accumulate generations written by different codec
// versions (an upgrade enables compression mid-history). Fallback must
// walk across the codec boundary: with both version-2 generations
// corrupted, restart lands on the oldest generation — a version-1 image
// written before the upgrade.
TEST(CodecCompat, FallbackWalksAcrossMixedCodecGenerations) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  os::PodId id = c.CreatePod(0, "job");
  c.pods(0).SpawnInPod(id, "cruz.counter", apps::CounterArgs(1u << 30));
  c.sim().RunFor(20 * kMillisecond);

  // Generation 1: pre-upgrade, uncompressed (version-1 codec).
  coord::Coordinator::Options v1;
  v1.compress = false;
  auto g1 = c.RunGenerationCheckpoint({c.MemberFor(0, id)}, v1);
  ASSERT_TRUE(g1.stats.success);

  // Generations 2 and 3: post-upgrade, compressed (version-2 codec).
  coord::Coordinator::Options v2;
  v2.compress = true;
  c.sim().RunFor(20 * kMillisecond);
  auto g2 = c.RunGenerationCheckpoint({c.MemberFor(0, id)}, v2);
  ASSERT_TRUE(g2.stats.success);
  c.sim().RunFor(20 * kMillisecond);
  auto g3 = c.RunGenerationCheckpoint({c.MemberFor(0, id)}, v2);
  ASSERT_TRUE(g3.stats.success);
  ASSERT_EQ(g3.latest_committed, g3.generation);

  // The history really is mixed-codec: byte 11 is the codec version.
  auto codec_version = [&](const std::string& path) {
    Bytes raw;
    EXPECT_TRUE(SysOk(c.fs().ReadFile(path, raw)));
    return raw.size() > 11 ? raw[11] : 0;
  };
  EXPECT_EQ(codec_version(g1.stats.image_paths.at(0)), 1);
  EXPECT_EQ(codec_version(g2.stats.image_paths.at(0)), 2);
  EXPECT_EQ(codec_version(g3.stats.image_paths.at(0)), 2);

  // Corrupt BOTH version-2 generations after commit.
  for (const auto* gen : {&g3, &g2}) {
    Bytes raw;
    ASSERT_TRUE(SysOk(c.fs().ReadFile(gen->stats.image_paths.at(0), raw)));
    raw[raw.size() / 2] ^= 0x10;
    c.fs().WriteFile(gen->stats.image_paths.at(0), std::move(raw));
  }

  c.pods(0).DestroyPod(id);
  c.sim().RunFor(10 * kMillisecond);
  auto rs = c.RunGenerationRestart({c.MemberFor(0, id)});
  EXPECT_TRUE(rs.stats.success);
  EXPECT_TRUE(rs.fell_back);
  EXPECT_EQ(rs.generation, g1.generation);  // crossed 2 codec-v2 gens
  EXPECT_EQ(rs.latest_committed, g3.generation);

  // The restored (version-1) image runs: the counter makes progress.
  os::Pid real = c.pods(0).ToRealPid(id, 1);
  ASSERT_NE(real, os::kNoPid);
  os::Process* proc = c.node(0).os().FindProcess(real);
  ASSERT_NE(proc, nullptr);
  std::uint64_t before = apps::ReadCounter(*proc);
  c.sim().RunFor(20 * kMillisecond);
  EXPECT_GT(apps::ReadCounter(*proc), before);
}

}  // namespace
}  // namespace cruz::coord
