// Cross-cutting properties: whole-run determinism, checkpoint-image
// fuzzing (corruption never crashes, always throws CodecError), and
// checkpoint coverage for the remaining resource kinds — UDP sockets,
// regular-file offsets, and dup-shared descriptors.
#include <gtest/gtest.h>

#include "apps/programs.h"
#include "common/crc32.h"
#include "ckpt/engine.h"
#include "cruz/cluster.h"

namespace cruz {
namespace {

// --- stream pattern ---------------------------------------------------------

// The bulk pattern forms agree with PatternByte at any offset and length,
// across the scalar tails and the verifier's block boundaries, and count
// every corrupted byte exactly once.
TEST(StreamPattern, BulkFormsMatchPatternByte) {
  for (std::uint64_t offset : {0ull, 7ull, 1000003ull, ~0ull - 3000}) {
    for (std::size_t len : {0, 1, 15, 16, 17, 1023, 1024, 1025, 5000}) {
      Bytes buf(len);
      apps::FillPattern(offset, buf);
      for (std::size_t k = 0; k < len; ++k) {
        ASSERT_EQ(buf[k], apps::PatternByte(offset + k)) << offset << "+" << k;
      }
      EXPECT_EQ(apps::CountPatternMismatches(offset, buf), 0u);
      std::uint64_t flipped = 0;
      for (std::size_t k = 0; k < len; k += 333) {
        buf[k] ^= 0x5A;
        ++flipped;
      }
      EXPECT_EQ(apps::CountPatternMismatches(offset, buf), flipped);
    }
  }
}

// --- determinism ------------------------------------------------------------

struct RunDigest {
  std::uint64_t events = 0;
  std::uint64_t receiver_bytes = 0;
  std::uint64_t image_crc = 0;
};

RunDigest RunScenario(std::uint64_t seed) {
  ClusterConfig config;
  config.num_nodes = 2;
  config.seed = seed;
  config.link.loss_probability = 0.03;  // randomness must be reproducible
  Cluster c(config);
  os::PodId rp = c.CreatePod(1, "recv");
  net::Ipv4Address rip = c.pods(1).Find(rp)->ip;
  os::Pid rv = c.pods(1).SpawnInPod(rp, "cruz.stream_receiver",
                                    apps::StreamReceiverArgs(9100));
  c.sim().RunFor(5 * kMillisecond);
  os::PodId sp = c.CreatePod(0, "send");
  c.pods(0).SpawnInPod(sp, "cruz.stream_sender",
                       apps::StreamSenderArgs(rip, 9100, 0));
  c.sim().RunFor(300 * kMillisecond);
  auto stats = c.RunCheckpoint({c.MemberFor(0, sp), c.MemberFor(1, rp)});
  c.sim().RunFor(300 * kMillisecond);

  RunDigest digest;
  digest.events = c.sim().events_executed();
  os::Process* proc =
      c.node(1).os().FindProcess(c.pods(1).ToRealPid(rp, rv));
  digest.receiver_bytes =
      proc != nullptr ? apps::ReadStreamStatus(*proc).bytes : 0;
  Bytes image;
  c.fs().ReadFile(stats.image_paths[1], image);
  digest.image_crc = Crc32(image);
  return digest;
}

TEST(Determinism, SameSeedBitIdentical) {
  RunDigest a = RunScenario(12345);
  RunDigest b = RunScenario(12345);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.receiver_bytes, b.receiver_bytes);
  EXPECT_EQ(a.image_crc, b.image_crc);  // byte-identical checkpoint image
}

TEST(Determinism, DifferentSeedsDiverge) {
  RunDigest a = RunScenario(1);
  RunDigest b = RunScenario(2);
  // With 3% random loss, different seeds must produce different runs.
  EXPECT_NE(a.events, b.events);
}

// --- image fuzzing -----------------------------------------------------------

TEST(ImageFuzz, RandomCorruptionNeverCrashes) {
  Cluster c;
  os::PodId id = c.CreatePod(0, "job");
  c.pods(0).SpawnInPod(id, "cruz.counter", apps::CounterArgs(1u << 30));
  c.sim().RunFor(10 * kMillisecond);
  ckpt::PodCheckpoint ck =
      ckpt::CheckpointEngine::CapturePod(c.pods(0), id);
  Bytes image = ck.Serialize();

  Rng rng(99);
  int rejected = 0;
  for (int trial = 0; trial < 200; ++trial) {
    Bytes fuzzed = image;
    int flips = 1 + static_cast<int>(rng.NextBelow(8));
    for (int f = 0; f < flips; ++f) {
      std::size_t pos = static_cast<std::size_t>(
          rng.NextBelow(fuzzed.size()));
      fuzzed[pos] ^= static_cast<std::uint8_t>(1 + rng.NextBelow(255));
    }
    try {
      ckpt::PodCheckpoint::Deserialize(fuzzed);
      // Astronomically unlikely: flips cancelled out or hit dead bytes
      // while keeping the CRC valid. Acceptable only if truly identical.
    } catch (const CodecError&) {
      ++rejected;
    }
  }
  EXPECT_GE(rejected, 199);  // CRC catches essentially everything

  // Truncations at every prefix length are rejected too (sampled).
  for (std::size_t len = 0; len < image.size(); len += 97) {
    Bytes truncated(image.begin(),
                    image.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(ckpt::PodCheckpoint::Deserialize(truncated), CodecError);
  }
}

// --- remaining resource kinds across checkpoint-restart ------------------------

TEST(ResourceCoverage, UdpSocketQueueSurvivesRestore) {
  Cluster c;
  os::PodId id = c.CreatePod(0, "udp");
  net::Ipv4Address pod_ip = c.pods(0).Find(id)->ip;
  os::Pid vpid = c.pods(0).SpawnInPod(id, "cruz.counter",
                                      apps::CounterArgs(1u << 30));
  os::Process* proc =
      c.node(0).os().FindProcess(c.pods(0).ToRealPid(id, vpid));
  // Give the process a bound UDP socket with queued datagrams.
  os::Os& os = c.node(0).os();
  SysResult fd = os.SysSocketUdp(*proc);
  ASSERT_TRUE(SysOk(fd));
  ASSERT_EQ(os.SysBind(*proc, static_cast<os::Fd>(fd),
                       net::Endpoint{net::kAnyAddress, 5353}),
            0);
  os::SocketId sender = c.node(1).stack().CreateUdpSocket();
  c.node(1).stack().UdpBind(sender, {c.node(1).ip(), 6000});
  c.node(1).stack().UdpSendTo(sender, {pod_ip, 5353}, Bytes{1, 2, 3});
  c.node(1).stack().UdpSendTo(sender, {pod_ip, 5353}, Bytes{4, 5});
  c.sim().RunFor(10 * kMillisecond);

  ckpt::PodCheckpoint ck =
      ckpt::CheckpointEngine::CapturePod(c.pods(0), id);
  ASSERT_EQ(ck.udp.size(), 1u);
  EXPECT_EQ(ck.udp[0].rx.size(), 2u);
  c.pods(0).DestroyPod(id);

  os::PodId restored = ckpt::CheckpointEngine::RestorePod(c.pods(0), ck);
  ckpt::CheckpointEngine::ResumePod(c.pods(0), restored);
  os::Process* rp =
      c.node(0).os().FindProcess(c.pods(0).ToRealPid(restored, vpid));
  ASSERT_NE(rp, nullptr);
  // The queued datagrams are still deliverable, in order, with sources.
  Bytes out;
  net::Endpoint from;
  EXPECT_EQ(os.SysRecvFromUdp(*rp, static_cast<os::Fd>(fd), out, &from), 3);
  EXPECT_EQ(out, (Bytes{1, 2, 3}));
  EXPECT_EQ(from.ip, c.node(1).ip());
  out.clear();
  EXPECT_EQ(os.SysRecvFromUdp(*rp, static_cast<os::Fd>(fd), out, &from), 2);
  // And the socket still receives new traffic at the same port.
  c.node(1).stack().UdpSendTo(sender, {pod_ip, 5353}, Bytes{9});
  c.sim().RunFor(10 * kMillisecond);
  out.clear();
  EXPECT_EQ(os.SysRecvFromUdp(*rp, static_cast<os::Fd>(fd), out, &from), 1);
  EXPECT_EQ(out, (Bytes{9}));
}

TEST(ResourceCoverage, FileOffsetAndDupSharingSurviveRestore) {
  Cluster c;
  c.fs().WriteFile("/data/input.bin", Bytes{10, 20, 30, 40, 50, 60});
  os::PodId id = c.CreatePod(0, "files");
  os::Pid vpid = c.pods(0).SpawnInPod(id, "cruz.counter",
                                      apps::CounterArgs(1u << 30));
  os::Os& os = c.node(0).os();
  os::Process* proc =
      os.FindProcess(c.pods(0).ToRealPid(id, vpid));
  SysResult fd = os.SysOpen(*proc, "/data/input.bin", false);
  ASSERT_TRUE(SysOk(fd));
  Bytes out;
  ASSERT_EQ(os.SysRead(*proc, static_cast<os::Fd>(fd), out, 2), 2);
  // Dup: both fds share one description (and thus one offset).
  SysResult dup = os.SysDup(*proc, static_cast<os::Fd>(fd));
  ASSERT_TRUE(SysOk(dup));

  ckpt::PodCheckpoint ck =
      ckpt::CheckpointEngine::CapturePod(c.pods(0), id);
  c.pods(0).DestroyPod(id);
  os::PodId restored = ckpt::CheckpointEngine::RestorePod(c.pods(0), ck);
  os::Process* rp =
      os.FindProcess(c.pods(0).ToRealPid(restored, vpid));
  ASSERT_NE(rp, nullptr);

  // The offset (2) was preserved, and the dup still shares it.
  out.clear();
  EXPECT_EQ(os.SysRead(*rp, static_cast<os::Fd>(fd), out, 2), 2);
  EXPECT_EQ(out, (Bytes{30, 40}));
  out.clear();
  EXPECT_EQ(os.SysRead(*rp, static_cast<os::Fd>(dup), out, 2), 2);
  EXPECT_EQ(out, (Bytes{50, 60}));  // advanced by the first read: shared
  EXPECT_EQ(rp->LookupFd(static_cast<os::Fd>(fd)),
            rp->LookupFd(static_cast<os::Fd>(dup)));
}

TEST(ResourceCoverage, MultiThreadedProcessSurvivesRestore) {
  Cluster c;
  os::PodId id = c.CreatePod(0, "mt");
  // Reuse the sem_pair-style program via SpawnThread from the sysbench
  // base: simplest is the counter plus a manually added thread.
  os::Pid vpid = c.pods(0).SpawnInPod(id, "cruz.counter",
                                      apps::CounterArgs(1u << 30));
  os::Process* proc =
      c.node(0).os().FindProcess(c.pods(0).ToRealPid(id, vpid));
  // Add a second thread executing the same program body (the counter is
  // pc-driven, so the thread contributes increments too once primed).
  os::Registers regs;
  regs.r[0] = 1;          // pc past the init state
  regs.r[3] = 1u << 30;   // iterations bound
  os::Tid tid = proc->CreateThread(regs);
  c.node(0).os().MakeRunnable(os::ThreadRef{proc->pid(), tid});
  c.sim().RunFor(10 * kMillisecond);

  ckpt::PodCheckpoint ck =
      ckpt::CheckpointEngine::CapturePod(c.pods(0), id);
  ASSERT_EQ(ck.processes.size(), 1u);
  EXPECT_EQ(ck.processes[0].threads.size(), 2u);
  std::uint64_t frozen = apps::ReadCounter(*proc);
  c.pods(0).DestroyPod(id);

  os::PodId restored = ckpt::CheckpointEngine::RestorePod(c.pods(0), ck);
  ckpt::CheckpointEngine::ResumePod(c.pods(0), restored);
  os::Process* rp =
      c.node(0).os().FindProcess(c.pods(0).ToRealPid(restored, vpid));
  ASSERT_NE(rp, nullptr);
  EXPECT_EQ(rp->threads().size(), 2u);
  EXPECT_EQ(apps::ReadCounter(*rp), frozen);
  c.sim().RunFor(10 * kMillisecond);
  EXPECT_GT(apps::ReadCounter(*rp), frozen);  // both threads running again
}

}  // namespace
}  // namespace cruz
