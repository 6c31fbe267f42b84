// Tests for coordinated checkpoint-restart of distributed applications:
// the Fig. 2 blocking protocol, the Fig. 4 optimized variant, the O(N)
// message count, coordinated restart after total failure, and
// coordinator fault handling.
#include <gtest/gtest.h>

#include "apps/programs.h"
#include "common/error.h"
#include "coord/coordinator.h"
#include "coord/journal.h"
#include "cruz/cluster.h"

namespace cruz::coord {
namespace {

// A distributed streaming job: sender pod on node 0, receiver pod on
// node 1, streaming the deterministic pattern.
struct StreamJob {
  os::PodId sender_pod;
  os::PodId receiver_pod;
  net::Ipv4Address receiver_ip;
  os::Pid sender_vpid = 0;
  os::Pid receiver_vpid = 0;

  static StreamJob Start(Cluster& c, std::uint64_t total_bytes) {
    StreamJob job;
    job.receiver_pod = c.CreatePod(1, "recv");
    job.receiver_ip = c.pods(1).Find(job.receiver_pod)->ip;
    job.receiver_vpid = c.pods(1).SpawnInPod(
        job.receiver_pod, "cruz.stream_receiver",
        apps::StreamReceiverArgs(9100));
    c.sim().RunFor(5 * kMillisecond);
    job.sender_pod = c.CreatePod(0, "send");
    job.sender_vpid = c.pods(0).SpawnInPod(
        job.sender_pod, "cruz.stream_sender",
        apps::StreamSenderArgs(job.receiver_ip, 9100, total_bytes));
    return job;
  }

  // Last observed status; sticky across receiver exit (the process
  // disappears once the stream completes).
  apps::StreamStatus last_status;

  apps::StreamStatus ReceiverStatus(Cluster& c, std::size_t node = 1) {
    os::Pid real =
        c.pods(node).ToRealPid(receiver_pod, receiver_vpid);
    os::Process* proc = c.node(node).os().FindProcess(real);
    if (proc != nullptr) last_status = apps::ReadStreamStatus(*proc);
    return last_status;
  }
};

TEST(Coordinated, CheckpointAndContinueMidStream) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  StreamJob job = StreamJob::Start(c, 4 * kMiB);

  // Let the stream get going.
  ASSERT_TRUE(c.sim().RunWhile(
      [&] { return job.ReceiverStatus(c).bytes > 256 * 1024; },
      c.sim().Now() + 60 * kSecond));
  std::uint64_t before = job.ReceiverStatus(c).bytes;

  Coordinator::OpStats stats = c.RunCheckpoint(
      {c.MemberFor(0, job.sender_pod), c.MemberFor(1, job.receiver_pod)});
  EXPECT_TRUE(stats.success);
  EXPECT_GT(stats.checkpoint_latency, 0u);
  EXPECT_GT(stats.max_local, 0u);
  // Coordination overhead is tiny compared to the local checkpoint time.
  EXPECT_LT(stats.coordination_overhead, stats.max_local / 10);
  // Fig. 2 message count: 4 coordinator->agent messages per member plus
  // replies — O(N), no flush traffic.
  EXPECT_EQ(stats.coordinator_messages, 2u * 2u);
  EXPECT_LE(stats.total_messages, 2u * 5u);

  // The stream completes with exactly-once delivery after the checkpoint.
  std::uint64_t final_total = 4 * kMiB;
  ASSERT_TRUE(c.sim().RunWhile(
      [&] { return job.ReceiverStatus(c).bytes >= final_total; },
      c.sim().Now() + 600 * kSecond));
  EXPECT_GE(job.ReceiverStatus(c).bytes, before);
  EXPECT_EQ(job.ReceiverStatus(c).mismatches, 0u);
}

TEST(Coordinated, RestartAfterTotalFailure) {
  ClusterConfig config;
  config.num_nodes = 4;  // two app nodes + two spares
  Cluster c(config);
  StreamJob job = StreamJob::Start(c, 2 * kMiB);
  ASSERT_TRUE(c.sim().RunWhile(
      [&] { return job.ReceiverStatus(c).bytes > 128 * 1024; },
      c.sim().Now() + 60 * kSecond));

  Coordinator::Options opts;
  opts.image_prefix = "/ckpt/job1";
  Coordinator::OpStats ck = c.RunCheckpoint(
      {c.MemberFor(0, job.sender_pod), c.MemberFor(1, job.receiver_pod)},
      opts);
  ASSERT_TRUE(ck.success);
  std::uint64_t at_checkpoint = job.ReceiverStatus(c).bytes;

  // Let it run on a little (this post-checkpoint progress is rolled back).
  c.sim().RunFor(100 * kMillisecond);

  // Catastrophe: both pods die.
  c.pods(0).DestroyPod(job.sender_pod);
  c.pods(1).DestroyPod(job.receiver_pod);
  c.sim().RunFor(kSecond);

  // Coordinated restart on the SPARE nodes (2 and 3) from the images.
  Coordinator::OpStats rs = c.RunRestart(
      {c.MemberFor(2, job.sender_pod), c.MemberFor(3, job.receiver_pod)},
      ck.image_paths, opts);
  EXPECT_TRUE(rs.success);
  EXPECT_GT(rs.max_local, 0u);
  EXPECT_LT(rs.coordination_overhead, rs.max_local / 10);

  // The pods now live on the new nodes with the same addresses.
  EXPECT_TRUE(c.node(3).stack().OwnsIp(job.receiver_ip));
  // The stream resumes from the checkpoint and completes, exactly once.
  job.last_status = apps::StreamStatus{};
  EXPECT_LE(job.ReceiverStatus(c, 3).bytes, at_checkpoint + 1);
  ASSERT_TRUE(c.sim().RunWhile(
      [&] { return job.ReceiverStatus(c, 3).bytes >= 2 * kMiB; },
      c.sim().Now() + 600 * kSecond));
  EXPECT_EQ(job.ReceiverStatus(c, 3).mismatches, 0u);
}

TEST(Coordinated, OptimizedVariantResumesEarly) {
  ClusterConfig config;
  config.num_nodes = 2;
  // Make the two nodes' disks very different so the Fig. 4 benefit is
  // observable: the fast node resumes long before the slow one finishes.
  Cluster c(config);
  StreamJob job = StreamJob::Start(c, 2 * kMiB);
  ASSERT_TRUE(c.sim().RunWhile(
      [&] { return job.ReceiverStatus(c).bytes > 64 * 1024; },
      c.sim().Now() + 60 * kSecond));

  Coordinator::Options opts;
  opts.variant = ProtocolVariant::kOptimized;
  opts.image_prefix = "/ckpt/opt";
  Coordinator::OpStats stats = c.RunCheckpoint(
      {c.MemberFor(0, job.sender_pod), c.MemberFor(1, job.receiver_pod)},
      opts);
  EXPECT_TRUE(stats.success);
  // Extra <comm-disabled> message per member.
  EXPECT_LE(stats.total_messages, 2u * 6u);
  ASSERT_TRUE(c.sim().RunWhile(
      [&] { return job.ReceiverStatus(c).bytes >= 2 * kMiB; },
      c.sim().Now() + 600 * kSecond));
  EXPECT_EQ(job.ReceiverStatus(c).mismatches, 0u);
}

TEST(Coordinated, CheckpointUsesLinearMessages) {
  for (std::uint32_t n : {2u, 4u}) {
    ClusterConfig config;
    config.num_nodes = n;
    Cluster c(config);
    // One idle pod per node (counters; the protocol cost is what matters).
    std::vector<Coordinator::Member> members;
    for (std::uint32_t i = 0; i < n; ++i) {
      os::PodId pod = c.CreatePod(i, "p" + std::to_string(i));
      c.pods(i).SpawnInPod(pod, "cruz.counter",
                           apps::CounterArgs(1u << 30));
      members.push_back(c.MemberFor(i, pod));
    }
    c.sim().RunFor(10 * kMillisecond);

    Coordinator::Options opts;
    opts.image_prefix = "/ckpt/cruz" + std::to_string(n);
    Coordinator::OpStats stats = c.RunCheckpoint(members, opts);
    ASSERT_TRUE(stats.success);

    // O(N): <checkpoint> and <continue> out, <done> and <continue-done>
    // back, and no agent-to-agent traffic.
    EXPECT_EQ(stats.coordinator_messages, 2 * n);
    EXPECT_EQ(stats.total_messages, 4 * n);
  }
}

TEST(Coordinated, TimeoutAbortsAndResumesSurvivors) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  StreamJob job = StreamJob::Start(c, 8 * kMiB);
  ASSERT_TRUE(c.sim().RunWhile(
      [&] { return job.ReceiverStatus(c).bytes > 64 * 1024; },
      c.sim().Now() + 60 * kSecond));

  // Node 0 fails right before the checkpoint: its agent can never reply.
  c.node(0).Fail();
  Coordinator::Options opts;
  opts.timeout = 2 * kSecond;
  Coordinator::OpStats stats = c.RunCheckpoint(
      {c.MemberFor(0, job.sender_pod), c.MemberFor(1, job.receiver_pod)},
      opts);
  EXPECT_FALSE(stats.success);
  c.sim().RunFor(kSecond);  // let the <abort> reach the surviving agent
  // The surviving pod was resumed by the abort: its processes are live.
  os::Pid real = c.pods(1).ToRealPid(job.receiver_pod, job.receiver_vpid);
  os::Process* proc = c.node(1).os().FindProcess(real);
  ASSERT_NE(proc, nullptr);
  EXPECT_EQ(proc->state(), os::ProcessState::kLive);
}

TEST(Coordinated, RepeatedCheckpointsKeepStreamIntact) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  StreamJob job = StreamJob::Start(c, 6 * kMiB);
  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE(c.sim().RunWhile(
        [&] {
          return job.ReceiverStatus(c).bytes >
                 static_cast<std::uint64_t>(round + 1) * kMiB;
        },
        c.sim().Now() + 600 * kSecond))
        << "round " << round;
    Coordinator::Options opts;
    opts.image_prefix = "/ckpt/round" + std::to_string(round);
    Coordinator::OpStats stats = c.RunCheckpoint(
        {c.MemberFor(0, job.sender_pod), c.MemberFor(1, job.receiver_pod)},
        opts);
    ASSERT_TRUE(stats.success) << "round " << round;
  }
  ASSERT_TRUE(c.sim().RunWhile(
      [&] { return job.ReceiverStatus(c).bytes >= 6 * kMiB; },
      c.sim().Now() + 600 * kSecond));
  EXPECT_EQ(job.ReceiverStatus(c).mismatches, 0u);
}

TEST(Coordinated, ChainCheckpointThenRestartThenCheckpoint) {
  ClusterConfig config;
  config.num_nodes = 3;
  Cluster c(config);
  StreamJob job = StreamJob::Start(c, 3 * kMiB);
  ASSERT_TRUE(c.sim().RunWhile(
      [&] { return job.ReceiverStatus(c).bytes > 200 * 1024; },
      c.sim().Now() + 60 * kSecond));

  Coordinator::Options opts;
  opts.image_prefix = "/ckpt/chain1";
  auto members = std::vector<Coordinator::Member>{
      c.MemberFor(0, job.sender_pod), c.MemberFor(1, job.receiver_pod)};
  Coordinator::OpStats ck1 = c.RunCheckpoint(members, opts);
  ASSERT_TRUE(ck1.success);

  c.pods(0).DestroyPod(job.sender_pod);
  c.pods(1).DestroyPod(job.receiver_pod);

  // Restart sender on node 2, receiver back on node 1.
  Coordinator::OpStats rs = c.RunRestart(
      {c.MemberFor(2, job.sender_pod), c.MemberFor(1, job.receiver_pod)},
      ck1.image_paths, opts);
  ASSERT_TRUE(rs.success);

  // A second checkpoint of the restarted job also works (receiver was
  // restarted in place on node 1).
  ASSERT_TRUE(c.sim().RunWhile(
      [&] { return job.ReceiverStatus(c).bytes > 1 * kMiB; },
      c.sim().Now() + 600 * kSecond));
  Coordinator::Options opts2;
  opts2.image_prefix = "/ckpt/chain2";
  Coordinator::OpStats ck2 = c.RunCheckpoint(
      {c.MemberFor(2, job.sender_pod), c.MemberFor(1, job.receiver_pod)},
      opts2);
  EXPECT_TRUE(ck2.success);
  ASSERT_TRUE(c.sim().RunWhile(
      [&] { return job.ReceiverStatus(c).bytes >= 3 * kMiB; },
      c.sim().Now() + 600 * kSecond));
  EXPECT_EQ(job.ReceiverStatus(c).mismatches, 0u);
}

// An agent drives one pod per op, and the coordinator tracks replies per
// agent address, so two members on one node would silently lose one pod
// (its image never written, the op still "succeeding"). Both entry points
// refuse such a member list up front, flat and hierarchical, before the
// op consumes an epoch or touches the journal.
TEST(Coordinated, RepeatedAgentAddressIsRejected) {
  for (std::uint32_t fan_out : {0u, 2u}) {
    ClusterConfig config;
    config.num_nodes = 2;
    Cluster c(config);
    std::vector<Coordinator::Member> members;
    for (std::size_t node : {0u, 0u, 1u}) {
      os::PodId pod = c.CreatePod(node, "p" + std::to_string(members.size()));
      c.pods(node).SpawnInPod(pod, "cruz.counter",
                              apps::CounterArgs(1u << 30));
      members.push_back(c.MemberFor(node, pod));
    }
    c.sim().RunFor(10 * kMillisecond);
    Coordinator::Options opts;
    opts.fan_out = fan_out;
    opts.image_prefix = "/ckpt/dup";
    IntentJournal journal(c.fs());

    EXPECT_THROW(c.coordinator().Checkpoint(members, opts, nullptr),
                 UsageError)
        << "fan_out " << fan_out;
    EXPECT_THROW(c.coordinator().Restart(members, {"a", "b", "c"}, opts,
                                         nullptr),
                 UsageError)
        << "fan_out " << fan_out;
    EXPECT_FALSE(c.coordinator().busy());
    EXPECT_EQ(c.coordinator().epoch(), 0u);
    EXPECT_TRUE(journal.ReadAll().empty());

    // One member per node is fine, and consumes the first epoch.
    Coordinator::OpStats ok =
        c.RunCheckpoint({members[0], members[2]}, opts);
    EXPECT_TRUE(ok.success) << "fan_out " << fan_out;
    EXPECT_EQ(ok.epoch, 1u);
  }
}

}  // namespace
}  // namespace cruz::coord
