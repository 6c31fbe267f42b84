// End-to-end tests for the slm parallel workload and the job scheduler:
// distributed correctness against a reference model, checkpoint
// transparency (checksums unchanged by checkpoints/restarts in the
// middle of the run), and failure recovery through the scheduler.
#include <gtest/gtest.h>

#include "apps/slm.h"
#include "common/error.h"
#include "cruz/cluster.h"
#include "cruz/scheduler.h"

namespace cruz {
namespace {

struct SlmJob {
  std::vector<os::PodId> pods;
  std::vector<os::Pid> vpids;
  std::vector<std::size_t> nodes;  // node index per rank
  apps::SlmConfig base;
  std::vector<apps::SlmStatus> final_status;

  // Starts one rank pod per node.
  static SlmJob Start(Cluster& c, std::uint32_t nranks,
                      std::uint32_t iterations,
                      std::uint32_t rows = 32) {
    apps::RegisterSlmProgram();
    SlmJob job;
    job.base.nranks = nranks;
    job.base.rows = rows;
    job.base.cols = 256;
    job.base.iterations = iterations;
    job.base.compute_per_iteration = kMillisecond;
    job.base.exit_when_done = false;  // keep final state observable
    std::vector<net::Ipv4Address> peers;
    for (std::uint32_t r = 0; r < nranks; ++r) {
      std::size_t node = r % c.num_nodes();
      job.nodes.push_back(node);
      job.pods.push_back(c.CreatePod(node, "slm" + std::to_string(r)));
      peers.push_back(c.pods(node).Find(job.pods.back())->ip);
    }
    job.base.peers = peers;
    job.final_status.resize(nranks);
    for (std::uint32_t r = 0; r < nranks; ++r) {
      apps::SlmConfig cfg = job.base;
      cfg.rank = r;
      job.vpids.push_back(c.pods(job.nodes[r]).SpawnInPod(
          job.pods[r], "cruz.slm_rank", apps::SlmArgs(cfg)));
    }
    return job;
  }

  apps::SlmStatus Status(Cluster& c, std::uint32_t rank) {
    os::Pid real =
        c.pods(nodes[rank]).ToRealPid(pods[rank], vpids[rank]);
    os::Process* proc = c.node(nodes[rank]).os().FindProcess(real);
    if (proc != nullptr) {
      final_status[rank] = apps::ReadSlmStatus(*proc);
    }
    return final_status[rank];
  }

  bool AllDone(Cluster& c) {
    for (std::uint32_t r = 0; r < base.nranks; ++r) {
      if (Status(c, r).iterations < base.iterations) return false;
    }
    return true;
  }
};

TEST(Slm, DistributedRunMatchesReference) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  SlmJob job = SlmJob::Start(c, 2, 100);
  ASSERT_TRUE(c.sim().RunWhile([&] { return job.AllDone(c); },
                               c.sim().Now() + 600 * kSecond));
  for (std::uint32_t r = 0; r < 2; ++r) {
    apps::SlmConfig cfg = job.base;
    cfg.rank = r;
    EXPECT_EQ(job.Status(c, r).edge_checksum,
              apps::SlmReferenceChecksum(cfg, 100))
        << "rank " << r;
  }
}

TEST(Slm, FourRanksMatchReference) {
  ClusterConfig config;
  config.num_nodes = 4;
  Cluster c(config);
  SlmJob job = SlmJob::Start(c, 4, 60);
  ASSERT_TRUE(c.sim().RunWhile([&] { return job.AllDone(c); },
                               c.sim().Now() + 600 * kSecond));
  for (std::uint32_t r = 0; r < 4; ++r) {
    apps::SlmConfig cfg = job.base;
    cfg.rank = r;
    EXPECT_EQ(job.Status(c, r).edge_checksum,
              apps::SlmReferenceChecksum(cfg, 60));
  }
}

TEST(Slm, CheckpointMidRunDoesNotPerturbResult) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  SlmJob job = SlmJob::Start(c, 2, 200);
  // Run to the middle, checkpoint (and continue), finish.
  ASSERT_TRUE(c.sim().RunWhile(
      [&] { return job.Status(c, 0).iterations >= 80; },
      c.sim().Now() + 600 * kSecond));
  auto stats = c.RunCheckpoint({c.MemberFor(job.nodes[0], job.pods[0]),
                                c.MemberFor(job.nodes[1], job.pods[1])});
  ASSERT_TRUE(stats.success);
  ASSERT_TRUE(c.sim().RunWhile([&] { return job.AllDone(c); },
                               c.sim().Now() + 600 * kSecond));
  for (std::uint32_t r = 0; r < 2; ++r) {
    apps::SlmConfig cfg = job.base;
    cfg.rank = r;
    EXPECT_EQ(job.Status(c, r).edge_checksum,
              apps::SlmReferenceChecksum(cfg, 200))
        << "rank " << r;
  }
}

TEST(Slm, RestartOnSparesMatchesReference) {
  ClusterConfig config;
  config.num_nodes = 4;  // ranks on 0,1; spares 2,3
  Cluster c(config);
  SlmJob job = SlmJob::Start(c, 2, 150);
  ASSERT_TRUE(c.sim().RunWhile(
      [&] { return job.Status(c, 0).iterations >= 50; },
      c.sim().Now() + 600 * kSecond));
  coord::Coordinator::Options opts;
  opts.image_prefix = "/ckpt/slm";
  auto ck = c.RunCheckpoint({c.MemberFor(0, job.pods[0]),
                             c.MemberFor(1, job.pods[1])},
                            opts);
  ASSERT_TRUE(ck.success);
  c.sim().RunFor(100 * kMillisecond);
  c.pods(0).DestroyPod(job.pods[0]);
  c.pods(1).DestroyPod(job.pods[1]);
  auto rs = c.RunRestart(
      {c.MemberFor(2, job.pods[0]), c.MemberFor(3, job.pods[1])},
      ck.image_paths, opts);
  ASSERT_TRUE(rs.success);
  job.nodes = {2, 3};
  job.final_status.assign(2, {});
  ASSERT_TRUE(c.sim().RunWhile([&] { return job.AllDone(c); },
                               c.sim().Now() + 600 * kSecond));
  for (std::uint32_t r = 0; r < 2; ++r) {
    apps::SlmConfig cfg = job.base;
    cfg.rank = r;
    EXPECT_EQ(job.Status(c, r).edge_checksum,
              apps::SlmReferenceChecksum(cfg, 150))
        << "rank " << r;
  }
}

// --- scheduler ------------------------------------------------------------------

JobScheduler::JobSpec SlmJobSpec(std::uint32_t nranks,
                                 std::uint32_t iterations,
                                 DurationNs checkpoint_interval) {
  apps::RegisterSlmProgram();
  JobScheduler::JobSpec spec;
  spec.name = "slm";
  spec.checkpoint_interval = checkpoint_interval;
  for (std::uint32_t r = 0; r < nranks; ++r) {
    JobScheduler::TaskSpec task;
    task.program = "cruz.slm_rank";
    task.args = [r, nranks, iterations](
                    const std::vector<net::Ipv4Address>& pods,
                    std::size_t) {
      apps::SlmConfig cfg;
      cfg.rank = r;
      cfg.nranks = nranks;
      cfg.peers = pods;
      cfg.rows = 32;
      cfg.cols = 256;
      cfg.iterations = iterations;
      cfg.compute_per_iteration = kMillisecond;
      return apps::SlmArgs(cfg);
    };
    spec.tasks.push_back(std::move(task));
  }
  return spec;
}

TEST(Scheduler, RunsJobToCompletion) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  JobScheduler sched(c);
  std::uint64_t id = sched.Submit(SlmJobSpec(2, 50, 0));
  ASSERT_TRUE(c.sim().RunWhile(
      [&] {
        return sched.Find(id)->state == JobScheduler::JobState::kCompleted;
      },
      c.sim().Now() + 600 * kSecond));
}

TEST(Scheduler, PeriodicCheckpointsHappen)  {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  JobScheduler sched(c);
  std::uint64_t id = sched.Submit(SlmJobSpec(2, 400, 100 * kMillisecond));
  ASSERT_TRUE(c.sim().RunWhile(
      [&] { return sched.Find(id)->checkpoints_taken >= 3; },
      c.sim().Now() + 600 * kSecond));
  ASSERT_TRUE(c.sim().RunWhile(
      [&] {
        return sched.Find(id)->state == JobScheduler::JobState::kCompleted;
      },
      c.sim().Now() + 600 * kSecond));
}

TEST(Scheduler, NodeFailureRecoversFromCheckpoint) {
  ClusterConfig config;
  config.num_nodes = 3;  // ranks land on 0 and 1; node 2 is the spare
  Cluster c(config);
  JobScheduler sched(c);
  std::uint64_t id = sched.Submit(SlmJobSpec(2, 300, 100 * kMillisecond));
  ASSERT_TRUE(c.sim().RunWhile(
      [&] { return sched.Find(id)->checkpoints_taken >= 1; },
      c.sim().Now() + 600 * kSecond));

  // Fail the node hosting task 0.
  std::size_t victim = sched.Find(id)->tasks[0].node;
  c.node(victim).Fail();
  sched.HandleNodeFailure(victim);
  ASSERT_TRUE(c.sim().RunWhile(
      [&] { return sched.Find(id)->restarts >= 1; },
      c.sim().Now() + 600 * kSecond));
  // The restarted job must run to completion on the surviving nodes.
  ASSERT_TRUE(c.sim().RunWhile(
      [&] {
        return sched.Find(id)->state == JobScheduler::JobState::kCompleted;
      },
      c.sim().Now() + 1200 * kSecond));
  for (const auto& task : sched.Find(id)->tasks) {
    EXPECT_NE(task.node, victim);
  }
}

TEST(Scheduler, JobWithoutCheckpointFailsOnNodeLoss) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  JobScheduler sched(c);
  std::uint64_t id = sched.Submit(SlmJobSpec(2, 100000, 0));
  c.sim().RunFor(100 * kMillisecond);
  std::size_t victim = sched.Find(id)->tasks[0].node;
  c.node(victim).Fail();
  sched.HandleNodeFailure(victim);
  EXPECT_EQ(sched.Find(id)->state, JobScheduler::JobState::kFailed);
}

// Each task needs a node of its own: the coordinator drives one pod per
// agent, so a job with more tasks than live nodes cannot be checkpointed
// or restarted. Submit refuses it, and a node failure that leaves fewer
// live nodes than tasks fails the job instead of restarting two tasks on
// one node (which would silently lose one of them).
TEST(Scheduler, SubmitRejectsMoreTasksThanLiveNodes) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  JobScheduler sched(c);
  EXPECT_THROW(sched.Submit(SlmJobSpec(3, 50, 0)), UsageError);
  c.node(1).Fail();
  EXPECT_THROW(sched.Submit(SlmJobSpec(2, 50, 0)), UsageError);
}

TEST(Scheduler, NodeLossWithoutSpareFailsCheckpointedJob) {
  ClusterConfig config;
  config.num_nodes = 2;  // no spare: the survivor cannot host both ranks
  Cluster c(config);
  JobScheduler sched(c);
  std::uint64_t id = sched.Submit(SlmJobSpec(2, 100000, 100 * kMillisecond));
  ASSERT_TRUE(c.sim().RunWhile(
      [&] { return sched.Find(id)->checkpoints_taken >= 1; },
      c.sim().Now() + 600 * kSecond));
  ASSERT_TRUE(c.sim().RunWhile([&] { return !c.coordinator().busy(); },
                               c.sim().Now() + 600 * kSecond));
  std::size_t victim = sched.Find(id)->tasks[0].node;
  c.node(victim).Fail();
  sched.HandleNodeFailure(victim);
  EXPECT_EQ(sched.Find(id)->state, JobScheduler::JobState::kFailed);
  EXPECT_EQ(sched.Find(id)->restarts, 0u);
  EXPECT_FALSE(c.coordinator().busy());
}

}  // namespace
}  // namespace cruz
