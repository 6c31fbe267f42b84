// Job scheduler (the paper's LSF integration, §6: "integrated it with
// LSF, a job scheduler for clusters").
//
// A job is a set of tasks, one pod per task, placed round-robin across
// live nodes, at most one task per node (the coordinator checkpoints one
// pod per agent). The scheduler can checkpoint a job periodically (the §6
// experiments checkpoint every 8 seconds of execution), and recovers from
// node failures by coordinated restart of the whole job from its most
// recent checkpoint images on the surviving nodes — the fault-tolerance
// use case of §1.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "cruz/cluster.h"

namespace cruz {

class JobScheduler {
 public:
  struct TaskSpec {
    std::string program;
    // Called once all task pod addresses are known (rank -> address), so
    // distributed programs can embed their peers' addresses.
    std::function<cruz::Bytes(const std::vector<net::Ipv4Address>& pods,
                              std::size_t task_index)>
        args;
  };

  struct JobSpec {
    std::string name;
    std::vector<TaskSpec> tasks;
    // 0 = no automatic checkpoints.
    DurationNs checkpoint_interval = 0;
  };

  enum class JobState {
    kRunning,
    kCheckpointing,
    kRestarting,
    kCompleted,
    kFailed,
  };

  struct Task {
    std::size_t node = 0;
    os::PodId pod = os::kNoPod;
    os::Pid vpid = 0;
    net::Ipv4Address pod_ip;
  };

  struct Job {
    std::uint64_t id = 0;
    JobSpec spec;
    JobState state = JobState::kRunning;
    std::vector<Task> tasks;
    std::vector<std::string> last_images;  // from the latest checkpoint
    std::uint32_t checkpoints_taken = 0;
    std::uint32_t restarts = 0;
  };

  explicit JobScheduler(Cluster& cluster);
  ~JobScheduler();

  // Places and starts a job. Returns its id. Throws UsageError if the job
  // has more tasks than there are live nodes.
  std::uint64_t Submit(JobSpec spec);

  const Job* Find(std::uint64_t id) const;

  // Takes a coordinated checkpoint of the job now (asynchronous; the
  // result updates the job's last_images).
  void CheckpointJob(std::uint64_t id);

  // Reacts to a node failure: every job with a task on that node is
  // restarted from its last checkpoint on the surviving nodes (or marked
  // failed if it was never checkpointed or fewer nodes than tasks survive).
  void HandleNodeFailure(std::size_t node_index);

  // Reads a task's process (nullptr once it exited).
  os::Process* TaskProcess(const Job& job, std::size_t task_index);

 private:
  void PollJobs();
  void ScheduleCheckpointTimer(std::uint64_t id);
  std::size_t NextLiveNode();
  std::size_t LiveNodeCount() const;

  Cluster& cluster_;
  std::map<std::uint64_t, Job> jobs_;
  std::uint64_t next_job_id_ = 1;
  std::size_t placement_cursor_ = 0;
  sim::EventId poll_timer_ = sim::kInvalidEventId;
  bool shutting_down_ = false;
};

}  // namespace cruz
