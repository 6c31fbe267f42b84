#include "cruz/scheduler.h"

#include "common/error.h"
#include "common/log.h"

namespace cruz {

namespace {
constexpr DurationNs kPollInterval = 100 * kMillisecond;
}

JobScheduler::JobScheduler(Cluster& cluster) : cluster_(cluster) {
  poll_timer_ = cluster_.sim().Schedule(kPollInterval, [this] {
    poll_timer_ = sim::kInvalidEventId;
    PollJobs();
  });
}

JobScheduler::~JobScheduler() {
  shutting_down_ = true;
  if (poll_timer_ != sim::kInvalidEventId) {
    cluster_.sim().Cancel(poll_timer_);
  }
}

std::size_t JobScheduler::LiveNodeCount() const {
  std::size_t live = 0;
  for (std::size_t i = 0; i < cluster_.num_nodes(); ++i) {
    if (!cluster_.node(i).failed()) ++live;
  }
  return live;
}

std::size_t JobScheduler::NextLiveNode() {
  for (std::size_t tries = 0; tries < cluster_.num_nodes(); ++tries) {
    std::size_t candidate = placement_cursor_;
    placement_cursor_ = (placement_cursor_ + 1) % cluster_.num_nodes();
    if (!cluster_.node(candidate).failed()) return candidate;
  }
  throw UsageError("no live nodes available for placement");
}

std::uint64_t JobScheduler::Submit(JobSpec spec) {
  CRUZ_CHECK(!spec.tasks.empty(), "job with no tasks");
  // One pod per node: the coordinator checkpoints one pod per agent.
  if (spec.tasks.size() > LiveNodeCount()) {
    throw UsageError("job " + spec.name + " has more tasks than live nodes");
  }
  Job job;
  job.id = next_job_id_++;
  job.spec = std::move(spec);

  // Place: one pod per task, round-robin on live nodes.
  std::vector<net::Ipv4Address> pod_ips;
  for (std::size_t t = 0; t < job.spec.tasks.size(); ++t) {
    Task task;
    task.node = NextLiveNode();
    task.pod = cluster_.CreatePod(
        task.node, job.spec.name + "." + std::to_string(t));
    task.pod_ip = cluster_.pods(task.node).Find(task.pod)->ip;
    pod_ips.push_back(task.pod_ip);
    job.tasks.push_back(task);
  }
  // Spawn once every address is known.
  for (std::size_t t = 0; t < job.tasks.size(); ++t) {
    const TaskSpec& ts = job.spec.tasks[t];
    cruz::Bytes args = ts.args ? ts.args(pod_ips, t) : cruz::Bytes{};
    Task& task = job.tasks[t];
    task.vpid = cluster_.pods(task.node).SpawnInPod(task.pod, ts.program,
                                                    args);
  }
  std::uint64_t id = job.id;
  jobs_.emplace(id, std::move(job));
  if (jobs_.at(id).spec.checkpoint_interval > 0) {
    ScheduleCheckpointTimer(id);
  }
  CRUZ_INFO("sched") << "submitted job " << id << " ("
                     << jobs_.at(id).spec.name << ", "
                     << jobs_.at(id).tasks.size() << " tasks)";
  return id;
}

const JobScheduler::Job* JobScheduler::Find(std::uint64_t id) const {
  auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : &it->second;
}

os::Process* JobScheduler::TaskProcess(const Job& job,
                                       std::size_t task_index) {
  const Task& task = job.tasks.at(task_index);
  os::Pid real =
      cluster_.pods(task.node).ToRealPid(task.pod, task.vpid);
  if (real == os::kNoPid) return nullptr;
  return cluster_.node(task.node).os().FindProcess(real);
}

void JobScheduler::ScheduleCheckpointTimer(std::uint64_t id) {
  Job* job = const_cast<Job*>(Find(id));
  if (job == nullptr) return;
  cluster_.sim().Schedule(job->spec.checkpoint_interval, [this, id] {
    if (shutting_down_) return;
    Job* j = const_cast<Job*>(Find(id));
    if (j == nullptr || j->state == JobState::kCompleted ||
        j->state == JobState::kFailed) {
      return;
    }
    CheckpointJob(id);
    ScheduleCheckpointTimer(id);
  });
}

void JobScheduler::CheckpointJob(std::uint64_t id) {
  Job* job = const_cast<Job*>(Find(id));
  if (job == nullptr || job->state != JobState::kRunning) return;
  if (cluster_.coordinator().busy()) return;  // try again next interval
  std::vector<coord::Coordinator::Member> members;
  for (const Task& task : job->tasks) {
    members.push_back(cluster_.MemberFor(task.node, task.pod));
  }
  coord::Coordinator::Options options;
  options.image_prefix = "/ckpt/job" + std::to_string(id) + "_gen" +
                         std::to_string(job->checkpoints_taken);
  job->state = JobState::kCheckpointing;
  cluster_.coordinator().Checkpoint(
      members, options, [this, id](const coord::Coordinator::OpStats& s) {
        Job* j = const_cast<Job*>(Find(id));
        if (j == nullptr) return;
        if (j->state == JobState::kCheckpointing) {
          j->state = JobState::kRunning;
        }
        if (s.success) {
          j->last_images = s.image_paths;
          ++j->checkpoints_taken;
        }
      });
}

void JobScheduler::HandleNodeFailure(std::size_t node_index) {
  for (auto& [id, job] : jobs_) {
    if (job.state == JobState::kCompleted ||
        job.state == JobState::kFailed) {
      continue;
    }
    bool affected = false;
    for (const Task& task : job.tasks) {
      if (task.node == node_index) affected = true;
    }
    if (!affected) continue;
    if (job.last_images.empty()) {
      job.state = JobState::kFailed;
      CRUZ_WARN("sched") << "job " << id
                         << " lost with no checkpoint; marked failed";
      continue;
    }
    if (LiveNodeCount() < job.tasks.size()) {
      job.state = JobState::kFailed;
      CRUZ_WARN("sched") << "job " << id
                         << " lost: fewer live nodes than tasks; marked "
                            "failed";
      continue;
    }
    // Kill the survivors (their state is inconsistent with the failed
    // task) and restart the whole job from the last checkpoint.
    job.state = JobState::kRestarting;
    for (Task& task : job.tasks) {
      if (task.node != node_index &&
          !cluster_.node(task.node).failed()) {
        cluster_.pods(task.node).DestroyPod(task.pod);
      }
    }
    std::vector<coord::Coordinator::Member> members;
    for (Task& task : job.tasks) {
      task.node = NextLiveNode();
      members.push_back(
          coord::Coordinator::Member{cluster_.node(task.node).ip(),
                                     task.pod});
    }
    std::uint64_t job_id = id;
    cluster_.coordinator().Restart(
        members, job.last_images, {},
        [this, job_id](const coord::Coordinator::OpStats& s) {
          Job* j = const_cast<Job*>(Find(job_id));
          if (j == nullptr) return;
          if (s.success) {
            j->state = JobState::kRunning;
            ++j->restarts;
            CRUZ_INFO("sched") << "job " << job_id
                               << " restarted from checkpoint";
          } else {
            j->state = JobState::kFailed;
          }
        });
    // One coordinated restart at a time (the coordinator is busy).
    break;
  }
}

void JobScheduler::PollJobs() {
  for (auto& [id, job] : jobs_) {
    if (job.state != JobState::kRunning) continue;
    bool any_alive = false;
    for (const Task& task : job.tasks) {
      if (cluster_.node(task.node).failed()) continue;
      if (!cluster_.node(task.node)
               .os()
               .PodProcesses(task.pod)
               .empty()) {
        any_alive = true;
      }
    }
    if (!any_alive) {
      job.state = JobState::kCompleted;
      CRUZ_INFO("sched") << "job " << id << " completed";
      // Tidy up the empty pods.
      for (const Task& task : job.tasks) {
        if (!cluster_.node(task.node).failed()) {
          cluster_.pods(task.node).DestroyPod(task.pod);
        }
      }
    }
  }
  poll_timer_ = cluster_.sim().Schedule(kPollInterval, [this] {
    poll_timer_ = sim::kInvalidEventId;
    PollJobs();
  });
}

}  // namespace cruz
