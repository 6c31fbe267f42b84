#include "cruz/cluster.h"

#include <algorithm>

#include "apps/programs.h"
#include "common/error.h"
#include "common/log.h"

namespace cruz {

Cluster::Cluster(const ClusterConfig& config) : sim_(config.seed) {
  apps::RegisterPrograms();
  ethernet_ = std::make_unique<net::EthernetSwitch>(sim_, config.link);
  // The checkpoint store over the shared netfs and the worker-node disks:
  // deterministic partner ring in node order. Every op commits through
  // it, with its tiered or one-tier policy.
  tiered_ = std::make_unique<ckpt::TieredStore>(sim_, fs_);

  for (std::uint32_t i = 0; i < config.num_nodes; ++i) {
    os::NodeConfig node_config = config.node_template;
    // Nodes 0..97 keep their historical 10.0.0.x addresses (the rest of
    // the third octet is reserved: .99 coordinator, .100+ pods, .200+
    // DHCP); larger clusters spill into 10.0.1.x and up (/16 subnet).
    if (i < 98) {
      node_config.ip = net::Ipv4Address::FromOctets(
          10, 0, 0, static_cast<std::uint8_t>(i + 1));
    } else {
      std::uint32_t n = i - 98;
      node_config.ip = net::Ipv4Address::FromOctets(
          10, 0, static_cast<std::uint8_t>(1 + n / 254),
          static_cast<std::uint8_t>(1 + n % 254));
    }
    auto node = std::make_unique<os::Node>(sim_, *ethernet_, fs_,
                                           "node" + std::to_string(i + 1),
                                           i + 1, node_config);
    auto pods = std::make_unique<pod::PodManager>(*node);
    auto agent =
        std::make_unique<coord::CheckpointAgent>(*node, *pods, *tiered_);
    tiered_->RegisterNode(node.get());
    nodes_.push_back(std::move(node));
    pod_managers_.push_back(std::move(pods));
    agents_.push_back(std::move(agent));
  }

  // Sub-coordinators for hierarchical mode.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    shard_coordinators_.push_back(
        std::make_unique<coord::ShardCoordinator>(*nodes_[i], *tiered_));
  }

  os::NodeConfig coord_config = config.node_template;
  coord_config.ip = net::Ipv4Address::FromOctets(10, 0, 0, 99);
  // Node index 0xFFFF keeps the coordinator's MAC clear of the worker
  // range (workers use 1..num_nodes; 99 used to collide at >= 99 nodes).
  coordinator_node_ = std::make_unique<os::Node>(
      sim_, *ethernet_, fs_, "coordinator", 0xFFFF, coord_config);
  coordinator_ =
      std::make_unique<coord::Coordinator>(*coordinator_node_, *tiered_);

  if (config.with_dhcp_server && !nodes_.empty()) {
    dhcp_ = std::make_unique<os::DhcpServer>(
        nodes_.front()->stack(),
        net::Ipv4Address::FromOctets(10, 0, 0, 200), 50);
  }
}

Cluster::~Cluster() = default;

net::Ipv4Address Cluster::AllocatePodIp() {
  // The first 100 pods keep their historical 10.0.0.100..199 addresses;
  // larger clusters spill into 10.0.100.x and up (/16 subnet), clear of
  // the node range (10.0.1.x..) and the DHCP pool (10.0.0.200+).
  std::uint32_t n = next_pod_ip_offset_++;
  if (n < 200) {
    return net::Ipv4Address::FromOctets(10, 0, 0,
                                        static_cast<std::uint8_t>(n));
  }
  std::uint32_t spill = n - 200;
  CRUZ_CHECK(spill < 100u * 254u, "pod address pool exhausted");
  return net::Ipv4Address::FromOctets(
      10, 0, static_cast<std::uint8_t>(100 + spill / 254),
      static_cast<std::uint8_t>(1 + spill % 254));
}

os::PodId Cluster::CreatePod(std::size_t i, const std::string& name,
                             net::Ipv4Address ip) {
  pod::PodCreateOptions options;
  options.name = name;
  options.ip = ip.IsZero() ? AllocatePodIp() : ip;
  return pods(i).CreatePod(options);
}

coord::Coordinator::OpStats Cluster::RunCheckpoint(
    std::vector<coord::Coordinator::Member> members,
    coord::Coordinator::Options options) {
  coord::Coordinator::OpStats result;
  bool finished = false;
  coordinator_->Checkpoint(std::move(members), options,
                           [&](const coord::Coordinator::OpStats& stats) {
                             result = stats;
                             finished = true;
                           });
  bool done = sim_.RunWhile([&] { return finished; },
                            sim_.Now() + options.timeout + kSecond);
  CRUZ_CHECK(done, "coordinated checkpoint did not complete");
  return result;
}

coord::Coordinator::OpStats Cluster::RunRestart(
    std::vector<coord::Coordinator::Member> members,
    std::vector<std::string> image_paths,
    coord::Coordinator::Options options) {
  coord::Coordinator::OpStats result;
  bool finished = false;
  coordinator_->Restart(std::move(members), std::move(image_paths), options,
                        [&](const coord::Coordinator::OpStats& stats) {
                          result = stats;
                          finished = true;
                        });
  bool done = sim_.RunWhile([&] { return finished; },
                            sim_.Now() + options.timeout + kSecond);
  CRUZ_CHECK(done, "coordinated restart did not complete");
  return result;
}

void Cluster::ArmFaults(fault::FaultPlan& plan) {
  armed_plan_ = &plan;
  plan.set_tracer(&sim_.tracer());
  coordinator_->set_fault_injector(&plan);
  for (auto& agent : agents_) agent->set_fault_injector(&plan);
  for (auto& sub : shard_coordinators_) sub->set_fault_injector(&plan);
  tiered_->set_injector(&plan);

  // Tier-scoped faults: local-disk loss wipes one node's tier-1 cache
  // (the node itself stays up), a netfs outage window makes the shared
  // FS return -EIO for its duration.
  for (const fault::DiskLossSpec& spec : plan.disk_losses()) {
    CRUZ_CHECK(spec.node_index < nodes_.size(),
               "disk loss spec out of range");
    os::Node* node = nodes_[spec.node_index].get();
    fault::FaultPlan* p = &plan;
    TimeNs delay = spec.at > sim_.Now() ? spec.at - sim_.Now() : 0;
    sim_.Schedule(delay, [node, p] {
      node->disk().Clear();
      p->RecordEvent(fault::FaultKind::kLocalDiskLoss, node->name());
    });
  }
  for (const fault::NetfsOutageSpec& spec : plan.netfs_outages()) {
    fault::FaultPlan* p = &plan;
    os::NetworkFileSystem* fs = &fs_;
    TimeNs delay = spec.start > sim_.Now() ? spec.start - sim_.Now() : 0;
    sim_.Schedule(delay, [fs, p] {
      fs->set_available(false);
      p->RecordEvent(fault::FaultKind::kNetfsOutage, "start");
    });
    sim_.Schedule(delay + spec.duration, [fs, p] {
      fs->set_available(true);
      p->RecordEvent(fault::FaultKind::kNetfsOutage, "end");
    });
  }

  for (const fault::NodeCrashSpec& spec : plan.node_crashes()) {
    CRUZ_CHECK(spec.node_index < nodes_.size(),
               "node crash spec out of range");
    os::Node* node = nodes_[spec.node_index].get();
    coord::CheckpointAgent* agent = agents_[spec.node_index].get();
    coord::ShardCoordinator* sub = shard_coordinators_[spec.node_index].get();
    pod::PodManager* pods = pod_managers_[spec.node_index].get();
    fault::FaultPlan* p = &plan;
    TimeNs crash_delay =
        spec.crash_at > sim_.Now() ? spec.crash_at - sim_.Now() : 0;
    sim_.Schedule(crash_delay, [node, agent, sub, p] {
      node->Fail();
      agent->Crash();
      sub->Crash();
      p->RecordEvent(fault::FaultKind::kNodeCrash, node->name());
    });
    if (spec.reboot_after > 0) {
      sim_.Schedule(crash_delay + spec.reboot_after,
                    [node, agent, sub, pods, p] {
        node->Reboot();
        // A power-cycled machine comes back with no processes: clear the
        // stale pod bookkeeping before the restarted agent takes over.
        std::vector<os::PodId> stale;
        for (const auto& [id, pod] : pods->pods()) stale.push_back(id);
        for (os::PodId id : stale) pods->DestroyPod(id);
        agent->Reset();
        // The reborn sub-coordinator replays its intent journal, fencing
        // and cleaning any shard op it was driving when the node died.
        sub->Reset();
        p->RecordEvent(fault::FaultKind::kNodeReboot, node->name());
      });
    }
  }

  // Timed agent-process crashes (node stays up). These can hit inside an
  // agent's background write-out window, which no message-triggered crash
  // can reach once the pod has resumed.
  for (const fault::AgentCrashSpec& spec : plan.agent_crash_times()) {
    CRUZ_CHECK(spec.node_index < agents_.size(),
               "agent crash spec out of range");
    coord::CheckpointAgent* agent = agents_[spec.node_index].get();
    fault::FaultPlan* p = &plan;
    TimeNs crash_delay =
        spec.crash_at > sim_.Now() ? spec.crash_at - sim_.Now() : 0;
    sim_.Schedule(crash_delay, [agent, p] {
      agent->Crash();
      p->RecordEvent(fault::FaultKind::kAgentCrash, agent->node().name());
    });
  }
}

void Cluster::RestartCoordinator() {
  // Destroy first so the new incarnation can bind the coordinator port;
  // its constructor then replays the intent journal.
  coordinator_.reset();
  coordinator_ =
      std::make_unique<coord::Coordinator>(*coordinator_node_, *tiered_);
  if (armed_plan_ != nullptr) {
    coordinator_->set_fault_injector(armed_plan_);
  }
}

std::shared_ptr<Cluster::PendingGenerationOp>
Cluster::StartGenerationCheckpoint(
    std::vector<coord::Coordinator::Member> members,
    coord::Coordinator::Options options, const std::string& root) {
  ckpt::GenerationStore store(*tiered_, root);
  auto op = std::make_shared<PendingGenerationOp>();
  op->generation = store.Allocate();
  op->members = members;
  op->root = root;
  options.image_prefix = store.Prefix(op->generation);
  std::shared_ptr<PendingGenerationOp> capture = op;
  coordinator_->Checkpoint(std::move(members), options,
                           [capture](const coord::Coordinator::OpStats& s) {
                             capture->stats = s;
                             capture->finished = true;
                           });
  return op;
}

Cluster::GenerationOpResult Cluster::SettleGenerationCheckpoint(
    const std::shared_ptr<PendingGenerationOp>& op) {
  ckpt::GenerationStore store(*tiered_, op->root);
  store.set_tracer(&sim_.tracer());
  GenerationOpResult result;
  result.allocated = op->generation;
  result.stats = op->stats;
  std::vector<ckpt::ManifestEntry> entries;
  if (op->finished && op->stats.success) {
    for (std::size_t i = 0; i < op->members.size(); ++i) {
      ckpt::ManifestEntry e;
      e.pod = op->members[i].pod;
      e.image_path = op->stats.image_paths.at(i);
      // Size and frame trailer come from the store's record (a tiered
      // one without touching the possibly unavailable netfs); a tiered
      // <done> also reported where the image landed.
      std::optional<ckpt::Replica> record = tiered_->CommitRecord(e.image_path);
      if (!record.has_value()) {
        CRUZ_WARN("cruz") << e.image_path << ": no commit record";
        result.stats.success = false;
        result.stats.abort_reason = "no commit record for " + e.image_path;
        break;
      }
      e.size = record->size;
      e.crc32 = record->crc32;
      e.replicas = op->stats.replica_sets.at(i);
      entries.push_back(std::move(e));
    }
  }
  if (op->finished && result.stats.success) {
    result.generation = op->generation;
    store.Commit(result.generation, entries);
  } else {
    // Aborted, never finished (coordinator crashed mid-op) or not
    // recordable: the partial generation must not survive either way.
    if (!op->finished) result.stats.success = false;
    store.Discard(op->generation);
    result.generation = 0;
  }
  result.latest_committed = store.LatestCommitted().value_or(0);
  return result;
}

Cluster::GenerationOpResult Cluster::RunGenerationCheckpoint(
    std::vector<coord::Coordinator::Member> members,
    coord::Coordinator::Options options, const std::string& root) {
  DurationNs timeout = options.timeout;
  std::shared_ptr<PendingGenerationOp> op =
      StartGenerationCheckpoint(std::move(members), options, root);
  bool done = sim_.RunWhile([&] { return op->finished; },
                            sim_.Now() + timeout + kSecond);
  CRUZ_CHECK(done, "coordinated checkpoint did not complete");
  return SettleGenerationCheckpoint(op);
}

Cluster::GenerationOpResult Cluster::RunGenerationRestart(
    std::vector<coord::Coordinator::Member> members,
    coord::Coordinator::Options options, const std::string& root) {
  ckpt::GenerationStore store(*tiered_, root);
  const std::vector<std::uint64_t> committed = store.Committed();
  GenerationOpResult result;
  result.latest_committed = committed.empty() ? 0 : committed.back();
  // Newest first; only a member's <failed> moves on to an older one.
  for (auto gen = committed.rbegin(); gen != committed.rend(); ++gen) {
    if (gen != committed.rbegin()) {
      sim_.tracer().Instant("coord", "coord.restart.fallback",
                            obs::TraceAttrs{}
                                .Op(result.stats.op_id)
                                .Agent(coordinator_node_->name())
                                .Arg("from", result.generation)
                                .Arg("to", *gen));
    }
    auto manifest = store.ReadManifest(*gen);
    if (!manifest) continue;  // lost since Committed() read it
    result.generation = *gen;
    result.fell_back = *gen != result.latest_committed;
    std::vector<std::string> image_paths;
    for (const coord::Coordinator::Member& m : members) {
      auto entry = std::find_if(
          manifest->begin(), manifest->end(),
          [&](const ckpt::ManifestEntry& e) { return e.pod == m.pod; });
      CRUZ_CHECK(entry != manifest->end(),
                 "pod not present in the checkpoint generation manifest");
      image_paths.push_back(entry->image_path);
    }
    result.stats = RunRestart(members, std::move(image_paths), options);
    if (result.stats.success || result.stats.failed_pod == os::kNoPod) {
      return result;
    }
  }
  result.stats.success = false;
  result.stats.abort_reason = "no intact checkpoint generation";
  return result;
}

}  // namespace cruz
