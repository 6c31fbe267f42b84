// Top-level facade: a complete simulated cluster, ready for Cruz.
//
// One Cluster owns the simulator, the Ethernet switch, the shared network
// filesystem, N application nodes (each with a pod manager and a
// checkpoint agent), and a separate coordinator node — the §6 testbed in
// one object. Helpers allocate pod addresses from the subnet, create pods,
// spawn programs into them, and run coordinated checkpoint/restart
// operations to completion.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ckpt/generation.h"
#include "ckpt/store/tiered_store.h"
#include "coord/agent.h"
#include "coord/coordinator.h"
#include "coord/shard_coordinator.h"
#include "fault/fault.h"
#include "net/ethernet_switch.h"
#include "os/dhcp.h"
#include "os/netfs.h"
#include "os/node.h"
#include "pod/pod.h"
#include "sim/simulator.h"

namespace cruz {

struct ClusterConfig {
  std::uint64_t seed = 1;
  std::uint32_t num_nodes = 2;  // application nodes
  os::NodeConfig node_template;  // ip is assigned per node
  net::LinkParams link;
  bool with_dhcp_server = false;  // serves 10.0.0.200+ on the first node
};

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config = {});
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  sim::Simulator& sim() { return sim_; }
  net::EthernetSwitch& ethernet() { return *ethernet_; }
  os::NetworkFileSystem& fs() { return fs_; }
  // The checkpoint store over the worker-node disks + the netfs: every
  // image and generation manifest goes through it, committed with the
  // op's policy (Options::tiered: local + partner + netfs flush; else
  // the netfs alone).
  ckpt::TieredStore& tiered() { return *tiered_; }

  std::size_t num_nodes() const { return nodes_.size(); }
  os::Node& node(std::size_t i) { return *nodes_.at(i); }
  pod::PodManager& pods(std::size_t i) { return *pod_managers_.at(i); }
  coord::CheckpointAgent& agent(std::size_t i) { return *agents_.at(i); }
  // Every node runs a sub-coordinator (idle unless the root addresses the
  // node as a shard head — see Coordinator::Options::fan_out).
  coord::ShardCoordinator& shard_coordinator(std::size_t i) {
    return *shard_coordinators_.at(i);
  }

  os::Node& coordinator_node() { return *coordinator_node_; }
  coord::Coordinator& coordinator() { return *coordinator_; }
  os::DhcpServer* dhcp() { return dhcp_.get(); }

  // Allocates a pod address from the cluster subnet (10.0.0.100 up).
  net::Ipv4Address AllocatePodIp();

  // Creates a pod on node `i` with an allocated (or given) address.
  os::PodId CreatePod(std::size_t i, const std::string& name,
                      net::Ipv4Address ip = net::kAnyAddress);

  // Runs a coordinated checkpoint synchronously (drives the simulation
  // until the operation completes).
  coord::Coordinator::OpStats RunCheckpoint(
      std::vector<coord::Coordinator::Member> members,
      coord::Coordinator::Options options = {});
  coord::Coordinator::OpStats RunRestart(
      std::vector<coord::Coordinator::Member> members,
      std::vector<std::string> image_paths,
      coord::Coordinator::Options options = {});

  // Convenience: member descriptor for (node index, pod).
  coord::Coordinator::Member MemberFor(std::size_t node_index,
                                       os::PodId pod) {
    return coord::Coordinator::Member{nodes_.at(node_index)->ip(), pod};
  }

  // --- failure model ------------------------------------------------------

  // Arms a fault plan cluster-wide: the coordinator and every agent
  // consult it on the injection hook points, and the plan's node-crash
  // schedule is turned into sim events (Node::Fail + agent crash at
  // crash_at; Node::Reboot + agent restart + stale-pod cleanup at
  // crash_at + reboot_after). The plan must outlive the cluster run.
  void ArmFaults(fault::FaultPlan& plan);

  // Simulates a coordinator process crash + restart: the old incarnation
  // is destroyed and a fresh one recovers from the intent journal
  // (aborting any in-flight op and collecting its partial images).
  void RestartCoordinator();

  // Outcome of a generation-aware coordinated operation.
  struct GenerationOpResult {
    coord::Coordinator::OpStats stats;
    std::uint64_t generation = 0;       // written (checkpoint) / used (restart)
    std::uint64_t allocated = 0;        // gen allocated for the attempt
    std::uint64_t latest_committed = 0; // newest committed gen, 0 = none
    bool fell_back = false;             // restart skipped corrupt newer gen(s)
  };

  // Coordinated checkpoint into a fresh generation directory. The
  // generation is committed (manifest with per-image CRCs) only if every
  // agent reported <done>; on abort the partial generation is discarded.
  GenerationOpResult RunGenerationCheckpoint(
      std::vector<coord::Coordinator::Member> members,
      coord::Coordinator::Options options = {},
      const std::string& root = ckpt::GenerationStore::kDefaultRoot);

  // Asynchronous form of RunGenerationCheckpoint, for scenarios that need
  // to perturb the cluster (coordinator crash, ...) while the op is in
  // flight. Start allocates the generation and launches the coordinated
  // checkpoint; Settle (called after driving the sim) commits the
  // generation iff the op finished successfully and the store has a
  // record of every image, and discards it otherwise — including when
  // the op never finished at all.
  struct PendingGenerationOp {
    std::uint64_t generation = 0;
    bool finished = false;
    coord::Coordinator::OpStats stats;
    std::vector<coord::Coordinator::Member> members;
    std::string root;
  };
  std::shared_ptr<PendingGenerationOp> StartGenerationCheckpoint(
      std::vector<coord::Coordinator::Member> members,
      coord::Coordinator::Options options = {},
      const std::string& root = ckpt::GenerationStore::kDefaultRoot);
  GenerationOpResult SettleGenerationCheckpoint(
      const std::shared_ptr<PendingGenerationOp>& op);

  // Coordinated restart from the newest committed generation whose images
  // the agents can load; the coordinator reads none. An agent whose chain
  // does not load answers <failed>, the attempt aborts all-or-nothing, and
  // the next uses the next-older generation (a `coord.restart.fallback`
  // instant). A silent member, a timeout or a retry cap ends the restart.
  GenerationOpResult RunGenerationRestart(
      std::vector<coord::Coordinator::Member> members,
      coord::Coordinator::Options options = {},
      const std::string& root = ckpt::GenerationStore::kDefaultRoot);

 private:
  sim::Simulator sim_;
  os::NetworkFileSystem fs_;
  std::unique_ptr<ckpt::TieredStore> tiered_;
  std::unique_ptr<net::EthernetSwitch> ethernet_;
  std::vector<std::unique_ptr<os::Node>> nodes_;
  std::vector<std::unique_ptr<pod::PodManager>> pod_managers_;
  std::vector<std::unique_ptr<coord::CheckpointAgent>> agents_;
  std::vector<std::unique_ptr<coord::ShardCoordinator>> shard_coordinators_;
  std::unique_ptr<os::Node> coordinator_node_;
  std::unique_ptr<coord::Coordinator> coordinator_;
  std::unique_ptr<os::DhcpServer> dhcp_;
  fault::FaultPlan* armed_plan_ = nullptr;
  std::uint32_t next_pod_ip_offset_ = 100;
};

}  // namespace cruz
