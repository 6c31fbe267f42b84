// A cluster node: NIC + network stack + OS + local disk model.
//
// The paper's testbed nodes are dual 1 GHz P-III machines with gigabit
// NICs; the only node-level hardware characteristic the experiments
// depend on is the local disk bandwidth that dominates checkpoint latency
// (Fig. 5a), modeled here as a fixed write rate plus seek latency.
#pragma once

#include <memory>
#include <string>

#include "common/units.h"
#include "net/address.h"
#include "net/ethernet_switch.h"
#include "net/nic.h"
#include "os/local_disk.h"
#include "os/netfs.h"
#include "os/netstack.h"
#include "os/os.h"
#include "tcp/config.h"

namespace cruz::os {

struct NodeConfig {
  net::Ipv4Address ip;
  // /16: the scale benchmarks address ~1000 nodes plus a pod per node,
  // which overflows a /24. All historical 10.0.0.x assignments remain on
  // the (now wider) subnet, so routing behavior is unchanged for them.
  net::Ipv4Address netmask = net::Ipv4Address::FromOctets(255, 255, 0, 0);
  tcp::TcpConfig tcp;
  // Local disk used for checkpoint images (the paper reports checkpoint
  // latency dominated by writing state to disk; ~1 s for the slm state).
  std::uint64_t disk_write_bytes_per_sec = 80 * kMiB;
  DurationNs disk_latency = 5 * kMillisecond;
  bool nic_supports_multiple_macs = true;
  // Tiered checkpoint storage: capacity of the node's local disk.
  std::uint64_t local_disk_capacity_bytes = 0;  // 0 = unlimited
};

class Node {
 public:
  Node(sim::Simulator& sim, net::EthernetSwitch& ethernet,
       NetworkFileSystem& fs, std::string name, std::uint32_t index,
       const NodeConfig& config);

  const std::string& name() const { return name_; }
  std::uint32_t index() const { return index_; }
  net::Ipv4Address ip() const { return config_.ip; }
  const NodeConfig& config() const { return config_; }

  // Per-node disk tuning (heterogeneous-cluster benchmarks).
  void set_disk_write_bytes_per_sec(std::uint64_t bps) {
    config_.disk_write_bytes_per_sec = bps;
  }

  net::Nic& nic() { return *nic_; }
  NetworkStack& stack() { return *stack_; }
  Os& os() { return *os_; }
  // Tier-1 checkpoint cache. Shares the node's failure domain: Fail()
  // clears it (the images die with the machine).
  LocalDiskStore& disk() { return *disk_; }
  const LocalDiskStore& disk() const { return *disk_; }

  // Duration to write `bytes` to the local disk (checkpoint path).
  DurationNs DiskWriteDuration(std::uint64_t bytes) const {
    return config_.disk_latency +
           (config_.disk_write_bytes_per_sec == 0
                ? 0
                : bytes * kSecond / config_.disk_write_bytes_per_sec);
  }
  DurationNs DiskReadDuration(std::uint64_t bytes) const {
    // Reads (restart path) run at ~2x the write rate, typical of the era.
    return config_.disk_latency +
           (config_.disk_write_bytes_per_sec == 0
                ? 0
                : bytes * kSecond / (2 * config_.disk_write_bytes_per_sec));
  }

  // Fail-stop: detaches the NIC and destroys every process. Used for the
  // fault-tolerance scenarios (restart elsewhere from the checkpoint).
  void Fail();
  bool failed() const { return failed_; }

  // Brings a failed node back: re-attaches the NIC to the switch. All
  // pre-crash processes are gone (Fail destroyed them); higher layers are
  // responsible for cleaning up stale pod bookkeeping and restoring work
  // from checkpoints, like a machine rejoining the cluster after a power
  // cycle.
  void Reboot();

 private:
  sim::Simulator& sim_;
  net::EthernetSwitch& ethernet_;
  std::string name_;
  std::uint32_t index_;
  NodeConfig config_;
  std::unique_ptr<net::Nic> nic_;
  std::unique_ptr<NetworkStack> stack_;
  std::unique_ptr<Os> os_;
  std::unique_ptr<LocalDiskStore> disk_;
  bool failed_ = false;
};

}  // namespace cruz::os
