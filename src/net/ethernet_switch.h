// Simulated store-and-forward Ethernet switch with MAC learning.
//
// All nodes of the cluster hang off one switch (the paper's testbed is a
// single gigabit switch). Unicast frames are forwarded to the learned port;
// unknown-unicast and broadcast frames are flooded. Each link has a
// configurable rate, propagation delay and random loss probability, and the
// switch adds a fixed forwarding latency. Loss is drawn from the switch's
// own forked RNG stream for determinism.
//
// The switch also indexes the ARP address filters of attached NICs
// (Nic::InstallArpFilter), so a broadcast ARP frame reaches only NICs
// without a filter and NICs whose filter holds its sender or target
// protocol address, read when the delivery fires (DESIGN.md §12).
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/units.h"
#include "net/address.h"

namespace cruz::sim {
class Simulator;
}

namespace cruz::net {

class Nic;

struct LinkParams {
  std::uint64_t bits_per_second = 1'000'000'000;  // gigabit
  DurationNs propagation_delay = 5 * kMicrosecond;
  double loss_probability = 0.0;
};

class EthernetSwitch {
 public:
  // An observer sees every frame accepted by the switch (after loss),
  // before forwarding. Used by tests and the message-complexity bench.
  using FrameObserver =
      std::function<void(std::size_t ingress_port, ByteSpan wire)>;

  EthernetSwitch(sim::Simulator& sim, LinkParams default_link,
                 DurationNs forwarding_latency = 2 * kMicrosecond);

  // Attaches a NIC; returns its port number.
  std::size_t AttachNic(Nic* nic);
  void DetachNic(Nic* nic);

  void SetLinkParams(std::size_t port, LinkParams params);
  const LinkParams& link_params(std::size_t port) const;

  // Entry point used by Nic::Transmit after serialization delay.
  void Ingress(std::size_t port, Bytes wire);

  void set_observer(FrameObserver obs) { observer_ = std::move(obs); }

  // ARP filter upkeep, called by a Nic for the port it was attached to;
  // ignored unless `nic` is attached there now.
  void IndexArpFilter(Nic* nic, std::size_t port);
  void ArpFilterChanged(Nic* nic, std::size_t port, Ipv4Address ip,
                        bool added);

  // Frame-buffer pool: per-packet byte buffers cycle switch -> stack
  // encode -> transmit -> delivery -> back to the pool, so a steady
  // packet workload reuses warm capacity instead of churning the
  // allocator. Purely an allocation optimization — frame contents and
  // delivery order are unaffected.
  Bytes AcquireFrameBuffer();
  void RecycleFrameBuffer(Bytes frame);

  std::uint64_t forwarded_frames() const { return forwarded_frames_; }
  std::uint64_t flooded_frames() const { return flooded_frames_; }
  std::uint64_t dropped_frames() const { return dropped_frames_; }

 private:
  // Draws the link's random loss for one frame (counting a drop).
  bool LostOnLink(std::size_t port);
  // Forwarding + propagation + serialization onto the egress link.
  DurationNs EgressDelay(std::size_t port, std::size_t frame_bytes) const;
  // Takes ownership of the frame; unicast forwards move the ingress
  // buffer straight through without a copy.
  void DeliverTo(std::size_t port, Bytes frame);
  // Broadcast / unknown unicast: every attached port but the ingress one,
  // batched into one event per distinct egress delay over one shared
  // frame. `arp` marks a broadcast ARP frame, which only the ports that
  // HearsArp take.
  void Flood(std::size_t ingress, Bytes wire, bool arp);
  // Stamps every port whose NIC's ARP filter holds the sender or target
  // address of broadcast ARP `wire` with a fresh stamp, and returns it.
  std::uint64_t MarkArpListeners(ByteSpan wire);
  // Whether the port's NIC takes an ARP frame marked with `stamp`.
  bool HearsArp(std::size_t port, std::uint64_t stamp) const {
    return !port_arp_[port].filtered || port_arp_[port].heard == stamp;
  }
  void IndexArpAddress(Ipv4Address ip, std::size_t port, bool added);

  sim::Simulator& sim_;
  LinkParams default_link_;
  DurationNs forwarding_latency_;
  Rng rng_;

  std::vector<Nic*> ports_;          // nullptr = detached
  std::vector<LinkParams> links_;
  std::unordered_map<MacAddress, std::size_t> mac_table_;

  // ARP filter index: address -> ports whose NIC's filter holds it.
  struct PortArp {
    bool filtered = false;   // the attached NIC has an ARP filter
    std::uint64_t heard = 0; // stamp of the last ARP frame it matched
  };
  std::unordered_map<Ipv4Address, std::vector<std::size_t>> arp_index_;
  std::vector<PortArp> port_arp_;
  std::uint64_t arp_stamp_ = 0;

  FrameObserver observer_;

  std::vector<Bytes> frame_pool_;

  std::uint64_t forwarded_frames_ = 0;
  std::uint64_t flooded_frames_ = 0;
  std::uint64_t dropped_frames_ = 0;
};

}  // namespace cruz::net
