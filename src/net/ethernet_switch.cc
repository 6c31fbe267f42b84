#include "net/ethernet_switch.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/error.h"
#include "common/log.h"
#include "net/nic.h"
#include "net/packet.h"
#include "sim/simulator.h"

namespace cruz::net {

EthernetSwitch::EthernetSwitch(sim::Simulator& sim, LinkParams default_link,
                               DurationNs forwarding_latency)
    : sim_(sim),
      default_link_(default_link),
      forwarding_latency_(forwarding_latency),
      rng_(sim.rng().Fork()) {}

std::size_t EthernetSwitch::AttachNic(Nic* nic) {
  CRUZ_CHECK(nic != nullptr, "AttachNic(nullptr)");
  // Reuse a detached slot if one exists.
  std::size_t port = 0;
  while (port < ports_.size() && ports_[port] != nullptr) ++port;
  if (port == ports_.size()) {
    ports_.push_back(nic);
    links_.push_back(default_link_);
    port_arp_.emplace_back();
  } else {
    ports_[port] = nic;
    links_[port] = default_link_;
  }
  nic->AttachTo(this, port);
  if (nic->has_arp_filter()) IndexArpFilter(nic, port);
  return port;
}

void EthernetSwitch::DetachNic(Nic* nic) {
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    if (ports_[i] == nic) {
      if (port_arp_[i].filtered) {
        for (Ipv4Address ip : nic->arp_filter()) {
          IndexArpAddress(ip, i, /*added=*/false);
        }
        port_arp_[i].filtered = false;
      }
      ports_[i] = nullptr;
      // Purge learned MACs pointing at this port; otherwise frames for a
      // migrated MAC would black-hole until relearned.
      for (auto it = mac_table_.begin(); it != mac_table_.end();) {
        if (it->second == i) {
          it = mac_table_.erase(it);
        } else {
          ++it;
        }
      }
      return;
    }
  }
}

void EthernetSwitch::IndexArpFilter(Nic* nic, std::size_t port) {
  if (port >= ports_.size() || ports_[port] != nic) return;
  port_arp_[port].filtered = true;
  for (Ipv4Address ip : nic->arp_filter()) {
    IndexArpAddress(ip, port, /*added=*/true);
  }
}

void EthernetSwitch::ArpFilterChanged(Nic* nic, std::size_t port,
                                      Ipv4Address ip, bool added) {
  if (port >= ports_.size() || ports_[port] != nic) return;
  IndexArpAddress(ip, port, added);
}

void EthernetSwitch::IndexArpAddress(Ipv4Address ip, std::size_t port,
                                     bool added) {
  if (added) {
    arp_index_[ip].push_back(port);
    return;
  }
  auto it = arp_index_.find(ip);
  if (it == arp_index_.end()) return;
  std::vector<std::size_t>& ports = it->second;
  auto at = std::find(ports.begin(), ports.end(), port);
  if (at == ports.end()) return;
  *at = ports.back();
  ports.pop_back();
  if (ports.empty()) arp_index_.erase(it);
}

std::uint64_t EthernetSwitch::MarkArpListeners(ByteSpan wire) {
  const std::uint64_t stamp = ++arp_stamp_;
  Ipv4Address sender, target;
  if (!ArpPacket::PeekAddresses(wire.subspan(kEthernetHeaderSize), &sender,
                                &target)) {
    return stamp;  // truncated: only NICs without a filter take it
  }
  for (Ipv4Address ip : {sender, target}) {
    auto it = arp_index_.find(ip);
    if (it == arp_index_.end()) continue;
    for (std::size_t port : it->second) port_arp_[port].heard = stamp;
  }
  return stamp;
}

void EthernetSwitch::SetLinkParams(std::size_t port, LinkParams params) {
  CRUZ_CHECK(port < links_.size(), "SetLinkParams: bad port");
  links_[port] = params;
}

const LinkParams& EthernetSwitch::link_params(std::size_t port) const {
  CRUZ_CHECK(port < links_.size(), "link_params: bad port");
  return links_[port];
}

void EthernetSwitch::Ingress(std::size_t port, Bytes wire) {
  CRUZ_CHECK(port < ports_.size(), "Ingress: bad port");
  if (wire.size() < kEthernetHeaderSize) {
    ++dropped_frames_;
    RecycleFrameBuffer(std::move(wire));
    return;
  }
  // Random loss on the ingress link (models cable/NIC drops).
  if (LostOnLink(port)) {
    RecycleFrameBuffer(std::move(wire));
    return;
  }
  if (observer_) observer_(port, wire);

  MacAddress dst, src;
  std::copy(wire.begin(), wire.begin() + 6, dst.octets.begin());
  std::copy(wire.begin() + 6, wire.begin() + 12, src.octets.begin());
  if (!src.IsBroadcast() && !src.IsZero()) {
    // Learn: one lookup, and a write only when the source is new or has
    // moved to another port (a migrated pod's first frame).
    auto [learned, inserted] = mac_table_.try_emplace(src, port);
    if (!inserted && learned->second != port) learned->second = port;
  }

  if (!dst.IsBroadcast()) {
    auto it = mac_table_.find(dst);
    if (it != mac_table_.end() && ports_[it->second] != nullptr) {
      if (it->second != port) {
        ++forwarded_frames_;
        // Known unicast — the common case — moves the ingress buffer
        // straight to the egress event, no copy.
        DeliverTo(it->second, std::move(wire));
      } else {
        // Frame destined to the ingress port itself: hairpin suppressed,
        // as on a real switch.
        RecycleFrameBuffer(std::move(wire));
      }
      return;
    }
  }
  // Broadcast or unknown unicast: flood all ports except ingress.
  const bool arp = dst.IsBroadcast() && EthernetFrame::PeekEtherType(wire) ==
                                            EtherType::kArp;
  Flood(port, std::move(wire), arp);
}

bool EthernetSwitch::LostOnLink(std::size_t port) {
  if (links_[port].loss_probability > 0.0 &&
      rng_.NextBernoulli(links_[port].loss_probability)) {
    ++dropped_frames_;
    return true;
  }
  return false;
}

DurationNs EthernetSwitch::EgressDelay(std::size_t port,
                                       std::size_t frame_bytes) const {
  return forwarding_latency_ + links_[port].propagation_delay +
         TransmitTimeNs(frame_bytes, links_[port].bits_per_second);
}

void EthernetSwitch::DeliverTo(std::size_t port, Bytes frame) {
  if (LostOnLink(port)) {
    RecycleFrameBuffer(std::move(frame));
    return;
  }
  DurationNs delay = EgressDelay(port, frame.size());
  Nic* nic = ports_[port];
  sim_.Schedule(delay, [this, port, nic, frame = std::move(frame)]() mutable {
    // The port may have been reassigned while the frame was in flight
    // (pod migration detaches/attaches NICs); deliver only if unchanged.
    if (port < ports_.size() && ports_[port] == nic && nic != nullptr) {
      nic->DeliverFromWire(frame);
    }
    RecycleFrameBuffer(std::move(frame));
  });
}

void EthernetSwitch::Flood(std::size_t ingress, Bytes wire, bool arp) {
  ++flooded_frames_;
  // One delivery event per distinct egress delay, all reading the one
  // ingress buffer: a flood to N ports costs one frame and (on a uniform
  // link) one event instead of N copies and N events. Loss is still drawn
  // per port in port order, so the RNG stream is unchanged. Per-port
  // events for one instant would have carried consecutive sequence
  // numbers, so nothing could run between them; whatever a delivery
  // schedules fires after the batch either way (DESIGN.md §12).
  //
  // A broadcast ARP batch reaches only the ports whose NIC can act on it
  // (HearsArp). Membership is read when the batch fires, not here, so a
  // stack that starts resolving the address while the frame is in flight
  // still hears it.
  struct Batch {
    DurationNs delay;
    std::vector<std::pair<std::size_t, Nic*>> ports;  // port order
  };
  std::vector<Batch> batches;  // distinct delays are few: linear lookup
  for (std::size_t p = 0; p < ports_.size(); ++p) {
    if (p == ingress || ports_[p] == nullptr || LostOnLink(p)) continue;
    DurationNs delay = EgressDelay(p, wire.size());
    Batch* batch = nullptr;
    for (Batch& b : batches) {
      if (b.delay == delay) batch = &b;
    }
    if (batch == nullptr) {
      // Sized for every port still to come, so a uniform-link flood (one
      // batch of N - 1 ports) allocates its list once.
      batch = &batches.emplace_back(Batch{delay, {}});
      batch->ports.reserve(ports_.size() - p);
    }
    batch->ports.emplace_back(p, ports_[p]);
  }
  if (batches.empty()) {
    RecycleFrameBuffer(std::move(wire));
    return;
  }
  auto frame = std::make_shared<Bytes>(std::move(wire));  // read-only
  for (Batch& b : batches) {
    sim_.Schedule(b.delay, [this, frame, arp, ports = std::move(b.ports)]() {
      const std::uint64_t stamp = arp ? MarkArpListeners(*frame) : 0;
      for (auto [port, nic] : ports) {
        if (arp && !HearsArp(port, stamp)) continue;
        // Same in-flight reassignment check as DeliverTo.
        if (ports_[port] == nic) nic->DeliverFromWire(*frame);
      }
      // The last batch to fire returns the buffer to the pool.
      if (frame.use_count() == 1) RecycleFrameBuffer(std::move(*frame));
    });
  }
}

Bytes EthernetSwitch::AcquireFrameBuffer() {
  if (frame_pool_.empty()) return Bytes{};
  Bytes buf = std::move(frame_pool_.back());
  frame_pool_.pop_back();
  buf.clear();
  return buf;
}

void EthernetSwitch::RecycleFrameBuffer(Bytes frame) {
  // Cap both the pool depth and the retained capacity; Ethernet frames
  // are bounded, so anything larger came from an unrelated path.
  constexpr std::size_t kPoolCap = 128;
  constexpr std::size_t kMaxRetainedCapacity = 4096;
  if (frame_pool_.size() >= kPoolCap ||
      frame.capacity() == 0 || frame.capacity() > kMaxRetainedCapacity) {
    return;
  }
  frame_pool_.push_back(std::move(frame));
}

}  // namespace cruz::net
