// Simulated Ethernet NIC.
//
// A Nic is attached to one EthernetSwitch port. It owns a primary
// (factory-burned) MAC address plus an arbitrary set of additional unicast
// filters — this models hardware that can listen on multiple MAC addresses,
// which is what lets a pod VIF carry its own migratable MAC (paper §4.2).
// When the hardware cannot do that, the stack instead enables promiscuous
// mode or falls back to the shared-MAC + gratuitous-ARP scheme.
//
// Its owner may also install an ARP address filter: the IPv4 addresses
// whose flooded ARP frames the owner can act on. The switch indexes the
// filters of attached NICs and hands a broadcast ARP frame only to NICs
// without a filter or whose filter holds the frame's sender or target
// protocol address (DESIGN.md §12).
//
// Transmission models serialization delay (frame bytes over the link rate)
// with an output queue: frames queued while the link is busy depart
// back-to-back, in order.
#pragma once

#include <functional>
#include <string>
#include <unordered_set>

#include "common/bytes.h"
#include "common/units.h"
#include "net/address.h"

namespace cruz::sim {
class Simulator;
}

namespace cruz::net {

class EthernetSwitch;

class Nic {
 public:
  using FrameHandler = std::function<void(ByteSpan wire)>;

  Nic(sim::Simulator& sim, MacAddress primary_mac, std::string name);

  const std::string& name() const { return name_; }
  MacAddress primary_mac() const { return primary_mac_; }

  // --- address filtering -------------------------------------------------
  void AddMacFilter(MacAddress mac) { extra_macs_.insert(mac); }
  void RemoveMacFilter(MacAddress mac) { extra_macs_.erase(mac); }
  bool HasMacFilter(MacAddress mac) const {
    return mac == primary_mac_ || extra_macs_.count(mac) != 0;
  }
  // True if the hardware supports programming additional unicast MAC
  // filters (configurable per-NIC to exercise both migration schemes).
  bool supports_multiple_macs() const { return supports_multiple_macs_; }
  void set_supports_multiple_macs(bool v) { supports_multiple_macs_ = v; }

  void set_promiscuous(bool v) { promiscuous_ = v; }
  bool promiscuous() const { return promiscuous_; }

  // ARP address filter. Installing one (empty) is permanent; adds and
  // removes are idempotent and reach the switch while attached.
  void InstallArpFilter();
  void AddArpFilter(Ipv4Address ip);
  void RemoveArpFilter(Ipv4Address ip);
  bool has_arp_filter() const { return has_arp_filter_; }
  const std::unordered_set<Ipv4Address>& arp_filter() const {
    return arp_filter_;
  }

  // --- data path ----------------------------------------------------------
  // Queues an encoded frame for transmission. Frames exceeding the MTU (plus
  // Ethernet header) are dropped, as real hardware would.
  void Transmit(Bytes wire);

  // Hands out a recycled frame buffer from the attached switch's pool
  // (empty when detached). The stack encodes into it and passes it back
  // through Transmit; after delivery the buffer returns to the pool.
  Bytes AcquireFrameBuffer();

  // Called by the switch when a frame arrives at this port. Applies MAC
  // filtering, then hands the frame to the receive handler.
  void DeliverFromWire(ByteSpan wire);

  void set_receive_handler(FrameHandler handler) {
    handler_ = std::move(handler);
  }

  // Wiring (called by EthernetSwitch::AttachNic).
  void AttachTo(EthernetSwitch* sw, std::size_t port) {
    switch_ = sw;
    port_ = port;
  }
  bool attached() const { return switch_ != nullptr; }

  // --- stats ---------------------------------------------------------------
  std::uint64_t tx_frames() const { return tx_frames_; }
  std::uint64_t rx_frames() const { return rx_frames_; }
  std::uint64_t tx_bytes() const { return tx_bytes_; }
  std::uint64_t rx_bytes() const { return rx_bytes_; }
  std::uint64_t filtered_frames() const { return filtered_frames_; }

 private:
  sim::Simulator& sim_;
  MacAddress primary_mac_;
  std::string name_;
  std::unordered_set<MacAddress> extra_macs_;
  bool promiscuous_ = false;
  bool supports_multiple_macs_ = true;
  bool has_arp_filter_ = false;
  std::unordered_set<Ipv4Address> arp_filter_;

  EthernetSwitch* switch_ = nullptr;
  std::size_t port_ = 0;
  TimeNs tx_busy_until_ = 0;

  FrameHandler handler_;

  std::uint64_t tx_frames_ = 0;
  std::uint64_t rx_frames_ = 0;
  std::uint64_t tx_bytes_ = 0;
  std::uint64_t rx_bytes_ = 0;
  std::uint64_t filtered_frames_ = 0;
};

}  // namespace cruz::net
