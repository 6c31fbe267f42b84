#include "net/nic.h"

#include <algorithm>

#include "common/log.h"
#include "net/ethernet_switch.h"
#include "net/packet.h"
#include "sim/simulator.h"

namespace cruz::net {

Nic::Nic(sim::Simulator& sim, MacAddress primary_mac, std::string name)
    : sim_(sim), primary_mac_(primary_mac), name_(std::move(name)) {}

void Nic::Transmit(Bytes wire) {
  if (!attached()) {
    CRUZ_WARN("nic") << name_ << ": transmit while detached, frame dropped";
    return;
  }
  if (wire.size() > kEthernetMtu + kEthernetHeaderSize) {
    CRUZ_WARN("nic") << name_ << ": oversized frame (" << wire.size()
                     << " bytes) dropped";
    return;
  }
  const LinkParams& link = switch_->link_params(port_);
  // Serialization starts when the link becomes free; frames depart in order.
  TimeNs start = std::max(sim_.Now(), tx_busy_until_);
  DurationNs serialize = TransmitTimeNs(wire.size(), link.bits_per_second);
  tx_busy_until_ = start + serialize;
  ++tx_frames_;
  tx_bytes_ += wire.size();
  EthernetSwitch* sw = switch_;
  std::size_t port = port_;
  sim_.ScheduleAt(tx_busy_until_,
                  [sw, port, frame = std::move(wire)]() mutable {
                    sw->Ingress(port, std::move(frame));
                  });
}

void Nic::InstallArpFilter() {
  if (has_arp_filter_) return;
  has_arp_filter_ = true;
  if (switch_ != nullptr) switch_->IndexArpFilter(this, port_);
}

void Nic::AddArpFilter(Ipv4Address ip) {
  if (has_arp_filter_ && arp_filter_.insert(ip).second &&
      switch_ != nullptr) {
    switch_->ArpFilterChanged(this, port_, ip, /*added=*/true);
  }
}

void Nic::RemoveArpFilter(Ipv4Address ip) {
  if (arp_filter_.erase(ip) != 0 && switch_ != nullptr) {
    switch_->ArpFilterChanged(this, port_, ip, /*added=*/false);
  }
}

Bytes Nic::AcquireFrameBuffer() {
  return attached() ? switch_->AcquireFrameBuffer() : Bytes{};
}

void Nic::DeliverFromWire(ByteSpan wire) {
  // The destination MAC is the first 6 octets; filter without a full parse.
  if (wire.size() < kEthernetHeaderSize) return;
  MacAddress dst;
  std::copy(wire.begin(), wire.begin() + 6, dst.octets.begin());
  if (!promiscuous_ && !dst.IsBroadcast() && !HasMacFilter(dst)) {
    ++filtered_frames_;
    return;
  }
  ++rx_frames_;
  rx_bytes_ += wire.size();
  if (handler_) handler_(wire);
}

}  // namespace cruz::net
