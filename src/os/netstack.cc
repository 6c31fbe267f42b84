#include "os/netstack.h"

#include <algorithm>

#include "common/error.h"
#include "common/log.h"
#include "sim/simulator.h"
#include "tcp/segment.h"

namespace cruz::os {

namespace {
// Local delivery (loopback) cost: a trip through the IP stack without the
// wire.
constexpr DurationNs kLoopbackDelay = 2 * kMicrosecond;
// An unanswered resolution sends kArpRequests requests, kArpRetryInterval
// apart, and gives up one interval after the last.
constexpr int kArpRequests = 2;
constexpr DurationNs kArpRetryInterval = 500 * kMillisecond;
}  // namespace

NetworkStack::NetworkStack(sim::Simulator& sim, std::string node_name,
                           net::Nic* nic, tcp::TcpConfig tcp_config)
    : sim_(sim),
      node_name_(std::move(node_name)),
      nic_(nic),
      tcp_config_(tcp_config) {
  if (nic_ != nullptr) {
    nic_->set_receive_handler([this](cruz::ByteSpan wire) { OnFrame(wire); });
    nic_->InstallArpFilter();
  }
}

void NetworkStack::WakeAll(std::vector<ThreadRef>& waiters) {
  if (waiters.empty()) return;
  if (wake_) {
    wake_(waiters);
  }
  waiters.clear();
}

// ---------------------------------------------------------------------------
// Interfaces
// ---------------------------------------------------------------------------

void NetworkStack::AddInterface(const std::string& name, net::MacAddress mac,
                                net::Ipv4Address ip, net::Ipv4Address netmask,
                                bool is_virtual) {
  CRUZ_CHECK(FindInterfaceByName(name) == nullptr,
             "duplicate interface " + name);
  interfaces_.push_back(Interface{name, mac, ip, netmask, is_virtual});
  if (nic_ != nullptr && mac != nic_->primary_mac()) {
    // VIF with its own MAC: program an additional hardware filter, or fall
    // back to promiscuous mode if the NIC cannot do that (paper §4.2).
    if (nic_->supports_multiple_macs()) {
      nic_->AddMacFilter(mac);
    } else {
      nic_->set_promiscuous(true);
    }
  }
  UpdateArpFilter(ip);
  CRUZ_DEBUG("netstack") << node_name_ << ": interface " << name << " "
                         << ip.ToString() << " mac " << mac.ToString();
}

void NetworkStack::RemoveInterface(const std::string& name) {
  for (auto it = interfaces_.begin(); it != interfaces_.end(); ++it) {
    if (it->name == name) {
      if (nic_ != nullptr && it->mac != nic_->primary_mac()) {
        nic_->RemoveMacFilter(it->mac);
      }
      const net::Ipv4Address ip = it->ip;
      interfaces_.erase(it);
      UpdateArpFilter(ip);
      return;
    }
  }
}

const Interface* NetworkStack::FindInterfaceByName(
    const std::string& name) const {
  for (const Interface& i : interfaces_) {
    if (i.name == name) return &i;
  }
  return nullptr;
}

const Interface* NetworkStack::FindInterfaceByIp(net::Ipv4Address ip) const {
  for (const Interface& i : interfaces_) {
    if (i.ip == ip) return &i;
  }
  return nullptr;
}

bool NetworkStack::OwnsIp(net::Ipv4Address ip) const {
  return FindInterfaceByIp(ip) != nullptr;
}

void NetworkStack::AnnounceAddress(net::Ipv4Address ip, net::MacAddress mac) {
  net::ArpPacket arp;
  arp.op = net::ArpOp::kRequest;  // gratuitous ARP is a broadcast request
  arp.sender_mac = mac;
  arp.sender_ip = ip;
  arp.target_mac = net::MacAddress{};
  arp.target_ip = ip;
  TransmitArp(arp, net::MacAddress::Broadcast());
}

// ---------------------------------------------------------------------------
// Netfilter
// ---------------------------------------------------------------------------

std::uint64_t NetworkStack::AddFilter(FilterFn fn) {
  std::uint64_t id = next_filter_id_++;
  filters_.push_back(Filter{id, std::move(fn)});
  return id;
}

void NetworkStack::RemoveFilter(std::uint64_t id) {
  filters_.erase(std::remove_if(filters_.begin(), filters_.end(),
                                [id](const Filter& f) { return f.id == id; }),
                 filters_.end());
}

// ---------------------------------------------------------------------------
// IP output path
// ---------------------------------------------------------------------------

const Interface* NetworkStack::RouteSourceInterface(
    net::Ipv4Address src) const {
  const Interface* match = FindInterfaceByIp(src);
  if (match != nullptr) return match;
  for (const Interface& i : interfaces_) {
    if (!i.is_virtual) return &i;
  }
  return interfaces_.empty() ? nullptr : &interfaces_.front();
}

namespace {

// OutputIpv4 bodies. An owned payload is copied into the frame and handed
// over by move; a TCP segment is written in place, and encoded into owned
// bytes only when its packet must wait.
struct OwnedBody {
  cruz::Bytes& bytes;
  std::size_t WireSize() const { return bytes.size(); }
  void EncodeInto(ByteWriter& w) const { w.PutBytes(bytes); }
  cruz::Bytes Take() { return std::move(bytes); }
};

struct SegmentBody {
  const tcp::TcpSegment& seg;
  std::size_t WireSize() const { return seg.WireSize(); }
  void EncodeInto(ByteWriter& w) const { seg.EncodeInto(w); }
  cruz::Bytes Take() { return seg.Encode(); }
};

}  // namespace

template <typename Body>
void NetworkStack::OutputIpv4(const net::Ipv4Header& hdr, Body body) {
  // OUTPUT netfilter hook: the coordinated-checkpoint agent's drop rule
  // silently discards pod traffic at the lowest level (paper §5).
  for (const Filter& f : filters_) {
    if (f.fn(hdr)) {
      ++filtered_packets_;
      return;
    }
  }
  ++ip_tx_;
  if (OwnsIp(hdr.dst)) {
    // Loopback: deliver locally (still passes the INPUT hook).
    net::Ipv4Packet pkt{{hdr}, body.Take()};
    sim_.Schedule(kLoopbackDelay, [this, pkt = std::move(pkt)] {
      for (const Filter& f : filters_) {
        if (f.fn(pkt)) {
          ++filtered_packets_;
          return;
        }
      }
      DeliverIpv4Local(pkt.View());
    });
    return;
  }
  const Interface* out_if = RouteSourceInterface(hdr.src);
  if (out_if == nullptr) {
    CRUZ_WARN("netstack") << node_name_ << ": no interface to send from";
    return;
  }
  if (hdr.dst.IsBroadcast()) {
    // Broadcasts reach local listeners too (as on Linux).
    net::Ipv4Packet pkt{{hdr}, body.Take()};
    sim_.Schedule(kLoopbackDelay,
                  [this, pkt] { DeliverIpv4Local(pkt.View()); });
    TransmitIpv4(pkt, OwnedBody{pkt.payload}, *out_if,
                 net::MacAddress::Broadcast());
    return;
  }
  if (!hdr.dst.SameSubnet(out_if->ip, out_if->netmask)) {
    // Single-subnet cluster (the paper's migration domain); no router.
    CRUZ_WARN("netstack") << node_name_ << ": " << hdr.dst.ToString()
                          << " not on subnet, dropped";
    return;
  }
  auto [entry, created] = neighbours_.try_emplace(hdr.dst);
  Neighbour& n = entry->second;
  if (!created && n.incomplete == nullptr) {
    TransmitIpv4(hdr, body, *out_if, n.mac);
    return;
  }
  if (created) n.incomplete = std::make_unique<Neighbour::Resolution>();
  n.incomplete->queued.push_back(net::Ipv4Packet{{hdr}, body.Take()});
  n.incomplete->out_if_name = out_if->name;
  if (created) {
    UpdateArpFilter(hdr.dst);
    SolicitArp(hdr.dst);
  }
}

void NetworkStack::SolicitArp(net::Ipv4Address target) {
  auto it = neighbours_.find(target);
  if (it == neighbours_.end() || it->second.incomplete == nullptr) return;
  Neighbour::Resolution& r = *it->second.incomplete;
  r.timer = sim::kInvalidEventId;
  if (r.requests == kArpRequests) {
    CRUZ_DEBUG("netstack") << node_name_ << ": ARP timeout for "
                           << target.ToString() << ", "
                           << r.queued.size() << " packets dropped";
    neighbours_.erase(it);
    UpdateArpFilter(target);
    return;
  }
  ++r.requests;
  const Interface* oif = FindInterfaceByName(r.out_if_name);
  if (oif == nullptr && !interfaces_.empty()) oif = &interfaces_.front();
  if (oif != nullptr) SendArpRequest(target, *oif);
  r.timer = sim_.Schedule(kArpRetryInterval,
                          [this, target] { SolicitArp(target); });
}

void NetworkStack::UpdateArpFilter(net::Ipv4Address ip) {
  if (nic_ == nullptr) return;
  if (OwnsIp(ip) || neighbours_.contains(ip)) {
    nic_->AddArpFilter(ip);
  } else {
    nic_->RemoveArpFilter(ip);
  }
}

template <typename Body>
void NetworkStack::TransmitIpv4(const net::Ipv4Header& hdr, const Body& body,
                                const Interface& out_if,
                                net::MacAddress dst_mac) {
  if (nic_ == nullptr) return;
  // Single pass into one pooled buffer: Ethernet header, IPv4 header,
  // payload — no intermediate per-layer Bytes on the per-packet path.
  const std::size_t payload_size = body.WireSize();
  ByteWriter w(nic_->AcquireFrameBuffer(), net::kEthernetHeaderSize +
                                               net::kIpv4HeaderSize +
                                               payload_size);
  net::EthernetFrame::EncodeHeader(w, dst_mac, out_if.mac,
                                   net::EtherType::kIpv4);
  hdr.EncodeHeader(w, payload_size);
  body.EncodeInto(w);
  nic_->Transmit(w.Take());
}

void NetworkStack::SendIpv4(net::Ipv4Packet pkt) {
  OutputIpv4(pkt, OwnedBody{pkt.payload});
}

void NetworkStack::SendTcp(net::Ipv4Address src, net::Ipv4Address dst,
                           const tcp::TcpSegment& seg) {
  net::Ipv4Header hdr;
  hdr.src = src;
  hdr.dst = dst;
  hdr.proto = net::IpProto::kTcp;
  OutputIpv4(hdr, SegmentBody{seg});
}

void NetworkStack::SendArpRequest(net::Ipv4Address target,
                                  const Interface& out_if) {
  ++arp_requests_sent_;
  net::ArpPacket arp;
  arp.op = net::ArpOp::kRequest;
  arp.sender_mac = out_if.mac;
  arp.sender_ip = out_if.ip;
  arp.target_ip = target;
  TransmitArp(arp, net::MacAddress::Broadcast());
}

void NetworkStack::TransmitArp(const net::ArpPacket& arp,
                               net::MacAddress dst_mac) {
  if (nic_ == nullptr) return;
  // Header and body in one pooled buffer, as TransmitIpv4 does. The frame
  // source is the MAC the packet speaks for.
  ByteWriter w(nic_->AcquireFrameBuffer(),
               net::kEthernetHeaderSize + net::kArpPacketSize);
  net::EthernetFrame::EncodeHeader(w, dst_mac, arp.sender_mac,
                                   net::EtherType::kArp);
  arp.EncodeInto(w);
  nic_->Transmit(w.Take());
}

// ---------------------------------------------------------------------------
// Input path
// ---------------------------------------------------------------------------

void NetworkStack::OnFrame(cruz::ByteSpan wire) {
  // The EtherType is read in place and the L3 decoder parses a view of
  // the payload: a broadcast reaches every stack on the switch, and none
  // of them copies the frame body to look at it. IPv4 and TCP are views
  // too, so a TCP payload's one copy is its receive-buffer insert.
  std::optional<net::EtherType> type = net::EthernetFrame::PeekEtherType(wire);
  if (!type) return;  // runt or unknown EtherType: dropped, as hardware would
  cruz::ByteSpan payload = wire.subspan(net::kEthernetHeaderSize);
  if (*type == net::EtherType::kArp) {
    ++arp_frames_handled_;
    try {
      HandleArp(net::ArpPacket::Decode(payload));
    } catch (const cruz::CodecError&) {
    }
    return;
  }
  net::Ipv4View pkt;
  try {
    pkt = net::Ipv4View::Parse(payload);
  } catch (const cruz::CodecError&) {
    return;
  }
  // INPUT netfilter hook.
  for (const Filter& f : filters_) {
    if (f.fn(pkt)) {
      ++filtered_packets_;
      return;
    }
  }
  if (!OwnsIp(pkt.dst) && !pkt.dst.IsBroadcast()) {
    return;  // not ours (promiscuous-mode spillover); hosts do not forward
  }
  DeliverIpv4Local(pkt);
}

void NetworkStack::DeliverIpv4Local(const net::Ipv4View& pkt) {
  ++ip_rx_;
  switch (pkt.proto) {
    case net::IpProto::kTcp:
      HandleTcpSegment(pkt);
      break;
    case net::IpProto::kUdp:
      HandleUdpDatagram(pkt);
      break;
  }
}

void NetworkStack::HandleArp(const net::ArpPacket& arp) {
  // Neighbour rules of Linux's defaults (arp_accept = 0, kernel
  // Documentation/networking/ip-sysctl.rst). An ARP creates an entry only
  // for an address this stack is resolving (its INCOMPLETE entry) or for
  // the sender of a request aimed at one of this stack's own addresses.
  // Anything else, a gratuitous announcement included, only refreshes an
  // entry that already exists: peers of a migrated pod repoint (§4.2),
  // and a bystander that never talked to the pod does one lookup.
  if (!arp.sender_ip.IsZero()) {
    auto entry = neighbours_.find(arp.sender_ip);
    if (entry == neighbours_.end() && arp.op == net::ArpOp::kRequest &&
        !arp.IsGratuitous() && OwnsIp(arp.target_ip)) {
      entry = neighbours_.try_emplace(arp.sender_ip).first;
      UpdateArpFilter(arp.sender_ip);
    }
    if (entry != neighbours_.end()) {
      entry->second.mac = arp.sender_mac;
      ++arp_cache_writes_;
    }
    if (entry != neighbours_.end() && entry->second.incomplete != nullptr) {
      // Resolved: flush the packets that waited for the answer.
      std::unique_ptr<Neighbour::Resolution> r =
          std::move(entry->second.incomplete);
      if (r->timer != sim::kInvalidEventId) sim_.Cancel(r->timer);
      const Interface* oif = FindInterfaceByName(r->out_if_name);
      if (oif == nullptr && !interfaces_.empty()) oif = &interfaces_.front();
      for (net::Ipv4Packet& p : r->queued) {
        if (oif != nullptr) {
          TransmitIpv4(p, OwnedBody{p.payload}, *oif, arp.sender_mac);
        }
      }
    }
  }
  if (arp.op == net::ArpOp::kRequest) {
    const Interface* owned = FindInterfaceByIp(arp.target_ip);
    if (owned != nullptr && !arp.IsGratuitous()) {
      net::ArpPacket reply;
      reply.op = net::ArpOp::kReply;
      reply.sender_mac = owned->mac;
      reply.sender_ip = owned->ip;
      reply.target_mac = arp.sender_mac;
      reply.target_ip = arp.sender_ip;
      TransmitArp(reply, arp.sender_mac);
    }
  }
}

// ---------------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------------

tcp::TcpConnection::OutputFn NetworkStack::MakeConnOutput() {
  return [this](const net::FourTuple& tuple, const tcp::TcpSegment& seg) {
    SendTcp(tuple.local.ip, tuple.remote.ip, seg);
  };
}

tcp::TcpConnection::Callbacks NetworkStack::MakeConnCallbacks(SocketId id) {
  tcp::TcpConnection::Callbacks cb;
  cb.on_established = [this, id] {
    TcpSocketObject* sock = FindTcp(id);
    if (sock == nullptr) return;
    if (sock->state == TcpSocketObject::State::kConnecting) {
      sock->state = TcpSocketObject::State::kConnected;
    }
    WakeAll(sock->write_waiters);
    WakeAll(sock->read_waiters);
  };
  cb.on_readable = [this, id] {
    TcpSocketObject* sock = FindTcp(id);
    if (sock != nullptr) WakeAll(sock->read_waiters);
  };
  cb.on_writable = [this, id] {
    TcpSocketObject* sock = FindTcp(id);
    if (sock != nullptr) WakeAll(sock->write_waiters);
  };
  cb.on_remote_close = [this, id] {
    TcpSocketObject* sock = FindTcp(id);
    if (sock != nullptr) WakeAll(sock->read_waiters);
  };
  cb.on_error = [this, id](Errno err) {
    TcpSocketObject* sock = FindTcp(id);
    if (sock == nullptr) return;
    sock->state = TcpSocketObject::State::kError;
    sock->error = err;
    WakeAll(sock->read_waiters);
    WakeAll(sock->write_waiters);
    WakeAll(sock->accept_waiters);
  };
  cb.on_closed = [this, id] {
    TcpSocketObject* sock = FindTcp(id);
    if (sock == nullptr) return;
    WakeAll(sock->read_waiters);
    WakeAll(sock->write_waiters);
  };
  return cb;
}

void NetworkStack::RegisterTuple(const net::FourTuple& tuple, SocketId id) {
  tcp_by_tuple_[tuple] = id;
}

SocketId NetworkStack::CreateTcpSocket() {
  SocketId id = next_socket_id_++;
  auto sock = std::make_unique<TcpSocketObject>();
  sock->id = id;
  tcp_sockets_.emplace(id, std::move(sock));
  return id;
}

TcpSocketObject* NetworkStack::FindTcp(SocketId id) {
  auto it = tcp_sockets_.find(id);
  return it == tcp_sockets_.end() ? nullptr : it->second.get();
}

SysResult NetworkStack::TcpBind(SocketId id, net::Endpoint local) {
  TcpSocketObject* sock = FindTcp(id);
  if (sock == nullptr) return SysErr(CRUZ_EBADF);
  if (sock->state != TcpSocketObject::State::kFresh) {
    return SysErr(CRUZ_EINVAL);
  }
  if (!local.ip.IsZero() && !OwnsIp(local.ip)) {
    return SysErr(CRUZ_EADDRNOTAVAIL);
  }
  if (local.port != 0) {
    net::Endpoint exact = local;
    net::Endpoint any{net::kAnyAddress, local.port};
    if (tcp_listeners_.count(exact) || tcp_listeners_.count(any)) {
      return SysErr(CRUZ_EADDRINUSE);
    }
  } else {
    local.port = AllocateEphemeralPort(local.ip);
  }
  sock->local = local;
  sock->state = TcpSocketObject::State::kBound;
  return 0;
}

SysResult NetworkStack::TcpListen(SocketId id, int backlog) {
  TcpSocketObject* sock = FindTcp(id);
  if (sock == nullptr) return SysErr(CRUZ_EBADF);
  if (sock->state != TcpSocketObject::State::kBound) {
    return SysErr(CRUZ_EINVAL);
  }
  sock->backlog = std::max(backlog, 1);
  sock->state = TcpSocketObject::State::kListening;
  tcp_listeners_[sock->local] = id;
  return 0;
}

SysResult NetworkStack::TcpConnect(SocketId id, net::Endpoint remote) {
  TcpSocketObject* sock = FindTcp(id);
  if (sock == nullptr) return SysErr(CRUZ_EBADF);
  switch (sock->state) {
    case TcpSocketObject::State::kConnecting:
      return SysErr(CRUZ_EALREADY);
    case TcpSocketObject::State::kConnected:
      return SysErr(CRUZ_EISCONN);
    case TcpSocketObject::State::kError:
      return SysErr(sock->error);
    case TcpSocketObject::State::kListening:
      return SysErr(CRUZ_EINVAL);
    default:
      break;
  }
  CRUZ_CHECK(!sock->local.ip.IsZero(),
             "TcpConnect requires a bound local address (the OS performs "
             "the implicit bind)");
  net::FourTuple tuple{sock->local, remote};
  if (tcp_by_tuple_.count(tuple)) return SysErr(CRUZ_EADDRINUSE);
  sock->state = TcpSocketObject::State::kConnecting;
  sock->conn = std::make_unique<tcp::TcpConnection>(
      sim_, tcp_config_, tuple, MakeConnOutput(), MakeConnCallbacks(id));
  RegisterTuple(tuple, id);
  sock->conn->OpenActive();
  return SysErr(CRUZ_EINPROGRESS);
}

SysResult NetworkStack::TcpAccept(SocketId id, SocketId* child) {
  TcpSocketObject* sock = FindTcp(id);
  if (sock == nullptr) return SysErr(CRUZ_EBADF);
  if (sock->state != TcpSocketObject::State::kListening) {
    return SysErr(CRUZ_EINVAL);
  }
  if (sock->accept_queue.empty()) return SysErr(CRUZ_EAGAIN);
  *child = sock->accept_queue.front();
  sock->accept_queue.pop_front();
  return 0;
}

NetworkStack::TcpSocketMap::iterator NetworkStack::EraseTcpSocket(
    TcpSocketMap::iterator it) {
  TcpSocketObject* sock = it->second.get();
  if (sock->conn) {
    // The tuple may have been re-registered by a restored connection;
    // only erase our own mapping.
    auto t = tcp_by_tuple_.find(sock->conn->tuple());
    if (t != tcp_by_tuple_.end() && t->second == sock->id) {
      tcp_by_tuple_.erase(t);
    }
  }
  if (sock->state == TcpSocketObject::State::kListening) {
    auto l = tcp_listeners_.find(sock->local);
    if (l != tcp_listeners_.end() && l->second == sock->id) {
      tcp_listeners_.erase(l);
    }
  }
  sim_.Cancel(sock->reaper);
  return tcp_sockets_.erase(it);
}

void NetworkStack::DestroyTcpSocket(SocketId id) {
  auto it = tcp_sockets_.find(id);
  if (it == tcp_sockets_.end()) return;
  TcpSocketObject* sock = it->second.get();
  if (sock->state == TcpSocketObject::State::kListening) {
    // Children waiting in the accept queue are aborted, as Linux does.
    for (SocketId child_id : sock->accept_queue) {
      auto child = tcp_sockets_.find(child_id);
      if (child != tcp_sockets_.end() && child->second->conn) {
        child->second->conn->Abort();
        EraseTcpSocket(child);
      }
    }
  }
  if (!sock->conn || sock->conn->state() == tcp::TcpState::kClosed) {
    EraseTcpSocket(it);
    return;
  }
  // Orderly close; the connection object lingers (detached from any fd)
  // until the FIN handshake finishes. A reaper bounds its lifetime; a
  // purge that erases the socket first cancels it.
  sock->read_waiters.clear();
  sock->write_waiters.clear();
  sock->accept_waiters.clear();
  sock->conn->Close();
  sock->reaper = sim_.Schedule(
      tcp_config_.time_wait_duration + tcp_config_.max_rto * 2, [this, id] {
        auto s = tcp_sockets_.find(id);
        if (s == tcp_sockets_.end()) return;
        if (s->second->conn &&
            s->second->conn->state() != tcp::TcpState::kClosed) {
          s->second->conn->Abort();
        }
        EraseTcpSocket(s);
      });
}

SocketId NetworkStack::RestoreTcpFromCheckpoint(
    const tcp::TcpConnCheckpoint& ck, cruz::Bytes alt_recv) {
  SocketId id = CreateTcpSocket();
  TcpSocketObject* sock = FindTcp(id);
  sock->local = ck.tuple.local;
  sock->alt_recv = std::move(alt_recv);
  sock->state = ck.state == tcp::TcpState::kClosed
                    ? TcpSocketObject::State::kError
                    : TcpSocketObject::State::kConnected;
  if (ck.state == tcp::TcpState::kSynSent ||
      ck.state == tcp::TcpState::kSynReceived) {
    sock->state = TcpSocketObject::State::kConnecting;
  }
  // Restore kicks off the send-buffer replay immediately; if the agent
  // has not yet re-enabled communication, those packets hit the drop rule
  // and are recovered by the retransmission timer (paper §5).
  sock->conn = tcp::TcpConnection::Restore(sim_, tcp_config_, ck,
                                           MakeConnOutput(),
                                           MakeConnCallbacks(id));
  RegisterTuple(ck.tuple, id);
  return id;
}

void NetworkStack::PurgeSocketsForIp(net::Ipv4Address ip) {
  for (auto it = tcp_sockets_.begin(); it != tcp_sockets_.end();) {
    TcpSocketObject* sock = it->second.get();
    if (sock->local.ip == ip) {
      // Any RST is dropped by the caller's filter.
      if (sock->conn) sock->conn->Abort();
      it = EraseTcpSocket(it);
    } else {
      ++it;
    }
  }
  for (auto it = udp_sockets_.begin(); it != udp_sockets_.end();) {
    if (it->second->local.ip == ip) {
      udp_by_endpoint_.erase(it->second->local);
      it = udp_sockets_.erase(it);
    } else {
      ++it;
    }
  }
}

SocketId NetworkStack::InstallRestoredListener(net::Endpoint local,
                                               int backlog) {
  SocketId id = CreateTcpSocket();
  TcpSocketObject* sock = FindTcp(id);
  sock->local = local;
  sock->backlog = backlog;
  sock->state = TcpSocketObject::State::kListening;
  tcp_listeners_[local] = id;
  return id;
}

void NetworkStack::HandleTcpSegment(const net::Ipv4View& pkt) {
  tcp::TcpSegment seg;
  try {
    seg = tcp::TcpSegment::Decode(pkt.payload);
  } catch (const cruz::CodecError&) {
    return;
  }
  net::FourTuple tuple{{pkt.dst, seg.dst_port}, {pkt.src, seg.src_port}};
  auto it = tcp_by_tuple_.find(tuple);
  if (it != tcp_by_tuple_.end()) {
    TcpSocketObject* sock = FindTcp(it->second);
    if (sock != nullptr && sock->conn) {
      sock->conn->OnSegment(seg);
      return;
    }
  }
  // No connection: a SYN may match a listener.
  if (seg.syn && !seg.ack_flag) {
    auto lit = tcp_listeners_.find(tuple.local);
    if (lit == tcp_listeners_.end()) {
      lit = tcp_listeners_.find(
          net::Endpoint{net::kAnyAddress, seg.dst_port});
    }
    if (lit != tcp_listeners_.end()) {
      TcpSocketObject* listener = FindTcp(lit->second);
      if (listener != nullptr &&
          listener->accept_queue.size() <
              static_cast<std::size_t>(listener->backlog)) {
        SocketId child_id = CreateTcpSocket();
        TcpSocketObject* child = FindTcp(child_id);
        child->local = tuple.local;
        child->state = TcpSocketObject::State::kConnecting;
        SocketId listener_id = lit->second;
        auto callbacks = MakeConnCallbacks(child_id);
        // Wrap on_established to also enqueue on the listener.
        auto base_established = callbacks.on_established;
        callbacks.on_established = [this, child_id, listener_id,
                                    base_established] {
          if (base_established) base_established();
          TcpSocketObject* l = FindTcp(listener_id);
          if (l != nullptr &&
              l->state == TcpSocketObject::State::kListening) {
            l->accept_queue.push_back(child_id);
            WakeAll(l->accept_waiters);
          }
        };
        child->conn = std::make_unique<tcp::TcpConnection>(
            sim_, tcp_config_, tuple, MakeConnOutput(),
            std::move(callbacks));
        RegisterTuple(tuple, child_id);
        child->conn->OpenPassive(seg);
        return;
      }
    }
  }
  // No taker: answer with RST (unless this was itself an RST).
  if (!seg.rst) {
    tcp::TcpSegment rst;
    rst.src_port = seg.dst_port;
    rst.dst_port = seg.src_port;
    rst.rst = true;
    if (seg.ack_flag) {
      rst.seq = seg.ack;
    } else {
      rst.ack_flag = true;
      rst.ack = seg.seq + seg.SeqLen();
    }
    SendTcp(pkt.dst, pkt.src, rst);
  }
}

// ---------------------------------------------------------------------------
// UDP
// ---------------------------------------------------------------------------

SocketId NetworkStack::CreateUdpSocket() {
  SocketId id = next_socket_id_++;
  auto sock = std::make_unique<UdpSocketObject>();
  sock->id = id;
  udp_sockets_.emplace(id, std::move(sock));
  return id;
}

UdpSocketObject* NetworkStack::FindUdp(SocketId id) {
  auto it = udp_sockets_.find(id);
  return it == udp_sockets_.end() ? nullptr : it->second.get();
}

SysResult NetworkStack::UdpBind(SocketId id, net::Endpoint local) {
  UdpSocketObject* sock = FindUdp(id);
  if (sock == nullptr) return SysErr(CRUZ_EBADF);
  if (!local.ip.IsZero() && !OwnsIp(local.ip)) {
    return SysErr(CRUZ_EADDRNOTAVAIL);
  }
  if (local.port == 0) {
    local.port = AllocateEphemeralPort(local.ip);
  } else if (udp_by_endpoint_.count(local) ||
             udp_by_endpoint_.count(
                 net::Endpoint{net::kAnyAddress, local.port})) {
    return SysErr(CRUZ_EADDRINUSE);
  }
  if (sock->local.port != 0) udp_by_endpoint_.erase(sock->local);
  sock->local = local;
  udp_by_endpoint_[local] = id;
  return 0;
}

SysResult NetworkStack::UdpSendTo(SocketId id, net::Endpoint remote,
                                  cruz::ByteSpan data) {
  UdpSocketObject* sock = FindUdp(id);
  if (sock == nullptr) return SysErr(CRUZ_EBADF);
  if (sock->local.port == 0) {
    net::Ipv4Address src =
        interfaces_.empty() ? net::kAnyAddress : interfaces_.front().ip;
    SysResult r = UdpBind(id, net::Endpoint{src, 0});
    if (!SysOk(r)) return r;
  }
  net::Ipv4Address src_ip = sock->local.ip;
  if (src_ip.IsZero() && !interfaces_.empty()) {
    src_ip = interfaces_.front().ip;
  }
  if (data.size() + net::kUdpHeaderSize + net::kIpv4HeaderSize >
      net::kEthernetMtu) {
    return SysErr(CRUZ_EMSGSIZE);  // no fragmentation support
  }
  net::UdpDatagram dgram;
  dgram.src_port = sock->local.port;
  dgram.dst_port = remote.port;
  dgram.payload.assign(data.begin(), data.end());
  net::Ipv4Packet pkt;
  pkt.src = src_ip;
  pkt.dst = remote.ip;
  pkt.proto = net::IpProto::kUdp;
  pkt.payload = dgram.Encode();
  SendIpv4(std::move(pkt));
  return static_cast<SysResult>(data.size());
}

void NetworkStack::DestroyUdpSocket(SocketId id) {
  UdpSocketObject* sock = FindUdp(id);
  if (sock == nullptr) return;
  if (sock->local.port != 0) udp_by_endpoint_.erase(sock->local);
  udp_sockets_.erase(id);
}

void NetworkStack::HandleUdpDatagram(const net::Ipv4View& pkt) {
  net::UdpDatagram dgram;
  try {
    dgram = net::UdpDatagram::Decode(pkt.payload);
  } catch (const cruz::CodecError&) {
    return;
  }
  // Kernel-space UDP services (DHCP, checkpoint agents/coordinator) take
  // precedence. Service processing is serialized through the node's
  // protocol CPU when a cost is configured.
  auto svc = udp_services_.find(dgram.dst_port);
  if (svc != udp_services_.end()) {
    if (udp_service_cost_ == 0) {
      svc->second(net::Endpoint{pkt.src, dgram.src_port}, dgram.payload);
      return;
    }
    TimeNs start = std::max(sim_.Now(), udp_service_busy_until_);
    udp_service_busy_until_ = start + udp_service_cost_;
    std::uint16_t port = dgram.dst_port;
    sim_.ScheduleAt(udp_service_busy_until_,
                    [this, port, src = net::Endpoint{pkt.src, dgram.src_port},
                     payload = std::move(dgram.payload)] {
                      auto it = udp_services_.find(port);
                      if (it != udp_services_.end()) {
                        it->second(src, payload);
                      }
                    });
    return;
  }
  auto it = udp_by_endpoint_.find(net::Endpoint{pkt.dst, dgram.dst_port});
  if (it == udp_by_endpoint_.end()) {
    it = udp_by_endpoint_.find(
        net::Endpoint{net::kAnyAddress, dgram.dst_port});
  }
  if (it == udp_by_endpoint_.end()) return;  // no ICMP in this simulation
  UdpSocketObject* sock = FindUdp(it->second);
  if (sock == nullptr) return;
  if (sock->rx.size() >= UdpSocketObject::kMaxQueue) return;  // overflow
  sock->rx.emplace_back(net::Endpoint{pkt.src, dgram.src_port},
                        std::move(dgram.payload));
  WakeAll(sock->read_waiters);
}

void NetworkStack::RegisterUdpService(std::uint16_t port,
                                      UdpService service) {
  udp_services_[port] = std::move(service);
}

void NetworkStack::UnregisterUdpService(std::uint16_t port) {
  udp_services_.erase(port);
}

std::uint16_t NetworkStack::AllocateEphemeralPort(net::Ipv4Address ip) {
  for (int attempts = 0; attempts < 20000; ++attempts) {
    std::uint16_t port = next_ephemeral_port_++;
    if (next_ephemeral_port_ == 0) next_ephemeral_port_ = 32768;
    if (port < 32768) continue;
    net::Endpoint candidate{ip, port};
    bool in_use = udp_by_endpoint_.count(candidate) ||
                  tcp_listeners_.count(candidate);
    if (!in_use) {
      for (const auto& [tuple, sid] : tcp_by_tuple_) {
        if (tuple.local.port == port) {
          in_use = true;
          break;
        }
      }
    }
    if (!in_use) return port;
  }
  throw InvariantError("ephemeral port space exhausted");
}

}  // namespace cruz::os
