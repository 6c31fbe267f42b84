// Per-node network stack: interfaces (physical + per-pod VIFs), ARP, IPv4
// routing on a single subnet, UDP, TCP socket objects, and netfilter hooks.
//
// Key Cruz-specific capabilities live here:
//   * virtual interfaces with their own externally-routable IP (and,
//     hardware permitting, their own MAC) that can be deleted on one node
//     and recreated on another (paper §4.2);
//   * gratuitous-ARP announcement for the shared-MAC migration scheme;
//   * netfilter rules that silently drop all traffic to/from a pod's IP —
//     the "disable communication" step of the coordinated checkpoint
//     protocol (paper §5);
//   * TCP socket objects wrapping tcp::TcpConnection with listener/accept
//     queues and the pod's alternate receive buffer for restored data.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/sysresult.h"
#include "net/address.h"
#include "net/ethernet_switch.h"
#include "net/nic.h"
#include "net/packet.h"
#include "os/types.h"
#include "sim/event_queue.h"
#include "tcp/config.h"
#include "tcp/connection.h"

namespace cruz::sim {
class Simulator;
}

namespace cruz::os {

struct Interface {
  std::string name;
  net::MacAddress mac;  // network-visible MAC used on the wire
  net::Ipv4Address ip;
  net::Ipv4Address netmask;
  bool is_virtual = false;
};

// One neighbour-table entry (Linux's neighbour states, reduced to two).
// It is INCOMPLETE while its address is being resolved, and holds the
// packets that wait for the answer; then it holds the MAC.
struct Neighbour {
  struct Resolution {
    std::vector<net::Ipv4Packet> queued;
    int requests = 0;  // ARP requests sent so far
    sim::EventId timer = sim::kInvalidEventId;
    std::string out_if_name;
  };
  net::MacAddress mac;                     // once resolved
  std::unique_ptr<Resolution> incomplete;  // while resolving
};

struct UdpSocketObject {
  SocketId id = 0;
  net::Endpoint local;
  std::deque<std::pair<net::Endpoint, cruz::Bytes>> rx;
  std::vector<ThreadRef> read_waiters;
  static constexpr std::size_t kMaxQueue = 256;
};

struct TcpSocketObject {
  enum class State : std::uint8_t {
    kFresh = 0,
    kBound,
    kListening,
    kConnecting,
    kConnected,   // established (may be half-closed)
    kError,       // reset / timed out; error holds the errno
  };

  SocketId id = 0;
  State state = State::kFresh;
  net::Endpoint local;
  Errno error = CRUZ_EOK;

  // Listener state.
  int backlog = 0;
  std::deque<SocketId> accept_queue;  // established, unaccepted children

  // Connection state.
  std::unique_ptr<tcp::TcpConnection> conn;
  // The lingering-close reaper DestroyTcpSocket scheduled, if any; every
  // erase cancels it so a purged socket leaves no dead event behind.
  sim::EventId reaper = sim::kInvalidEventId;

  // Zap restore path: received-but-undelivered bytes from the checkpoint,
  // delivered ahead of the TCP receive path by the intercepted recv
  // syscall (paper §4.1 "alternate buffer").
  cruz::Bytes alt_recv;

  std::vector<ThreadRef> read_waiters;
  std::vector<ThreadRef> write_waiters;
  std::vector<ThreadRef> accept_waiters;
};

class NetworkStack {
 public:
  using WakeFn = std::function<void(std::vector<ThreadRef>&)>;
  using FilterFn = std::function<bool(const net::Ipv4Header&)>;  // true=drop

  NetworkStack(sim::Simulator& sim, std::string node_name, net::Nic* nic,
               tcp::TcpConfig tcp_config = {});

  // Wires thread wakeups (set by the Os; takes and clears the list).
  void set_wake_fn(WakeFn fn) { wake_ = std::move(fn); }

  net::Nic* nic() { return nic_; }
  const tcp::TcpConfig& tcp_config() const { return tcp_config_; }

  // --- interfaces -----------------------------------------------------------
  // Adds an interface. For a virtual interface with its own MAC the NIC
  // must support multiple MAC filters; otherwise pass the physical MAC.
  void AddInterface(const std::string& name, net::MacAddress mac,
                    net::Ipv4Address ip, net::Ipv4Address netmask,
                    bool is_virtual);
  void RemoveInterface(const std::string& name);
  const Interface* FindInterfaceByName(const std::string& name) const;
  const Interface* FindInterfaceByIp(net::Ipv4Address ip) const;
  bool OwnsIp(net::Ipv4Address ip) const;
  const std::vector<Interface>& interfaces() const { return interfaces_; }

  // Gratuitous ARP: announce (ip -> mac) to the whole subnet. Used when a
  // migrated pod's VIF lands on hardware with a different MAC (§4.2).
  void AnnounceAddress(net::Ipv4Address ip, net::MacAddress mac);

  // --- netfilter ---------------------------------------------------------------
  std::uint64_t AddFilter(FilterFn fn);
  void RemoveFilter(std::uint64_t id);
  std::size_t filter_count() const { return filters_.size(); }
  std::uint64_t filtered_packets() const { return filtered_packets_; }

  // --- IP output -----------------------------------------------------------------
  // Routes, ARP-resolves and transmits. Packets to one of this node's own
  // addresses loop back locally.
  void SendIpv4(net::Ipv4Packet pkt);
  // The same for a TCP segment: header and payload view are written
  // straight into the frame, and copied into an owned packet only when
  // the packet must wait (loopback, ARP resolution).
  void SendTcp(net::Ipv4Address src, net::Ipv4Address dst,
               const tcp::TcpSegment& seg);

  // --- UDP -------------------------------------------------------------------------
  SocketId CreateUdpSocket();
  UdpSocketObject* FindUdp(SocketId id);
  SysResult UdpBind(SocketId id, net::Endpoint local);
  SysResult UdpSendTo(SocketId id, net::Endpoint remote, cruz::ByteSpan data);
  void DestroyUdpSocket(SocketId id);

  // --- TCP -------------------------------------------------------------------------
  SocketId CreateTcpSocket();
  TcpSocketObject* FindTcp(SocketId id);
  SysResult TcpBind(SocketId id, net::Endpoint local);
  SysResult TcpListen(SocketId id, int backlog);
  // Active open; local.ip must already be set (bind or implicit bind).
  SysResult TcpConnect(SocketId id, net::Endpoint remote);
  // Pops an established child from a listener. -EAGAIN when empty.
  SysResult TcpAccept(SocketId id, SocketId* child);
  void DestroyTcpSocket(SocketId id);

  // Restore path: rebuilds a connection from its checkpoint (the §4.1
  // replay happens inside TcpConnection::Restore) and installs it into a
  // fresh socket object with the alternate receive buffer attached.
  SocketId RestoreTcpFromCheckpoint(const tcp::TcpConnCheckpoint& ck,
                                    cruz::Bytes alt_recv);
  // Restore path: recreates a listener.
  SocketId InstallRestoredListener(net::Endpoint local, int backlog);

  // Silently destroys every socket whose local address is `ip` (pod
  // teardown after migration: the restored incarnation owns the
  // connections; nothing may be transmitted from here).
  void PurgeSocketsForIp(net::Ipv4Address ip);

  // Enumeration for the checkpoint engine.
  std::map<SocketId, std::unique_ptr<UdpSocketObject>>& udp_sockets() {
    return udp_sockets_;
  }

  // Ephemeral port allocation for an address this node owns.
  std::uint16_t AllocateEphemeralPort(net::Ipv4Address ip);

  // Raw frame input (wired to the NIC receive handler).
  void OnFrame(cruz::ByteSpan wire);

  // --- UDP service hook (kernel-space services such as DHCP) ---------------
  // If set for a port, datagrams to that port are handed to the service
  // instead of a socket.
  using UdpService =
      std::function<void(net::Endpoint from, const cruz::Bytes& payload)>;
  void RegisterUdpService(std::uint16_t port, UdpService service);
  void UnregisterUdpService(std::uint16_t port);
  // Models kernel UDP receive processing for service ports: each datagram
  // occupies the (single) protocol-processing CPU for this long before
  // the service sees it, so near-simultaneous arrivals queue behind each
  // other. This is what makes coordination overhead grow with the number
  // of <done> messages converging on the coordinator (paper Fig. 5b).
  void set_udp_service_processing_cost(DurationNs cost) {
    udp_service_cost_ = cost;
  }

  // --- stats ------------------------------------------------------------------
  std::uint64_t ip_tx() const { return ip_tx_; }
  std::uint64_t ip_rx() const { return ip_rx_; }
  std::uint64_t arp_requests_sent() const { return arp_requests_sent_; }
  // Neighbour-cache inserts plus overwrites (host work, not traced).
  std::uint64_t arp_cache_writes() const { return arp_cache_writes_; }
  // ARP frames the NIC handed to this stack (host work, not traced).
  std::uint64_t arp_frames_handled() const { return arp_frames_handled_; }
  // True once `ip` is resolved.
  bool HasArpEntry(net::Ipv4Address ip) const {
    auto it = neighbours_.find(ip);
    return it != neighbours_.end() && it->second.incomplete == nullptr;
  }
  const std::unordered_map<net::Ipv4Address, Neighbour>& neighbours() const {
    return neighbours_;
  }

 private:
  void WakeAll(std::vector<ThreadRef>& waiters);
  void DeliverIpv4Local(const net::Ipv4View& pkt);
  void HandleArp(const net::ArpPacket& arp);
  void HandleTcpSegment(const net::Ipv4View& pkt);
  void HandleUdpDatagram(const net::Ipv4View& pkt);
  // The IP output path shared by SendIpv4 and SendTcp. `body` writes the
  // payload into a frame (WireSize, EncodeInto) and hands it over as
  // owned bytes (Take) when the packet must wait.
  template <typename Body>
  void OutputIpv4(const net::Ipv4Header& hdr, Body body);
  // Writes Ethernet header, IPv4 header and `body` into one pooled frame.
  template <typename Body>
  void TransmitIpv4(const net::Ipv4Header& hdr, const Body& body,
                    const Interface& out_if, net::MacAddress dst_mac);
  void SendArpRequest(net::Ipv4Address target, const Interface& out_if);
  // Sends the next request for `target`'s INCOMPLETE entry and re-arms
  // its timer, or, once kArpRequests have gone unanswered, erases the
  // entry and drops its queued packets.
  void SolicitArp(net::Ipv4Address target);
  // Keeps `ip` in the NIC's ARP filter exactly while this stack owns it
  // or holds a neighbour entry for it: the addresses whose flooded ARPs
  // HandleArp can act on.
  void UpdateArpFilter(net::Ipv4Address ip);
  // Frames `arp` (from arp.sender_mac to `dst_mac`) and transmits it.
  void TransmitArp(const net::ArpPacket& arp, net::MacAddress dst_mac);
  const Interface* RouteSourceInterface(net::Ipv4Address src) const;

  using TcpSocketMap = std::map<SocketId, std::unique_ptr<TcpSocketObject>>;

  // Wires a connection's callbacks to a socket object.
  tcp::TcpConnection::Callbacks MakeConnCallbacks(SocketId id);
  tcp::TcpConnection::OutputFn MakeConnOutput();
  void RegisterTuple(const net::FourTuple& tuple, SocketId id);
  // The one way a TCP socket object dies: drops its tuple mapping and its
  // listener entry (each only if it still names this socket), cancels its
  // pending reaper, and erases it. Returns the next map position.
  TcpSocketMap::iterator EraseTcpSocket(TcpSocketMap::iterator it);

  sim::Simulator& sim_;
  std::string node_name_;
  net::Nic* nic_;
  tcp::TcpConfig tcp_config_;
  WakeFn wake_;

  std::vector<Interface> interfaces_;

  std::unordered_map<net::Ipv4Address, Neighbour> neighbours_;

  // Netfilter.
  struct Filter {
    std::uint64_t id;
    FilterFn fn;
  };
  std::vector<Filter> filters_;
  std::uint64_t next_filter_id_ = 1;
  std::uint64_t filtered_packets_ = 0;

  // Sockets.
  TcpSocketMap tcp_sockets_;
  std::map<SocketId, std::unique_ptr<UdpSocketObject>> udp_sockets_;
  SocketId next_socket_id_ = 1;
  std::unordered_map<net::FourTuple, SocketId> tcp_by_tuple_;
  std::map<net::Endpoint, SocketId> tcp_listeners_;
  std::map<net::Endpoint, SocketId> udp_by_endpoint_;
  std::map<std::uint16_t, UdpService> udp_services_;
  DurationNs udp_service_cost_ = 0;
  TimeNs udp_service_busy_until_ = 0;
  std::uint16_t next_ephemeral_port_ = 32768;

  std::uint64_t ip_tx_ = 0;
  std::uint64_t ip_rx_ = 0;
  std::uint64_t arp_requests_sent_ = 0;
  std::uint64_t arp_cache_writes_ = 0;
  std::uint64_t arp_frames_handled_ = 0;
};

}  // namespace cruz::os
