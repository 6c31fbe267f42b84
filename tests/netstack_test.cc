// Direct tests of the per-node network stack: ARP resolution, retry and
// neighbour rules, netfilter hooks on both paths, loopback, broadcast,
// ephemeral ports, UDP queueing and overflow, RST generation, and the
// serialized UDP service processing model.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <optional>
#include <unordered_set>

#include "common/rng.h"
#include "net/packet.h"
#include "os/node.h"
#include "sim/simulator.h"
#include "tcp/segment.h"

namespace cruz::os {
namespace {

struct StackPair {
  sim::Simulator sim{1};
  net::EthernetSwitch ethernet{sim, net::LinkParams{}};
  NetworkFileSystem fs;
  Node a;
  Node b;
  StackPair()
      : a(sim, ethernet, fs, "a", 1,
          NodeConfig{.ip = net::Ipv4Address::Parse("10.0.0.1"), .netmask = net::Ipv4Address::FromOctets(255, 255, 255, 0), .tcp = {}}),
        b(sim, ethernet, fs, "b", 2,
          NodeConfig{.ip = net::Ipv4Address::Parse("10.0.0.2"), .netmask = net::Ipv4Address::FromOctets(255, 255, 255, 0), .tcp = {}}) {}

  net::Ipv4Packet MakeUdp(net::Ipv4Address src, net::Ipv4Address dst,
                          std::uint16_t sport, std::uint16_t dport,
                          cruz::Bytes payload = {1, 2, 3}) {
    net::UdpDatagram d;
    d.src_port = sport;
    d.dst_port = dport;
    d.payload = std::move(payload);
    net::Ipv4Packet pkt;
    pkt.src = src;
    pkt.dst = dst;
    pkt.proto = net::IpProto::kUdp;
    pkt.payload = d.Encode();
    return pkt;
  }
};

TEST(NetStack, ArpResolvesOnFirstPacket) {
  StackPair p;
  SocketId sock = p.b.stack().CreateUdpSocket();
  p.b.stack().UdpBind(sock, {p.b.ip(), 5000});
  SocketId sender = p.a.stack().CreateUdpSocket();
  p.a.stack().UdpBind(sender, {p.a.ip(), 6000});
  EXPECT_EQ(p.a.stack().arp_requests_sent(), 0u);
  p.a.stack().UdpSendTo(sender, {p.b.ip(), 5000}, cruz::Bytes{42});
  p.sim.RunFor(10 * kMillisecond);
  EXPECT_EQ(p.a.stack().arp_requests_sent(), 1u);
  UdpSocketObject* rx = p.b.stack().FindUdp(sock);
  ASSERT_EQ(rx->rx.size(), 1u);
  EXPECT_EQ(rx->rx.front().second, (cruz::Bytes{42}));
  // Second packet uses the cache: no new ARP request.
  p.a.stack().UdpSendTo(sender, {p.b.ip(), 5000}, cruz::Bytes{43});
  p.sim.RunFor(10 * kMillisecond);
  EXPECT_EQ(p.a.stack().arp_requests_sent(), 1u);
  EXPECT_EQ(rx->rx.size(), 2u);
}

// Records the destination MAC of every IPv4 frame the switch accepts.
void RecordIpv4Destinations(net::EthernetSwitch& sw,
                            std::vector<net::MacAddress>* out) {
  sw.set_observer([out](std::size_t, cruz::ByteSpan wire) {
    if (net::EthernetFrame::PeekEtherType(wire) == net::EtherType::kIpv4) {
      out->push_back(net::EthernetFrame::Decode(wire).dst);
    }
  });
}

TEST(NetStack, ArpRetriesThenGivesUp) {
  StackPair p;
  std::vector<net::MacAddress> sent_to;
  RecordIpv4Destinations(p.ethernet, &sent_to);
  SocketId sender = p.a.stack().CreateUdpSocket();
  p.a.stack().UdpBind(sender, {p.a.ip(), 6000});
  // Nobody owns 10.0.0.77: requests go unanswered. One request at the
  // send, one 500 ms later, and the entry is given up 500 ms after that.
  const net::Ipv4Address ghost = net::Ipv4Address::Parse("10.0.0.77");
  p.a.stack().UdpSendTo(sender, {ghost, 1}, cruz::Bytes{1});
  p.sim.RunFor(499 * kMillisecond);
  EXPECT_EQ(p.a.stack().arp_requests_sent(), 1u);
  p.sim.RunFor(2 * kMillisecond);
  EXPECT_EQ(p.a.stack().arp_requests_sent(), 2u);
  p.sim.RunFor(498 * kMillisecond);
  EXPECT_TRUE(p.a.stack().neighbours().contains(ghost));
  p.sim.RunFor(2 * kMillisecond);
  EXPECT_FALSE(p.a.stack().neighbours().contains(ghost));
  EXPECT_FALSE(p.a.nic().arp_filter().contains(ghost));
  p.sim.RunFor(4 * kSecond);
  EXPECT_EQ(p.a.stack().arp_requests_sent(), 2u);
  // The queued datagram went with the entry: a late answer sends nothing.
  p.b.stack().AnnounceAddress(ghost, net::MacAddress::FromId(0x77));
  p.sim.RunFor(10 * kMillisecond);
  EXPECT_FALSE(p.a.stack().HasArpEntry(ghost));
  EXPECT_TRUE(sent_to.empty());
}

TEST(NetStack, OutputFilterDropsSilently) {
  StackPair p;
  SocketId sock = p.b.stack().CreateUdpSocket();
  p.b.stack().UdpBind(sock, {p.b.ip(), 5000});
  SocketId sender = p.a.stack().CreateUdpSocket();
  p.a.stack().UdpBind(sender, {p.a.ip(), 6000});
  net::Ipv4Address blocked = p.b.ip();
  std::uint64_t rule = p.a.stack().AddFilter(
      [blocked](const net::Ipv4Header& pkt) { return pkt.dst == blocked; });
  p.a.stack().UdpSendTo(sender, {p.b.ip(), 5000}, cruz::Bytes{1});
  p.sim.RunFor(10 * kMillisecond);
  EXPECT_TRUE(p.b.stack().FindUdp(sock)->rx.empty());
  EXPECT_EQ(p.a.stack().filtered_packets(), 1u);
  p.a.stack().RemoveFilter(rule);
  p.a.stack().UdpSendTo(sender, {p.b.ip(), 5000}, cruz::Bytes{2});
  p.sim.RunFor(10 * kMillisecond);
  EXPECT_EQ(p.b.stack().FindUdp(sock)->rx.size(), 1u);
}

TEST(NetStack, InputFilterDropsBeforeDemux) {
  StackPair p;
  SocketId sock = p.b.stack().CreateUdpSocket();
  p.b.stack().UdpBind(sock, {p.b.ip(), 5000});
  net::Ipv4Address blocked = p.a.ip();
  p.b.stack().AddFilter(
      [blocked](const net::Ipv4Header& pkt) { return pkt.src == blocked; });
  SocketId sender = p.a.stack().CreateUdpSocket();
  p.a.stack().UdpBind(sender, {p.a.ip(), 6000});
  p.a.stack().UdpSendTo(sender, {p.b.ip(), 5000}, cruz::Bytes{1});
  p.sim.RunFor(10 * kMillisecond);
  EXPECT_TRUE(p.b.stack().FindUdp(sock)->rx.empty());
  EXPECT_GE(p.b.stack().filtered_packets(), 1u);
}

TEST(NetStack, LoopbackDeliversLocally) {
  StackPair p;
  SocketId rx = p.a.stack().CreateUdpSocket();
  p.a.stack().UdpBind(rx, {p.a.ip(), 5000});
  SocketId tx = p.a.stack().CreateUdpSocket();
  p.a.stack().UdpBind(tx, {p.a.ip(), 6000});
  std::uint64_t wire_before = p.a.nic().tx_frames();
  p.a.stack().UdpSendTo(tx, {p.a.ip(), 5000}, cruz::Bytes{9});
  p.sim.RunFor(kMillisecond);
  EXPECT_EQ(p.a.stack().FindUdp(rx)->rx.size(), 1u);
  EXPECT_EQ(p.a.nic().tx_frames(), wire_before);  // never hit the wire
}

TEST(NetStack, UdpQueueOverflowDropsExcess) {
  StackPair p;
  SocketId sock = p.b.stack().CreateUdpSocket();
  p.b.stack().UdpBind(sock, {p.b.ip(), 5000});
  SocketId sender = p.a.stack().CreateUdpSocket();
  p.a.stack().UdpBind(sender, {p.a.ip(), 6000});
  for (int i = 0; i < 300; ++i) {
    p.a.stack().UdpSendTo(sender, {p.b.ip(), 5000}, cruz::Bytes{1});
  }
  p.sim.RunFor(kSecond);
  EXPECT_EQ(p.b.stack().FindUdp(sock)->rx.size(),
            UdpSocketObject::kMaxQueue);
}

TEST(NetStack, UdpOversizedDatagramRejected) {
  StackPair p;
  SocketId sender = p.a.stack().CreateUdpSocket();
  p.a.stack().UdpBind(sender, {p.a.ip(), 6000});
  cruz::Bytes big(2000, 0);
  EXPECT_EQ(p.a.stack().UdpSendTo(sender, {p.b.ip(), 5000}, big),
            SysErr(CRUZ_EMSGSIZE));
}

TEST(NetStack, EphemeralPortsUnique) {
  StackPair p;
  std::set<std::uint16_t> ports;
  for (int i = 0; i < 100; ++i) {
    std::uint16_t port = p.a.stack().AllocateEphemeralPort(p.a.ip());
    EXPECT_GE(port, 32768);
    // Actually bind it so the next allocation must avoid it.
    SocketId s = p.a.stack().CreateUdpSocket();
    p.a.stack().UdpBind(s, {p.a.ip(), port});
    EXPECT_TRUE(ports.insert(port).second) << "duplicate port " << port;
  }
}

TEST(NetStack, BindConflictsRejected) {
  StackPair p;
  SocketId s1 = p.a.stack().CreateUdpSocket();
  EXPECT_EQ(p.a.stack().UdpBind(s1, {p.a.ip(), 7000}), 0);
  SocketId s2 = p.a.stack().CreateUdpSocket();
  EXPECT_EQ(p.a.stack().UdpBind(s2, {p.a.ip(), 7000}),
            SysErr(CRUZ_EADDRINUSE));
  // TCP listener conflicts likewise.
  SocketId t1 = p.a.stack().CreateTcpSocket();
  EXPECT_EQ(p.a.stack().TcpBind(t1, {p.a.ip(), 7001}), 0);
  EXPECT_EQ(p.a.stack().TcpListen(t1, 4), 0);
  SocketId t2 = p.a.stack().CreateTcpSocket();
  EXPECT_EQ(p.a.stack().TcpBind(t2, {p.a.ip(), 7001}),
            SysErr(CRUZ_EADDRINUSE));
  // Binding a foreign address is refused.
  SocketId t3 = p.a.stack().CreateTcpSocket();
  EXPECT_EQ(p.a.stack().TcpBind(t3, {p.b.ip(), 7002}),
            SysErr(CRUZ_EADDRNOTAVAIL));
}

TEST(NetStack, SynToClosedPortGetsRst) {
  StackPair p;
  // Hand-craft a SYN from a to b's port 9 (nothing listening).
  tcp::TcpSegment syn;
  syn.src_port = 1234;
  syn.dst_port = 9;
  syn.seq = 1000;
  syn.syn = true;
  syn.window = 1000;
  net::Ipv4Packet pkt;
  pkt.src = p.a.ip();
  pkt.dst = p.b.ip();
  pkt.proto = net::IpProto::kTcp;
  pkt.payload = syn.Encode();
  bool got_rst = false;
  // Observe the RST coming back on the wire.
  p.ethernet.set_observer([&](std::size_t, cruz::ByteSpan wire) {
    try {
      auto frame = net::EthernetFrame::Decode(wire);
      if (frame.ether_type != net::EtherType::kIpv4) return;
      net::Ipv4View ip = net::Ipv4View::Parse(frame.payload);
      if (ip.proto != net::IpProto::kTcp) return;
      auto seg = tcp::TcpSegment::Decode(ip.payload);
      if (seg.rst && ip.src == p.b.ip()) {
        got_rst = true;
        EXPECT_EQ(seg.ack, 1001u);  // SYN occupies one sequence number
      }
    } catch (const cruz::CodecError&) {
    }
  });
  p.a.stack().SendIpv4(pkt);
  p.sim.RunFor(10 * kMillisecond);
  EXPECT_TRUE(got_rst);
}

// Neighbour rules (Linux defaults, arp_accept = 0): a gratuitous ARP
// refreshes an entry that exists and never creates one; an entry is
// created for a pending resolution or for the sender of a request aimed
// at this host.

TEST(NetStack, GratuitousArpRepointsExistingPeer) {
  StackPair p;
  SocketId sock = p.b.stack().CreateUdpSocket();
  p.b.stack().UdpBind(sock, {p.b.ip(), 5000});
  SocketId sender = p.a.stack().CreateUdpSocket();
  p.a.stack().UdpBind(sender, {p.a.ip(), 6000});
  p.a.stack().UdpSendTo(sender, {p.b.ip(), 5000}, cruz::Bytes{1});
  p.sim.RunFor(10 * kMillisecond);
  ASSERT_TRUE(p.a.stack().HasArpEntry(p.b.ip()));
  // b's address moves to new hardware and is announced.
  const net::MacAddress new_mac = net::MacAddress::FromId(0xAB);
  p.b.stack().AnnounceAddress(p.b.ip(), new_mac);
  p.sim.RunFor(10 * kMillisecond);
  std::vector<net::MacAddress> sent_to;
  RecordIpv4Destinations(p.ethernet, &sent_to);
  const std::uint64_t arps = p.a.stack().arp_requests_sent();
  p.a.stack().UdpSendTo(sender, {p.b.ip(), 5000}, cruz::Bytes{2});
  p.sim.RunFor(10 * kMillisecond);
  EXPECT_EQ(p.a.stack().arp_requests_sent(), arps);
  EXPECT_EQ(sent_to, std::vector<net::MacAddress>{new_mac});
}

TEST(NetStack, GratuitousArpLeavesBystanderCacheEmpty) {
  StackPair p;
  const net::Ipv4Address moved = net::Ipv4Address::Parse("10.0.0.50");
  p.b.stack().AnnounceAddress(moved, net::MacAddress::FromId(0xAB));
  p.sim.RunFor(10 * kMillisecond);
  EXPECT_FALSE(p.a.stack().HasArpEntry(moved));
  EXPECT_EQ(p.a.stack().arp_cache_writes(), 0u);
  // The first send to the address resolves it like any other.
  SocketId sender = p.a.stack().CreateUdpSocket();
  p.a.stack().UdpBind(sender, {p.a.ip(), 6000});
  p.a.stack().UdpSendTo(sender, {moved, 5000}, cruz::Bytes{1});
  EXPECT_EQ(p.a.stack().arp_requests_sent(), 1u);
}

TEST(NetStack, GratuitousArpCompletesPendingResolution) {
  StackPair p;
  const net::Ipv4Address moved = net::Ipv4Address::Parse("10.0.0.50");
  const net::MacAddress new_mac = net::MacAddress::FromId(0xAB);
  std::vector<net::MacAddress> sent_to;
  RecordIpv4Destinations(p.ethernet, &sent_to);
  // Nobody answers for `moved` yet: a queues two datagrams behind one
  // request.
  SocketId sender = p.a.stack().CreateUdpSocket();
  p.a.stack().UdpBind(sender, {p.a.ip(), 6000});
  p.a.stack().UdpSendTo(sender, {moved, 5000}, cruz::Bytes{1});
  p.a.stack().UdpSendTo(sender, {moved, 5000}, cruz::Bytes{2});
  p.sim.RunFor(10 * kMillisecond);
  EXPECT_TRUE(sent_to.empty());
  p.b.stack().AnnounceAddress(moved, new_mac);
  p.sim.RunFor(10 * kMillisecond);
  EXPECT_TRUE(p.a.stack().HasArpEntry(moved));
  EXPECT_EQ(sent_to, (std::vector<net::MacAddress>{new_mac, new_mac}));
  // The retry timer is gone with the pending entry.
  p.sim.RunFor(2 * kSecond);
  EXPECT_EQ(p.a.stack().arp_requests_sent(), 1u);
}

// The switch reads ARP filters when a flood's delivery fires, not when
// the frame is flooded: a bystander that starts resolving an address
// while that address's announcement is in flight hears the announcement,
// resolves from it and never retries.
TEST(NetStack, AnnouncementInFlightReachesNewResolver) {
  StackPair p;
  const net::Ipv4Address moved = net::Ipv4Address::Parse("10.0.0.50");
  const net::MacAddress new_mac = net::MacAddress::FromId(0xAB);
  std::vector<net::MacAddress> sent_to;
  RecordIpv4Destinations(p.ethernet, &sent_to);
  p.b.stack().AnnounceAddress(moved, new_mac);
  p.sim.RunFor(kMicrosecond);  // flooded, not yet delivered
  ASSERT_EQ(p.ethernet.flooded_frames(), 1u);
  ASSERT_EQ(p.a.stack().arp_frames_handled(), 0u);
  SocketId sender = p.a.stack().CreateUdpSocket();
  p.a.stack().UdpBind(sender, {p.a.ip(), 6000});
  p.a.stack().UdpSendTo(sender, {moved, 5000}, cruz::Bytes{1});
  EXPECT_EQ(p.a.stack().arp_requests_sent(), 1u);
  p.sim.RunFor(2 * kSecond);
  EXPECT_EQ(p.a.stack().arp_frames_handled(), 1u);
  EXPECT_TRUE(p.a.stack().HasArpEntry(moved));
  EXPECT_EQ(sent_to, std::vector<net::MacAddress>{new_mac});
  EXPECT_EQ(p.a.stack().arp_requests_sent(), 1u);
}

// A node that fails and reboots leaves the switch and rejoins it on
// another port; its neighbour entries go with its stack, and the switch
// takes its ARP filter back in: an announcement of an address it never
// used passes it by, and the next announcement of its peer still
// repoints the entry.
TEST(NetStack, ArpEntryRepointedAfterFailAndReboot) {
  StackPair p;
  SocketId sock = p.b.stack().CreateUdpSocket();
  p.b.stack().UdpBind(sock, {p.b.ip(), 5000});
  SocketId sender = p.a.stack().CreateUdpSocket();
  p.a.stack().UdpBind(sender, {p.a.ip(), 6000});
  p.a.stack().UdpSendTo(sender, {p.b.ip(), 5000}, cruz::Bytes{1});
  p.sim.RunFor(10 * kMillisecond);
  ASSERT_TRUE(p.a.stack().HasArpEntry(p.b.ip()));
  p.a.Fail();
  // A NIC attached meanwhile takes a's old port.
  net::Nic other(p.sim, net::MacAddress::FromId(0x99), "other");
  p.ethernet.AttachNic(&other);
  p.a.Reboot();
  const std::uint64_t heard = p.a.stack().arp_frames_handled();
  p.b.stack().AnnounceAddress(net::Ipv4Address::Parse("10.0.0.50"),
                              net::MacAddress::FromId(0x50));
  p.sim.RunFor(10 * kMillisecond);
  EXPECT_EQ(p.a.stack().arp_frames_handled(), heard);
  const net::MacAddress new_mac = net::MacAddress::FromId(0xAB);
  p.b.stack().AnnounceAddress(p.b.ip(), new_mac);
  p.sim.RunFor(10 * kMillisecond);
  std::vector<net::MacAddress> sent_to;
  RecordIpv4Destinations(p.ethernet, &sent_to);
  p.a.stack().UdpSendTo(sender, {p.b.ip(), 5000}, cruz::Bytes{2});
  p.sim.RunFor(10 * kMillisecond);
  EXPECT_EQ(sent_to, std::vector<net::MacAddress>{new_mac});
  EXPECT_EQ(p.a.stack().arp_requests_sent(), 1u);
}

TEST(NetStack, ArpRequestForHostLearnsRequester) {
  StackPair p;
  SocketId sock = p.b.stack().CreateUdpSocket();
  p.b.stack().UdpBind(sock, {p.b.ip(), 5000});
  SocketId sender = p.a.stack().CreateUdpSocket();
  p.a.stack().UdpBind(sender, {p.a.ip(), 6000});
  p.a.stack().UdpSendTo(sender, {p.b.ip(), 5000}, cruz::Bytes{1});
  p.sim.RunFor(10 * kMillisecond);
  // a's request for b's address gave b a's entry: b answers without ARP.
  EXPECT_TRUE(p.b.stack().HasArpEntry(p.a.ip()));
  p.b.stack().UdpSendTo(sock, {p.a.ip(), 6000}, cruz::Bytes{2});
  p.sim.RunFor(10 * kMillisecond);
  EXPECT_EQ(p.b.stack().arp_requests_sent(), 0u);
  EXPECT_EQ(p.a.stack().FindUdp(sender)->rx.size(), 1u);
}

// Raw frames that fail the Ethernet parse reach the stack's input path
// (the NIC only checks the destination MAC) and must be dropped there
// without throwing and without touching ARP or socket state. Each
// malformed frame carries a body that *would* change state if it were
// parsed as ARP or IPv4.
TEST(NetStack, MalformedFramesDropWithoutSideEffects) {
  StackPair p;
  SocketId sock = p.b.stack().CreateUdpSocket();
  p.b.stack().UdpBind(sock, {p.b.ip(), 5000});
  const net::MacAddress b_mac = p.b.stack().interfaces().front().mac;

  // A gratuitous ARP for a made-up address (would fill b's ARP cache) and
  // a UDP datagram for b's bound socket (would land in its queue).
  const net::Ipv4Address ghost = net::Ipv4Address::Parse("10.0.0.60");
  net::ArpPacket announce;
  announce.sender_mac = net::MacAddress::FromId(0x60);
  announce.sender_ip = ghost;
  announce.target_ip = ghost;
  auto frame = [&](net::EtherType type, cruz::Bytes payload) {
    net::EthernetFrame f;
    f.dst = b_mac;
    f.src = net::MacAddress::FromId(0x60);
    f.ether_type = type;
    f.payload = std::move(payload);
    return f.Encode();
  };
  cruz::Bytes arp_wire = frame(net::EtherType::kArp, announce.Encode());
  cruz::Bytes udp_wire =
      frame(net::EtherType::kIpv4,
            p.MakeUdp(p.a.ip(), p.b.ip(), 6000, 5000).Encode());

  std::vector<cruz::Bytes> malformed;
  for (std::size_t len : {0, 1, 6, 12, 13}) {  // runts: < 14-byte header
    malformed.emplace_back(arp_wire.begin(), arp_wire.begin() + len);
    malformed.emplace_back(udp_wire.begin(), udp_wire.begin() + len);
  }
  for (std::uint16_t type : {0x0000, 0x86DD, 0x0801, 0x0805}) {
    for (cruz::Bytes w : {arp_wire, udp_wire}) {  // unknown EtherType
      w[12] = static_cast<std::uint8_t>(type >> 8);
      w[13] = static_cast<std::uint8_t>(type);
      malformed.push_back(std::move(w));
    }
  }
  for (const cruz::Bytes& w : malformed) {
    EXPECT_NO_THROW(p.b.stack().OnFrame(w)) << w.size() << " bytes";
  }
  p.sim.RunFor(10 * kMillisecond);

  EXPECT_EQ(p.b.stack().ip_rx(), 0u);
  EXPECT_TRUE(p.b.stack().FindUdp(sock)->rx.empty());
  EXPECT_EQ(p.b.stack().arp_requests_sent(), 0u);
  // The ghost address is still unresolved: sending to it must ARP.
  SocketId sender = p.b.stack().CreateUdpSocket();
  p.b.stack().UdpBind(sender, {p.b.ip(), 6000});
  p.b.stack().UdpSendTo(sender, {ghost, 1}, cruz::Bytes{1});
  EXPECT_EQ(p.b.stack().arp_requests_sent(), 1u);

  // The well-formed originals still work (the checks above are not
  // vacuous).
  p.b.stack().OnFrame(udp_wire);
  EXPECT_EQ(p.b.stack().FindUdp(sock)->rx.size(), 1u);
}

TEST(NetStack, UdpServiceProcessingSerializes) {
  StackPair p;
  p.b.stack().set_udp_service_processing_cost(100 * kMicrosecond);
  std::vector<TimeNs> deliveries;
  p.b.stack().RegisterUdpService(
      9000, [&](net::Endpoint, const cruz::Bytes&) {
        deliveries.push_back(p.sim.Now());
      });
  SocketId sender = p.a.stack().CreateUdpSocket();
  p.a.stack().UdpBind(sender, {p.a.ip(), 6000});
  // Fire 4 datagrams back-to-back: they must drain 100 us apart.
  for (int i = 0; i < 4; ++i) {
    p.a.stack().UdpSendTo(sender, {p.b.ip(), 9000}, cruz::Bytes{1});
  }
  p.sim.RunFor(10 * kMillisecond);
  ASSERT_EQ(deliveries.size(), 4u);
  for (std::size_t i = 1; i < deliveries.size(); ++i) {
    EXPECT_GE(deliveries[i] - deliveries[i - 1], 100 * kMicrosecond);
  }
  p.b.stack().UnregisterUdpService(9000);
}

TEST(NetStack, RemoveInterfaceStopsOwnership) {
  StackPair p;
  net::Ipv4Address vip = net::Ipv4Address::Parse("10.0.0.80");
  p.a.stack().AddInterface("vif1", net::MacAddress::FromId(0x80), vip,
                           net::Ipv4Address::FromOctets(255, 255, 255, 0),
                           true);
  EXPECT_TRUE(p.a.stack().OwnsIp(vip));
  EXPECT_NE(p.a.stack().FindInterfaceByName("vif1"), nullptr);
  p.a.stack().RemoveInterface("vif1");
  EXPECT_FALSE(p.a.stack().OwnsIp(vip));
  EXPECT_EQ(p.a.stack().FindInterfaceByName("vif1"), nullptr);
}

// Connects a (ephemeral port) to a listener on b:9000 and returns a's
// established socket.
SocketId ConnectAToB(StackPair& p) {
  SocketId listener = p.b.stack().CreateTcpSocket();
  EXPECT_EQ(p.b.stack().TcpBind(listener, {p.b.ip(), 9000}), 0);
  EXPECT_EQ(p.b.stack().TcpListen(listener, 4), 0);
  SocketId sock = p.a.stack().CreateTcpSocket();
  EXPECT_EQ(p.a.stack().TcpBind(sock, {p.a.ip(), 0}), 0);
  p.a.stack().TcpConnect(sock, {p.b.ip(), 9000});
  p.sim.RunFor(10 * kMillisecond);
  EXPECT_EQ(p.a.stack().FindTcp(sock)->state,
            TcpSocketObject::State::kConnected);
  return sock;
}

TEST(NetStack, AppClosedSocketIsStillReaped) {
  StackPair p;
  SocketId sock = ConnectAToB(p);
  // The peer never answers the FIN: b drops everything it receives.
  p.b.stack().AddFilter([](const net::Ipv4Header&) { return true; });
  const tcp::TcpConfig& cfg = p.a.stack().tcp_config();
  const DurationNs linger = cfg.time_wait_duration + 2 * cfg.max_rto;
  TimeNs closed_at = p.sim.Now();
  p.a.stack().DestroyTcpSocket(sock);
  p.sim.RunUntil(closed_at + linger - kMillisecond);
  ASSERT_NE(p.a.stack().FindTcp(sock), nullptr);
  p.sim.RunUntil(closed_at + linger);
  EXPECT_EQ(p.a.stack().FindTcp(sock), nullptr);
}

TEST(NetStack, PurgeCancelsLingeringReaper) {
  StackPair p;
  SocketId sock = ConnectAToB(p);
  p.sim.RunFor(kSecond);  // every handshake timer has drained
  const std::size_t idle = p.sim.pending_events();
  // Silent pod teardown: the app's close lingers in FIN-WAIT, then the
  // purge erases it. Nothing of the socket may stay in the queue.
  std::uint64_t drop_all =
      p.a.stack().AddFilter([](const net::Ipv4Header&) { return true; });
  p.a.stack().DestroyTcpSocket(sock);
  EXPECT_GT(p.sim.pending_events(), idle);
  p.a.stack().PurgeSocketsForIp(p.a.ip());
  p.a.stack().RemoveFilter(drop_all);
  EXPECT_EQ(p.a.stack().FindTcp(sock), nullptr);
  EXPECT_EQ(p.sim.pending_events(), idle);
}

TEST(NetStack, PurgeSocketsRemovesDemuxEntries) {
  StackPair p;
  net::Ipv4Address vip = net::Ipv4Address::Parse("10.0.0.80");
  p.a.stack().AddInterface("vif1", net::MacAddress::FromId(0x80), vip,
                           net::Ipv4Address::FromOctets(255, 255, 255, 0),
                           true);
  SocketId listener = p.a.stack().CreateTcpSocket();
  ASSERT_EQ(p.a.stack().TcpBind(listener, {vip, 9000}), 0);
  ASSERT_EQ(p.a.stack().TcpListen(listener, 4), 0);
  SocketId udp = p.a.stack().CreateUdpSocket();
  ASSERT_EQ(p.a.stack().UdpBind(udp, {vip, 9001}), 0);
  p.a.stack().PurgeSocketsForIp(vip);
  EXPECT_EQ(p.a.stack().FindTcp(listener), nullptr);
  EXPECT_EQ(p.a.stack().FindUdp(udp), nullptr);
  // The port is free again.
  SocketId again = p.a.stack().CreateTcpSocket();
  EXPECT_EQ(p.a.stack().TcpBind(again, {vip, 9000}), 0);
}

// Differential check of the switch's ARP filtering. A random script over
// 16 stacks (sends to owned and unowned addresses from eth0 and VIF
// sources, announcements, VIF add, remove and migration, NIC detach and
// reattach, pauses that cross the retry and give-up instants) runs
// against a reference model that hands every broadcast ARP to every
// attached stack but the sender and applies the arp_accept = 0 rules
// there. A NIC without a filter at port 0 hears every broadcast first;
// unicast replies are taken from each stack's own receive path, which
// the filter does not touch. Every operation and every timer instant falls on a
// whole millisecond and every frame lands microseconds after one, so the
// model may run timers lazily. After each step each stack's neighbour
// table, arp_cache_writes() and arp_requests_sent() must equal the
// model's, and its NIC's filter must be its own addresses plus its
// neighbour entries.
struct ArpModel {
  struct Entry {
    bool resolved = false;
    net::MacAddress mac;
    TimeNs created = 0;
    bool retried = false;
  };
  struct Stack {
    std::map<net::Ipv4Address, Entry> table;
    std::uint64_t writes = 0;
    std::uint64_t requests = 0;
  };
  std::vector<Stack> stacks;

  // The retry and give-up timers of every entry due by `now`.
  void RunTimers(Stack& m, TimeNs now) {
    for (auto it = m.table.begin(); it != m.table.end();) {
      Entry& e = it->second;
      if (!e.resolved && !e.retried && e.created + 500 * kMillisecond <= now) {
        e.retried = true;
        ++m.requests;
      }
      if (!e.resolved && e.created + kSecond <= now) {
        it = m.table.erase(it);
      } else {
        ++it;
      }
    }
  }

  void Send(std::size_t i, const NetworkStack& real, net::Ipv4Address dst,
            TimeNs now) {
    Stack& m = stacks[i];
    RunTimers(m, now);
    if (real.OwnsIp(dst) || m.table.contains(dst)) return;
    Entry e;
    e.created = now;
    m.table.emplace(dst, e);
    ++m.requests;
  }

  void Hear(std::size_t i, const NetworkStack& real,
            const net::ArpPacket& arp, TimeNs now) {
    Stack& m = stacks[i];
    RunTimers(m, now);
    if (arp.sender_ip.IsZero()) return;
    auto it = m.table.find(arp.sender_ip);
    if (it == m.table.end()) {
      if (arp.op != net::ArpOp::kRequest || arp.IsGratuitous() ||
          !real.OwnsIp(arp.target_ip)) {
        return;
      }
      it = m.table.emplace(arp.sender_ip, Entry{}).first;
    }
    it->second.resolved = true;
    it->second.mac = arp.sender_mac;
    ++m.writes;
  }
};

bool IsBroadcastArp(cruz::ByteSpan wire) {
  return net::EthernetFrame::PeekEtherType(wire) == net::EtherType::kArp &&
         net::EthernetFrame::Decode(wire).dst.IsBroadcast();
}

void RunArpFilterScript(std::uint64_t seed, int steps) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  constexpr std::size_t kStacks = 16;
  const net::Ipv4Address mask = net::Ipv4Address::FromOctets(255, 255, 255, 0);
  sim::Simulator sim(seed);
  net::EthernetSwitch ethernet(sim, net::LinkParams{});
  NetworkFileSystem fs;
  net::Nic tap(sim, net::MacAddress::FromId(0xEEEE), "tap");
  ethernet.AttachNic(&tap);
  std::vector<std::unique_ptr<Node>> nodes;
  std::vector<std::size_t> port(kStacks);
  std::vector<bool> attached(kStacks, true);
  for (std::size_t i = 0; i < kStacks; ++i) {
    nodes.push_back(std::make_unique<Node>(
        sim, ethernet, fs, "n" + std::to_string(i),
        static_cast<std::uint32_t>(i),
        NodeConfig{.ip = net::Ipv4Address::FromOctets(
                       10, 0, 0, static_cast<std::uint8_t>(1 + i)),
                   .netmask = mask,
                   .tcp = {}}));
    port[i] = i + 1;
  }
  ArpModel model;
  model.stacks.resize(kStacks);

  // Broadcast ARPs reach the tap in the order they entered the switch
  // (uniform links, equal frame sizes), so a FIFO names each one's
  // ingress port.
  std::deque<std::size_t> ingress;
  ethernet.set_observer([&](std::size_t in, cruz::ByteSpan wire) {
    if (IsBroadcastArp(wire)) ingress.push_back(in);
  });
  tap.set_receive_handler([&](cruz::ByteSpan wire) {
    if (!IsBroadcastArp(wire)) return;
    ASSERT_FALSE(ingress.empty());
    const std::size_t in = ingress.front();
    ingress.pop_front();
    const net::ArpPacket arp =
        net::ArpPacket::Decode(wire.subspan(net::kEthernetHeaderSize));
    for (std::size_t i = 0; i < kStacks; ++i) {
      if (attached[i] && port[i] != in) {
        model.Hear(i, nodes[i]->stack(), arp, sim.Now());
      }
    }
  });
  for (std::size_t i = 0; i < kStacks; ++i) {
    NetworkStack* stack = &nodes[i]->stack();
    nodes[i]->nic().set_receive_handler([&, i, stack](cruz::ByteSpan wire) {
      if (net::EthernetFrame::PeekEtherType(wire) == net::EtherType::kArp &&
          !IsBroadcastArp(wire)) {
        model.Hear(i, *stack,
                   net::ArpPacket::Decode(
                       wire.subspan(net::kEthernetHeaderSize)),
                   sim.Now());
      }
      stack->OnFrame(wire);
    });
  }

  // Addresses: 8 VIF addresses that move between stacks, 4 that nobody
  // ever owns, and the stacks' own eth0 addresses.
  constexpr std::size_t kVifs = 8;
  std::vector<std::optional<std::size_t>> vif_owner(kVifs);
  auto vif_ip = [](std::size_t v) {
    return net::Ipv4Address::FromOctets(10, 0, 0,
                                        static_cast<std::uint8_t>(100 + v));
  };
  auto vif_name = [](std::size_t v) { return "vif" + std::to_string(v); };
  auto vif_mac = [](std::size_t v) {
    return net::MacAddress::FromId(0x20000 + static_cast<std::uint32_t>(v));
  };
  Rng rng(seed);
  auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.NextBelow(n));
  };
  auto any_address = [&]() -> net::Ipv4Address {
    switch (pick(3)) {
      case 0:
        return vif_ip(pick(kVifs));
      case 1:
        return net::Ipv4Address::FromOctets(
            10, 0, 0, static_cast<std::uint8_t>(200 + pick(4)));
      default:
        return nodes[pick(kStacks)]->ip();
    }
  };
  auto add_vif = [&](std::size_t v, std::size_t i) {
    nodes[i]->stack().AddInterface(vif_name(v), vif_mac(v), vif_ip(v), mask,
                                   /*is_virtual=*/true);
    vif_owner[v] = i;
  };
  auto remove_vif = [&](std::size_t v) {
    nodes[*vif_owner[v]]->stack().RemoveInterface(vif_name(v));
    vif_owner[v].reset();
  };
  const DurationNs pauses_ms[] = {1, 1, 1, 2, 5, 50, 250, 499, 500, 501, 700};

  for (int step = 0; step < steps; ++step) {
    const std::size_t i = pick(kStacks);
    NetworkStack& stack = nodes[i]->stack();
    const std::uint64_t op = rng.NextBelow(100);
    if (op < 40) {  // send from eth0 or one of i's VIFs
      net::Ipv4Address src = nodes[i]->ip();
      const std::size_t v = pick(kVifs);
      if (vif_owner[v] == i && rng.NextBernoulli(0.5)) src = vif_ip(v);
      const net::Ipv4Address dst = any_address();
      model.Send(i, stack, dst, sim.Now());
      net::Ipv4Packet pkt;
      pkt.src = src;
      pkt.dst = dst;
      pkt.proto = net::IpProto::kUdp;
      pkt.payload = cruz::Bytes(8, 0);
      stack.SendIpv4(std::move(pkt));
    } else if (op < 60) {  // announce any address with i's or a new MAC
      const net::MacAddress mac =
          rng.NextBernoulli(0.5)
              ? nodes[i]->nic().primary_mac()
              : net::MacAddress::FromId(0x30000 +
                                        static_cast<std::uint32_t>(pick(4)));
      stack.AnnounceAddress(any_address(), mac);
    } else if (op < 75) {  // migrate a VIF to i, and announce it there
      const std::size_t v = pick(kVifs);
      if (vif_owner[v] == i) continue;
      if (vif_owner[v]) remove_vif(v);
      add_vif(v, i);
      if (rng.NextBernoulli(0.7)) stack.AnnounceAddress(vif_ip(v), vif_mac(v));
    } else if (op < 82) {  // remove a VIF
      const std::size_t v = pick(kVifs);
      if (vif_owner[v]) remove_vif(v);
    } else if (op < 90) {  // detach i
      if (!attached[i]) continue;
      ethernet.DetachNic(&nodes[i]->nic());
      attached[i] = false;
    } else {  // reattach a detached stack
      const std::size_t j = pick(kStacks);
      if (attached[j]) continue;
      port[j] = ethernet.AttachNic(&nodes[j]->nic());
      attached[j] = true;
    }
    sim.RunFor(pauses_ms[pick(std::size(pauses_ms))] * kMillisecond);

    for (std::size_t k = 0; k < kStacks; ++k) {
      SCOPED_TRACE("step " + std::to_string(step) + " stack " +
                   std::to_string(k));
      const NetworkStack& real = nodes[k]->stack();
      ArpModel::Stack& m = model.stacks[k];
      model.RunTimers(m, sim.Now());
      std::map<net::Ipv4Address, std::optional<net::MacAddress>> got, want;
      for (const auto& [ip, n] : real.neighbours()) {
        got[ip] = n.incomplete ? std::nullopt : std::optional(n.mac);
      }
      for (const auto& [ip, e] : m.table) {
        want[ip] = e.resolved ? std::optional(e.mac) : std::nullopt;
      }
      ASSERT_EQ(got, want);
      ASSERT_EQ(real.arp_cache_writes(), m.writes);
      ASSERT_EQ(real.arp_requests_sent(), m.requests);
      std::unordered_set<net::Ipv4Address> filter;
      for (const Interface& itf : real.interfaces()) filter.insert(itf.ip);
      for (const auto& [ip, e] : m.table) filter.insert(ip);
      ASSERT_EQ(nodes[k]->nic().arp_filter(), filter);
    }
  }
}

TEST(NetStack, ArpFilterMatchesFullDeliveryModel) {
  for (std::uint64_t seed : {1, 2, 3, 4}) {
    RunArpFilterScript(seed, 600);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace cruz::os
