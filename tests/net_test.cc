// Unit tests for addresses, packet codecs, NIC filtering, and the switch.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/error.h"
#include "net/address.h"
#include "net/ethernet_switch.h"
#include "net/nic.h"
#include "net/packet.h"
#include "sim/simulator.h"

namespace cruz::net {
namespace {

TEST(Address, MacFormatParseRoundTrip) {
  MacAddress m = MacAddress::FromId(0xA1B2C3D4);
  EXPECT_EQ(m.ToString(), "02:00:a1:b2:c3:d4");
  EXPECT_EQ(MacAddress::Parse(m.ToString()), m);
}

TEST(Address, MacParseRejectsGarbage) {
  EXPECT_THROW(MacAddress::Parse("not-a-mac"), cruz::CodecError);
  EXPECT_THROW(MacAddress::Parse("01:02:03"), cruz::CodecError);
}

TEST(Address, MacBroadcast) {
  EXPECT_TRUE(MacAddress::Broadcast().IsBroadcast());
  EXPECT_FALSE(MacAddress::FromId(1).IsBroadcast());
  EXPECT_TRUE(MacAddress{}.IsZero());
}

TEST(Address, Ipv4FormatParseRoundTrip) {
  Ipv4Address a = Ipv4Address::FromOctets(10, 0, 1, 42);
  EXPECT_EQ(a.ToString(), "10.0.1.42");
  EXPECT_EQ(Ipv4Address::Parse("10.0.1.42"), a);
}

// ToString writes its digits by hand; it must match the printf
// rendering byte for byte, including the one- and three-digit edges.
TEST(Address, Ipv4ToStringMatchesSnprintf) {
  auto expected = [](std::uint32_t v) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", (v >> 24) & 0xFF,
                  (v >> 16) & 0xFF, (v >> 8) & 0xFF, v & 0xFF);
    return std::string(buf);
  };
  std::vector<std::uint32_t> values = {
      0, 0xFFFFFFFFu, Ipv4Address::FromOctets(10, 0, 1, 7).value};
  std::mt19937 rng(7);
  for (int i = 0; i < 1000; ++i) values.push_back(rng());
  for (std::uint32_t v : values) {
    EXPECT_EQ(Ipv4Address{v}.ToString(), expected(v)) << v;
  }
}

TEST(Address, Ipv4ParseRejectsGarbage) {
  EXPECT_THROW(Ipv4Address::Parse("10.0.1"), cruz::CodecError);
  EXPECT_THROW(Ipv4Address::Parse("10.0.1.999"), cruz::CodecError);
  EXPECT_THROW(Ipv4Address::Parse("10.0.1.4x"), cruz::CodecError);
}

TEST(Address, SameSubnet) {
  Ipv4Address mask = Ipv4Address::FromOctets(255, 255, 255, 0);
  Ipv4Address a = Ipv4Address::Parse("10.0.1.5");
  EXPECT_TRUE(a.SameSubnet(Ipv4Address::Parse("10.0.1.200"), mask));
  EXPECT_FALSE(a.SameSubnet(Ipv4Address::Parse("10.0.2.5"), mask));
}

TEST(Address, EndpointAndTuple) {
  Endpoint e{Ipv4Address::Parse("10.0.0.1"), 8080};
  EXPECT_EQ(e.ToString(), "10.0.0.1:8080");
  FourTuple t{e, Endpoint{Ipv4Address::Parse("10.0.0.2"), 99}};
  EXPECT_EQ(t.Reversed().local, t.remote);
  EXPECT_EQ(t.Reversed().remote, t.local);
}

TEST(Packet, EthernetRoundTrip) {
  EthernetFrame f;
  f.dst = MacAddress::FromId(1);
  f.src = MacAddress::FromId(2);
  f.ether_type = EtherType::kArp;
  f.payload = {9, 8, 7};
  Bytes wire = f.Encode();
  EXPECT_EQ(wire.size(), kEthernetHeaderSize + 3);
  EthernetFrame g = EthernetFrame::Decode(wire);
  EXPECT_EQ(g.dst, f.dst);
  EXPECT_EQ(g.src, f.src);
  EXPECT_EQ(g.ether_type, f.ether_type);
  EXPECT_EQ(g.payload, f.payload);
}

TEST(Packet, EthernetRejectsUnknownEtherType) {
  EthernetFrame f;
  f.dst = MacAddress::FromId(1);
  f.src = MacAddress::FromId(2);
  Bytes wire = f.Encode();
  wire[12] = 0x12;
  wire[13] = 0x34;
  EXPECT_THROW(EthernetFrame::Decode(wire), cruz::CodecError);
}

TEST(Packet, ArpRoundTrip) {
  ArpPacket p;
  p.op = ArpOp::kReply;
  p.sender_mac = MacAddress::FromId(10);
  p.sender_ip = Ipv4Address::Parse("10.0.0.10");
  p.target_mac = MacAddress::FromId(20);
  p.target_ip = Ipv4Address::Parse("10.0.0.20");
  ArpPacket q = ArpPacket::Decode(p.Encode());
  EXPECT_EQ(q.op, p.op);
  EXPECT_EQ(q.sender_mac, p.sender_mac);
  EXPECT_EQ(q.sender_ip, p.sender_ip);
  EXPECT_EQ(q.target_mac, p.target_mac);
  EXPECT_EQ(q.target_ip, p.target_ip);
  EXPECT_FALSE(q.IsGratuitous());
}

// ArpPacket::Decode checks the 28-byte body once: one byte short throws,
// and bytes past it (Ethernet pads the body to a 46-byte payload) are
// ignored.
TEST(Packet, ArpDecodeChecksBodyLengthOnce) {
  ArpPacket p;
  p.op = ArpOp::kReply;
  p.sender_mac = MacAddress::FromId(10);
  p.sender_ip = Ipv4Address::Parse("10.0.0.10");
  p.target_mac = MacAddress::FromId(20);
  p.target_ip = Ipv4Address::Parse("10.0.0.20");
  Bytes body = p.Encode();
  ASSERT_EQ(body.size(), kArpPacketSize);
  Bytes truncated(body.begin(), body.end() - 1);
  EXPECT_THROW(ArpPacket::Decode(truncated), cruz::CodecError);
  Bytes padded = body;
  padded.resize(46, 0);
  ArpPacket q = ArpPacket::Decode(padded);
  EXPECT_EQ(q.op, p.op);
  EXPECT_EQ(q.sender_mac, p.sender_mac);
  EXPECT_EQ(q.sender_ip, p.sender_ip);
  EXPECT_EQ(q.target_mac, p.target_mac);
  EXPECT_EQ(q.target_ip, p.target_ip);
}

TEST(Packet, GratuitousArp) {
  ArpPacket p;
  p.sender_ip = p.target_ip = Ipv4Address::Parse("10.0.0.10");
  EXPECT_TRUE(p.IsGratuitous());
}

TEST(Packet, Ipv4RoundTrip) {
  Ipv4Packet p;
  p.src = Ipv4Address::Parse("10.0.0.1");
  p.dst = Ipv4Address::Parse("10.0.0.2");
  p.proto = IpProto::kTcp;
  p.ttl = 17;
  p.payload = Bytes(100, 0x5A);
  Bytes wire = p.Encode();
  EXPECT_EQ(wire.size(), kIpv4HeaderSize + 100);
  Ipv4View q = Ipv4View::Parse(wire);
  EXPECT_EQ(q.src, p.src);
  EXPECT_EQ(q.dst, p.dst);
  EXPECT_EQ(q.proto, p.proto);
  EXPECT_EQ(q.ttl, p.ttl);
  EXPECT_EQ(Bytes(q.payload.begin(), q.payload.end()), p.payload);
}

TEST(Packet, Ipv4ChecksumDetectsCorruption) {
  Ipv4Packet p;
  p.src = Ipv4Address::Parse("10.0.0.1");
  p.dst = Ipv4Address::Parse("10.0.0.2");
  p.payload = {1, 2, 3};
  Bytes wire = p.Encode();
  wire[16] ^= 0xFF;  // corrupt a src-address byte
  EXPECT_THROW(Ipv4View::Parse(wire), cruz::CodecError);
}

TEST(Packet, Ipv4TruncatedThrows) {
  Bytes wire(10, 0);
  EXPECT_THROW(Ipv4View::Parse(wire), cruz::CodecError);
}

TEST(Packet, UdpRoundTrip) {
  UdpDatagram d;
  d.src_port = 1234;
  d.dst_port = 53;
  d.payload = {42, 43, 44};
  UdpDatagram e = UdpDatagram::Decode(d.Encode());
  EXPECT_EQ(e.src_port, 1234);
  EXPECT_EQ(e.dst_port, 53);
  EXPECT_EQ(e.payload, d.payload);
}

TEST(Packet, InternetChecksumSelfVerifies) {
  Bytes data = {0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00,
                0x40, 0x11, 0x00, 0x00, 0xc0, 0xa8, 0x00, 0x01,
                0xc0, 0xa8, 0x00, 0xc7};
  std::uint16_t csum = InternetChecksum(data);
  data[10] = static_cast<std::uint8_t>(csum >> 8);
  data[11] = static_cast<std::uint8_t>(csum);
  EXPECT_EQ(InternetChecksum(data), 0);
}

// --- NIC + switch integration ---------------------------------------------

struct TwoNics {
  sim::Simulator sim;
  EthernetSwitch sw{sim, LinkParams{}};
  Nic a{sim, MacAddress::FromId(1), "nicA"};
  Nic b{sim, MacAddress::FromId(2), "nicB"};
  std::vector<EthernetFrame> a_rx, b_rx;

  TwoNics() {
    sw.AttachNic(&a);
    sw.AttachNic(&b);
    a.set_receive_handler(
        [this](ByteSpan w) { a_rx.push_back(EthernetFrame::Decode(w)); });
    b.set_receive_handler(
        [this](ByteSpan w) { b_rx.push_back(EthernetFrame::Decode(w)); });
  }

  EthernetFrame MakeFrame(MacAddress dst, MacAddress src, Bytes payload) {
    EthernetFrame f;
    f.dst = dst;
    f.src = src;
    f.ether_type = EtherType::kIpv4;
    // Valid IPv4 payload so Decode in handlers can parse if needed.
    f.payload = std::move(payload);
    return f;
  }
};

TEST(Switch, DeliversUnicastAfterLearning) {
  TwoNics t;
  // First frame from A floods (B unknown), B learns A; reply is unicast.
  EthernetFrame f = t.MakeFrame(t.b.primary_mac(), t.a.primary_mac(), {1});
  f.ether_type = EtherType::kArp;
  f.payload = ArpPacket{}.Encode();
  t.a.Transmit(f.Encode());
  t.sim.Run();
  ASSERT_EQ(t.b_rx.size(), 1u);
  EXPECT_EQ(t.b_rx[0].src, t.a.primary_mac());
  EXPECT_EQ(t.sw.flooded_frames(), 1u);

  t.b.Transmit(t.MakeFrame(t.a.primary_mac(), t.b.primary_mac(),
                           ArpPacket{}.Encode())
                   .Encode());
  t.sim.Run();
  ASSERT_EQ(t.a_rx.size(), 1u);
  EXPECT_EQ(t.sw.forwarded_frames(), 1u);
}

TEST(Switch, BroadcastReachesAllButSender) {
  TwoNics t;
  EthernetFrame f =
      t.MakeFrame(MacAddress::Broadcast(), t.a.primary_mac(), {});
  f.ether_type = EtherType::kArp;
  f.payload = ArpPacket{}.Encode();
  t.a.Transmit(f.Encode());
  t.sim.Run();
  EXPECT_EQ(t.b_rx.size(), 1u);
  EXPECT_EQ(t.a_rx.size(), 0u);
}

TEST(Nic, FiltersForeignUnicast) {
  TwoNics t;
  // Frame to a MAC that neither NIC owns: flooded, but filtered at both.
  EthernetFrame f =
      t.MakeFrame(MacAddress::FromId(99), t.a.primary_mac(), {});
  f.ether_type = EtherType::kArp;
  f.payload = ArpPacket{}.Encode();
  t.a.Transmit(f.Encode());
  t.sim.Run();
  EXPECT_EQ(t.b_rx.size(), 0u);
  EXPECT_EQ(t.b.filtered_frames(), 1u);
}

TEST(Nic, ExtraMacFilterAccepts) {
  TwoNics t;
  MacAddress vif_mac = MacAddress::FromId(99);
  t.b.AddMacFilter(vif_mac);
  EthernetFrame f = t.MakeFrame(vif_mac, t.a.primary_mac(), {});
  f.ether_type = EtherType::kArp;
  f.payload = ArpPacket{}.Encode();
  t.a.Transmit(f.Encode());
  t.sim.Run();
  EXPECT_EQ(t.b_rx.size(), 1u);

  t.b.RemoveMacFilter(vif_mac);
  t.a.Transmit(f.Encode());
  t.sim.Run();
  EXPECT_EQ(t.b_rx.size(), 1u);  // filtered now
}

TEST(Nic, PromiscuousAcceptsEverything) {
  TwoNics t;
  t.b.set_promiscuous(true);
  EthernetFrame f =
      t.MakeFrame(MacAddress::FromId(99), t.a.primary_mac(), {});
  f.ether_type = EtherType::kArp;
  f.payload = ArpPacket{}.Encode();
  t.a.Transmit(f.Encode());
  t.sim.Run();
  EXPECT_EQ(t.b_rx.size(), 1u);
}

TEST(Switch, DetachPurgesLearnedMacs) {
  TwoNics t;
  EthernetFrame f = t.MakeFrame(t.b.primary_mac(), t.a.primary_mac(),
                                ArpPacket{}.Encode());
  f.ether_type = EtherType::kArp;
  t.a.Transmit(f.Encode());
  t.sim.Run();
  t.sw.DetachNic(&t.b);
  // Reattach elsewhere: frame must flood again (stale entry purged),
  // and must not be delivered to the old port object.
  Nic c{t.sim, t.b.primary_mac(), "nicB2"};
  std::vector<Bytes> c_rx;
  c.set_receive_handler([&](ByteSpan w) { c_rx.emplace_back(w.begin(), w.end()); });
  t.sw.AttachNic(&c);
  t.a.Transmit(f.Encode());
  t.sim.Run();
  EXPECT_EQ(c_rx.size(), 1u);
}

// A pod MAC that moves to another port (live migration) is relearned from
// its first frame there; frames to it then follow the new port only.
TEST(Switch, MigratedMacIsRelearnedOnItsFirstFrame) {
  TwoNics t;
  Nic c{t.sim, MacAddress::FromId(3), "nicC"};
  std::vector<EthernetFrame> c_rx;
  c.set_receive_handler(
      [&](ByteSpan w) { c_rx.push_back(EthernetFrame::Decode(w)); });
  t.sw.AttachNic(&c);
  const MacAddress pod = MacAddress::FromId(0xB0D);
  auto frame = [&t](MacAddress dst, MacAddress src) {
    EthernetFrame f = t.MakeFrame(dst, src, ArpPacket{}.Encode());
    f.ether_type = EtherType::kArp;
    return f.Encode();
  };

  // The pod lives behind B: its first frame teaches the switch its port.
  t.b.AddMacFilter(pod);
  t.a.Transmit(frame(pod, t.a.primary_mac()));  // unknown: floods
  t.b.Transmit(frame(t.a.primary_mac(), pod));
  t.sim.Run();
  const std::uint64_t flooded = t.sw.flooded_frames();
  t.a.Transmit(frame(pod, t.a.primary_mac()));
  t.sim.Run();
  EXPECT_EQ(t.b_rx.size(), 2u);
  EXPECT_TRUE(c_rx.empty());

  // The pod migrates to C and speaks once; frames to it follow it to C.
  t.b.RemoveMacFilter(pod);
  c.AddMacFilter(pod);
  t.b_rx.clear();
  const std::uint64_t b_filtered = t.b.filtered_frames();
  c.Transmit(frame(t.a.primary_mac(), pod));
  t.sim.Run();
  const std::uint64_t forwarded = t.sw.forwarded_frames();
  for (int i = 0; i < 3; ++i) t.a.Transmit(frame(pod, t.a.primary_mac()));
  t.sim.Run();
  EXPECT_EQ(c_rx.size(), 3u);
  EXPECT_TRUE(t.b_rx.empty());
  EXPECT_EQ(t.b.filtered_frames(), b_filtered);  // nothing reached B
  EXPECT_EQ(t.sw.forwarded_frames(), forwarded + 3);
  EXPECT_EQ(t.sw.flooded_frames(), flooded);
}

TEST(Switch, LossDropsFrames) {
  sim::Simulator sim(7);
  LinkParams lossy;
  lossy.loss_probability = 1.0;
  EthernetSwitch sw(sim, lossy);
  Nic a{sim, MacAddress::FromId(1), "a"};
  Nic b{sim, MacAddress::FromId(2), "b"};
  sw.AttachNic(&a);
  sw.AttachNic(&b);
  int rx = 0;
  b.set_receive_handler([&](ByteSpan) { ++rx; });
  EthernetFrame f;
  f.dst = MacAddress::Broadcast();
  f.src = a.primary_mac();
  f.ether_type = EtherType::kArp;
  f.payload = ArpPacket{}.Encode();
  a.Transmit(f.Encode());
  sim.Run();
  EXPECT_EQ(rx, 0);
  EXPECT_GE(sw.dropped_frames(), 1u);
}

TEST(Nic, SerializationDelayMatchesLinkRate) {
  TwoNics t;
  EthernetFrame f = t.MakeFrame(MacAddress::Broadcast(), t.a.primary_mac(),
                                ArpPacket{}.Encode());
  f.ether_type = EtherType::kArp;
  t.a.Transmit(f.Encode());
  std::size_t wire_size = f.Encode().size();
  t.sim.Run();
  // serialization (tx) + forwarding latency + propagation + rx serialization
  DurationNs expected = TransmitTimeNs(wire_size, 1'000'000'000) * 2 +
                        2 * kMicrosecond + 5 * kMicrosecond;
  EXPECT_EQ(t.sim.Now(), expected);
}

TEST(Nic, OversizedFrameDropped) {
  TwoNics t;
  Bytes wire(kEthernetHeaderSize + kEthernetMtu + 1, 0);
  t.a.Transmit(std::move(wire));
  t.sim.Run();
  EXPECT_EQ(t.a.tx_frames(), 0u);
}

// --- flooding ----------------------------------------------------------------
//
// A broadcast (or unknown unicast) is flooded to every other attached
// port. Each egress port draws its own loss and delivers after its own
// forwarding + propagation + serialization delay; same-instant deliveries
// land in port order.

struct FloodRig {
  struct Rx {
    std::size_t nic = 0;
    TimeNs at = 0;
    Bytes wire;
  };

  explicit FloodRig(std::size_t n, std::uint64_t seed = 1,
                    LinkParams link = LinkParams{})
      : sim(seed), sw(sim, link) {
    for (std::size_t i = 0; i < n; ++i) Attach(MacAddress::FromId(i + 1));
  }

  // Attaches a fresh NIC that logs every delivery under its index.
  std::size_t Attach(MacAddress mac) {
    std::size_t idx = nics.size();
    nics.push_back(std::make_unique<Nic>(sim, mac, "n" + std::to_string(idx)));
    nics.back()->set_receive_handler([this, idx](ByteSpan w) {
      rx.push_back(Rx{idx, sim.Now(), Bytes(w.begin(), w.end())});
    });
    sw.AttachNic(nics.back().get());
    return idx;
  }

  Bytes Broadcast(std::size_t from, std::uint8_t tag = 0) {
    EthernetFrame f;
    f.dst = MacAddress::Broadcast();
    f.src = nics[from]->primary_mac();
    f.ether_type = EtherType::kArp;
    f.payload = ArpPacket{}.Encode();
    f.payload.push_back(tag);  // distinguishes frames in a batch
    Bytes wire = f.Encode();
    nics[from]->Transmit(wire);
    return wire;
  }

  std::vector<std::size_t> Receivers() const {
    std::vector<std::size_t> out;
    for (const Rx& r : rx) out.push_back(r.nic);
    return out;
  }

  sim::Simulator sim;
  EthernetSwitch sw;
  std::vector<std::unique_ptr<Nic>> nics;
  std::vector<Rx> rx;
};

DurationNs HopNs(std::size_t wire_size, const LinkParams& egress) {
  return 2 * kMicrosecond + egress.propagation_delay +
         TransmitTimeNs(wire_size, egress.bits_per_second);
}

TEST(Switch, FloodReachesEveryOtherPortAtOneInstantInPortOrder) {
  FloodRig rig(6);
  Bytes wire = rig.Broadcast(2);
  rig.sim.Run();
  EXPECT_EQ(rig.Receivers(), (std::vector<std::size_t>{0, 1, 3, 4, 5}));
  const TimeNs arrival =
      TransmitTimeNs(wire.size(), LinkParams{}.bits_per_second) +
      HopNs(wire.size(), LinkParams{});
  for (const FloodRig::Rx& r : rig.rx) {
    EXPECT_EQ(r.at, arrival) << "nic " << r.nic;
    EXPECT_EQ(r.wire, wire) << "nic " << r.nic;
  }
  EXPECT_EQ(rig.sw.flooded_frames(), 1u);
  EXPECT_EQ(rig.sw.dropped_frames(), 0u);
}

TEST(Switch, FloodHonoursEachEgressLinkDelay) {
  FloodRig rig(6);
  LinkParams slow;
  slow.bits_per_second = 100'000'000;
  slow.propagation_delay = 40 * kMicrosecond;
  LinkParams far;
  far.propagation_delay = 9 * kMicrosecond;
  rig.sw.SetLinkParams(1, slow);
  rig.sw.SetLinkParams(4, slow);
  rig.sw.SetLinkParams(3, far);
  Bytes wire = rig.Broadcast(0);
  rig.sim.Run();
  const TimeNs ingress =
      TransmitTimeNs(wire.size(), LinkParams{}.bits_per_second);
  const TimeNs fast_at = ingress + HopNs(wire.size(), LinkParams{});
  const TimeNs far_at = ingress + HopNs(wire.size(), far);
  const TimeNs slow_at = ingress + HopNs(wire.size(), slow);
  ASSERT_LT(fast_at, far_at);
  ASSERT_LT(far_at, slow_at);
  // Earliest instant first; port order within an instant.
  EXPECT_EQ(rig.Receivers(), (std::vector<std::size_t>{2, 5, 3, 1, 4}));
  std::vector<TimeNs> expected = {fast_at, fast_at, far_at, slow_at,
                                  slow_at};
  for (std::size_t i = 0; i < rig.rx.size(); ++i) {
    EXPECT_EQ(rig.rx[i].at, expected[i]) << "nic " << rig.rx[i].nic;
  }
}

TEST(Switch, FloodSkipsNicDetachedInFlight) {
  FloodRig rig(5);
  Bytes wire = rig.Broadcast(0);
  // Run up to the ingress instant: the flood is scheduled, nothing has
  // been delivered yet.
  rig.sim.RunUntil(TransmitTimeNs(wire.size(), LinkParams{}.bits_per_second));
  ASSERT_EQ(rig.sw.flooded_frames(), 1u);
  ASSERT_TRUE(rig.rx.empty());
  // Port 2's NIC leaves and a newcomer takes over its slot mid-flight:
  // neither may see the frame, every other port still does.
  rig.sw.DetachNic(rig.nics[2].get());
  std::size_t newcomer = rig.Attach(MacAddress::FromId(77));
  rig.sim.Run();
  EXPECT_EQ(rig.Receivers(), (std::vector<std::size_t>{1, 3, 4}));
  for (const FloodRig::Rx& r : rig.rx) EXPECT_NE(r.nic, newcomer);

  // The reused slot receives the next flood normally.
  rig.rx.clear();
  rig.Broadcast(0, 1);
  rig.sim.Run();
  EXPECT_EQ(rig.Receivers(), (std::vector<std::size_t>{1, newcomer, 3, 4}));
}

TEST(Switch, FloodEgressLossIsPinnedPerSeed) {
  // Egress-only loss (the sender's ingress link is clean): each flood
  // draws one Bernoulli per egress port, in port order, from the
  // switch's forked stream. The drop pattern below is the model's; it
  // may only change together with the switch's RNG use.
  LinkParams lossy;
  lossy.loss_probability = 0.3;
  FloodRig rig(8, /*seed=*/42, lossy);
  rig.sw.SetLinkParams(0, LinkParams{});
  std::vector<std::string> patterns;
  for (std::uint8_t round = 0; round < 6; ++round) {
    rig.rx.clear();
    rig.Broadcast(0, round);
    rig.sim.Run();
    std::string got(8, '.');
    got[0] = '-';
    for (const FloodRig::Rx& r : rig.rx) got[r.nic] = 'x';
    patterns.push_back(got);
  }
  // One row per flood: '-' sender, 'x' delivered, '.' dropped.
  EXPECT_EQ(patterns,
            (std::vector<std::string>{"-x.xx.x.", "-x.xx...", "-xxx.x..",
                                      "-x.xxx.x", "-xxxx.xx", "-..x.xxx"}));
}

TEST(Switch, ObserverSeesFrames) {
  TwoNics t;
  int observed = 0;
  t.sw.set_observer([&](std::size_t, ByteSpan) { ++observed; });
  EthernetFrame f = t.MakeFrame(MacAddress::Broadcast(), t.a.primary_mac(),
                                ArpPacket{}.Encode());
  f.ether_type = EtherType::kArp;
  t.a.Transmit(f.Encode());
  t.sim.Run();
  EXPECT_EQ(observed, 1);
}

}  // namespace
}  // namespace cruz::net
