#include "net/packet.h"

namespace cruz::net {

std::uint16_t InternetChecksum(ByteSpan data) {
  std::uint32_t sum = 0;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += (static_cast<std::uint32_t>(data[i]) << 8) | data[i + 1];
  }
  if (i < data.size()) {
    sum += static_cast<std::uint32_t>(data[i]) << 8;
  }
  while (sum >> 16) {
    sum = (sum & 0xFFFF) + (sum >> 16);
  }
  return static_cast<std::uint16_t>(~sum);
}

Bytes EthernetFrame::Encode() const {
  ByteWriter w(WireSize());
  EncodeHeader(w, dst, src, ether_type);
  w.PutBytes(payload);
  return w.Take();
}

void EthernetFrame::EncodeHeader(ByteWriter& w, MacAddress dst,
                                 MacAddress src, EtherType ether_type) {
  w.PutBytes(dst.octets.data(), 6);
  w.PutBytes(src.octets.data(), 6);
  w.PutU16(static_cast<std::uint16_t>(ether_type));
}

namespace {

std::optional<EtherType> KnownEtherType(std::uint16_t et) {
  if (et != static_cast<std::uint16_t>(EtherType::kIpv4) &&
      et != static_cast<std::uint16_t>(EtherType::kArp)) {
    return std::nullopt;
  }
  return static_cast<EtherType>(et);
}

}  // namespace

EthernetFrame EthernetFrame::Decode(ByteSpan wire) {
  ByteReader r(wire);
  EthernetFrame f;
  ByteSpan dst = r.GetSpan(6);
  std::copy(dst.begin(), dst.end(), f.dst.octets.begin());
  ByteSpan src = r.GetSpan(6);
  std::copy(src.begin(), src.end(), f.src.octets.begin());
  std::uint16_t et = r.GetU16();
  std::optional<EtherType> type = KnownEtherType(et);
  if (!type) throw CodecError("unknown EtherType " + std::to_string(et));
  f.ether_type = *type;
  f.payload = r.GetBytes(r.remaining());
  return f;
}

std::optional<EtherType> EthernetFrame::PeekEtherType(ByteSpan wire) {
  if (wire.size() < kEthernetHeaderSize) return std::nullopt;
  return KnownEtherType(static_cast<std::uint16_t>(wire[12] << 8 | wire[13]));
}

Bytes ArpPacket::Encode() const {
  ByteWriter w(kArpPacketSize);
  EncodeInto(w);
  return w.Take();
}

void ArpPacket::EncodeInto(ByteWriter& w) const {
  w.PutU16(1);       // hardware type: Ethernet
  w.PutU16(0x0800);  // protocol type: IPv4
  w.PutU8(6);        // hardware size
  w.PutU8(4);        // protocol size
  w.PutU16(static_cast<std::uint16_t>(op));
  w.PutBytes(sender_mac.octets.data(), 6);
  w.PutU32(sender_ip.value);
  w.PutBytes(target_mac.octets.data(), 6);
  w.PutU32(target_ip.value);
}

ArpPacket ArpPacket::Decode(ByteSpan wire) {
  // Every stack on the switch decodes each flooded ARP, so the fixed body
  // is bounds-checked once and read at its offsets. Bytes past it are
  // Ethernet padding (a 28-byte body rides in a 46-byte minimum payload).
  if (wire.size() < kArpPacketSize) {
    throw CodecError("ARP: truncated body (" + std::to_string(wire.size()) +
                     " of " + std::to_string(kArpPacketSize) + " bytes)");
  }
  const std::uint8_t* b = wire.data();
  auto u16 = [b](std::size_t at) {
    return static_cast<std::uint16_t>(b[at] << 8 | b[at + 1]);
  };
  auto u32 = [&u16](std::size_t at) {
    return static_cast<std::uint32_t>(u16(at)) << 16 | u16(at + 2);
  };
  if (u16(0) != 1 || u16(2) != 0x0800 || b[4] != 6 || b[5] != 4) {
    throw CodecError("unsupported ARP hardware/protocol type");
  }
  std::uint16_t op = u16(6);
  if (op != 1 && op != 2) {
    throw CodecError("unknown ARP op " + std::to_string(op));
  }
  ArpPacket p;
  p.op = static_cast<ArpOp>(op);
  std::copy(b + 8, b + 14, p.sender_mac.octets.begin());
  p.sender_ip.value = u32(14);
  std::copy(b + 18, b + 24, p.target_mac.octets.begin());
  p.target_ip.value = u32(24);
  return p;
}

bool ArpPacket::PeekAddresses(ByteSpan wire, Ipv4Address* sender,
                              Ipv4Address* target) {
  if (wire.size() < kArpPacketSize) return false;
  const std::uint8_t* b = wire.data();
  auto u32 = [b](std::size_t at) {
    return static_cast<std::uint32_t>(b[at]) << 24 |
           static_cast<std::uint32_t>(b[at + 1]) << 16 |
           static_cast<std::uint32_t>(b[at + 2]) << 8 | b[at + 3];
  };
  sender->value = u32(14);
  target->value = u32(24);
  return true;
}

Bytes Ipv4Packet::Encode() const {
  ByteWriter w(WireSize());
  EncodeInto(w);
  return w.Take();
}

void Ipv4Header::EncodeHeader(ByteWriter& w, std::size_t payload_size) const {
  // Assembled on the stack: the checksum runs over it in place and the
  // frame gets one append.
  std::uint8_t h[kIpv4HeaderSize] = {};
  h[0] = 0x45;  // version 4, IHL 5; h[1] DSCP/ECN
  StoreU16(h + 2, static_cast<std::uint16_t>(kIpv4HeaderSize + payload_size));
  // h[4..5] identification (fragmentation unsupported)
  StoreU16(h + 6, 0x4000);  // flags: DF
  h[8] = ttl;
  h[9] = static_cast<std::uint8_t>(proto);
  // h[10..11] checksum, zero while it is computed
  StoreU32(h + 12, src.value);
  StoreU32(h + 16, dst.value);
  StoreU16(h + 10, InternetChecksum(ByteSpan(h, kIpv4HeaderSize)));
  w.PutBytes(h, kIpv4HeaderSize);
}

void Ipv4Packet::EncodeInto(ByteWriter& w) const {
  EncodeHeader(w, payload.size());
  w.PutBytes(payload);
}

Ipv4View Ipv4Packet::View() const {
  return Ipv4View{{*this}, payload};
}

Ipv4View Ipv4View::Parse(ByteSpan wire) {
  if (wire.size() < kIpv4HeaderSize) {
    throw CodecError("IPv4 packet shorter than header");
  }
  if (InternetChecksum(wire.subspan(0, kIpv4HeaderSize)) != 0) {
    throw CodecError("IPv4 header checksum mismatch");
  }
  ByteReader r(wire);
  Ipv4View p;
  std::uint8_t vihl = r.GetU8();
  if (vihl != 0x45) {
    throw CodecError("unsupported IPv4 version/IHL");
  }
  r.Skip(1);  // DSCP/ECN
  std::uint16_t total_len = r.GetU16();
  if (total_len < kIpv4HeaderSize || total_len > wire.size()) {
    throw CodecError("IPv4 total length out of range");
  }
  r.Skip(2);  // identification
  r.Skip(2);  // flags/fragment offset
  p.ttl = r.GetU8();
  std::uint8_t proto = r.GetU8();
  if (proto != static_cast<std::uint8_t>(IpProto::kTcp) &&
      proto != static_cast<std::uint8_t>(IpProto::kUdp)) {
    throw CodecError("unsupported IP protocol " + std::to_string(proto));
  }
  p.proto = static_cast<IpProto>(proto);
  r.Skip(2);  // checksum (verified above)
  p.src.value = r.GetU32();
  p.dst.value = r.GetU32();
  p.payload = r.GetSpan(total_len - kIpv4HeaderSize);
  return p;
}

Bytes UdpDatagram::Encode() const {
  ByteWriter w(kUdpHeaderSize + payload.size());
  w.PutU16(src_port);
  w.PutU16(dst_port);
  w.PutU16(static_cast<std::uint16_t>(kUdpHeaderSize + payload.size()));
  w.PutU16(0);  // checksum optional in IPv4 UDP
  w.PutBytes(payload);
  return w.Take();
}

UdpDatagram UdpDatagram::Decode(ByteSpan wire) {
  ByteReader r(wire);
  UdpDatagram d;
  d.src_port = r.GetU16();
  d.dst_port = r.GetU16();
  std::uint16_t len = r.GetU16();
  if (len < kUdpHeaderSize || len > wire.size()) {
    throw CodecError("UDP length out of range");
  }
  r.Skip(2);  // checksum
  d.payload = r.GetBytes(len - kUdpHeaderSize);
  return d;
}

}  // namespace cruz::net
