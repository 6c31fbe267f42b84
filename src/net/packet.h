// Wire formats for the simulated network: Ethernet, ARP, IPv4, UDP.
//
// Frames really are serialized to bytes on transmit and parsed on receive;
// the simulation moves byte buffers, not object graphs, so header sizes,
// truncation handling, and protocol demux behave like a real stack. The TCP
// segment codec lives in src/tcp/segment.h.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/bytes.h"
#include "net/address.h"

namespace cruz::net {

// EtherType values (IEEE registry subset).
enum class EtherType : std::uint16_t {
  kIpv4 = 0x0800,
  kArp = 0x0806,
};

// IPv4 protocol numbers (IANA subset).
enum class IpProto : std::uint8_t {
  kTcp = 6,
  kUdp = 17,
};

constexpr std::size_t kEthernetHeaderSize = 14;
constexpr std::size_t kArpPacketSize = 28;  // Ethernet/IPv4 ARP body
constexpr std::size_t kIpv4HeaderSize = 20;
constexpr std::size_t kUdpHeaderSize = 8;
// Ethernet payload MTU; the simulated e1000 uses the standard 1500.
constexpr std::size_t kEthernetMtu = 1500;

struct EthernetFrame {
  MacAddress dst;
  MacAddress src;
  EtherType ether_type = EtherType::kIpv4;
  Bytes payload;

  Bytes Encode() const;
  static EthernetFrame Decode(ByteSpan wire);

  // Appends just the 14-byte header to `w`. The transmit hot path streams
  // the L3 packet directly after it into one buffer, skipping the
  // intermediate per-layer payload copy that Encode() implies.
  static void EncodeHeader(ByteWriter& w, MacAddress dst, MacAddress src,
                           EtherType ether_type);

  std::size_t WireSize() const { return kEthernetHeaderSize + payload.size(); }

  // The EtherType of a raw frame, read in place so receivers can hand the
  // L3 decoder `wire.subspan(kEthernetHeaderSize)` without copying the
  // payload. nullopt for a runt (shorter than the header) or an EtherType
  // this stack does not speak; Decode() throws for the same frames.
  static std::optional<EtherType> PeekEtherType(ByteSpan wire);
};

enum class ArpOp : std::uint16_t {
  kRequest = 1,
  kReply = 2,
};

struct ArpPacket {
  ArpOp op = ArpOp::kRequest;
  MacAddress sender_mac;
  Ipv4Address sender_ip;
  MacAddress target_mac;  // ignored in requests
  Ipv4Address target_ip;

  Bytes Encode() const;
  // Appends the kArpPacketSize-byte body to `w`; Encode() is this on a
  // fresh buffer.
  void EncodeInto(ByteWriter& w) const;
  static ArpPacket Decode(ByteSpan wire);

  // Reads the sender and target protocol addresses of an encoded body in
  // place, without checking its type fields; false for a truncated body.
  static bool PeekAddresses(ByteSpan wire, Ipv4Address* sender,
                            Ipv4Address* target);

  // A gratuitous ARP announces (ip, mac) to update caches after migration.
  bool IsGratuitous() const { return sender_ip == target_ip; }
};

// The IPv4 header fields this stack reads and writes; what netfilter
// rules match on.
struct Ipv4Header {
  Ipv4Address src;
  Ipv4Address dst;
  IpProto proto = IpProto::kUdp;
  std::uint8_t ttl = 64;

  // Appends the 20-byte header of a packet carrying `payload_size` bytes.
  // The TCP output path follows it with the segment, written in place.
  void EncodeHeader(ByteWriter& w, std::size_t payload_size) const;
};

struct Ipv4View;

// A packet that owns its payload: one that outlives the call that made
// it (loopback delivery, the ARP-pending queue) or that was built whole
// (UDP, control traffic).
struct Ipv4Packet : Ipv4Header {
  Bytes payload;

  Bytes Encode() const;
  // Appends the encoded packet (header + payload) to `w`; Encode() is
  // this on a fresh buffer.
  void EncodeInto(ByteWriter& w) const;
  Ipv4View View() const;

  std::size_t WireSize() const { return kIpv4HeaderSize + payload.size(); }
};

// A packet parsed in place: the header fields and a view of the payload
// inside the received frame, so the receive path copies nothing to demux.
struct Ipv4View : Ipv4Header {
  ByteSpan payload;

  // Checks the header (length, checksum, version/IHL, total length,
  // protocol) and throws CodecError on any mismatch. Copies nothing.
  static Ipv4View Parse(ByteSpan wire);
};

struct UdpDatagram {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  Bytes payload;

  Bytes Encode() const;
  static UdpDatagram Decode(ByteSpan wire);
};

// Internet checksum (RFC 1071) over `data`, used by the IPv4 header.
std::uint16_t InternetChecksum(ByteSpan data);

}  // namespace cruz::net
