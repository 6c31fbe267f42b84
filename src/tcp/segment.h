// TCP segment wire format.
//
// A 20-byte fixed header plus an optional MSS option (on SYN segments),
// matching the classic layout (RFC 793). Checksums are carried by the
// simulated IPv4 layer; the TCP checksum field is reserved-zero here.
//
// A segment is a header plus a view of its payload: on output the view
// is the sealed send-buffer segment and EncodeInto writes it straight
// into the frame; on input Decode leaves it pointing into the received
// frame, and the receive buffer's insert is the one copy.
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "tcp/seq.h"

namespace cruz::tcp {

constexpr std::size_t kTcpHeaderSize = 20;
constexpr std::size_t kTcpMssOptionSize = 4;

struct TcpSegment {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  Seq seq = 0;
  Seq ack = 0;
  bool syn = false;
  bool ack_flag = false;
  bool fin = false;
  bool rst = false;
  bool psh = false;
  std::uint16_t window = 0;
  std::uint16_t mss_option = 0;  // 0 = option absent; only valid with syn
  // Not owned: a segment must not outlive the bytes it was made from.
  cruz::ByteSpan payload;

  // Sequence space this segment occupies (payload + SYN/FIN flags).
  std::uint32_t SeqLen() const {
    return static_cast<std::uint32_t>(payload.size()) + (syn ? 1u : 0u) +
           (fin ? 1u : 0u);
  }
  Seq SeqEnd() const { return seq + SeqLen(); }

  std::size_t WireSize() const {
    return kTcpHeaderSize + (mss_option ? kTcpMssOptionSize : 0) +
           payload.size();
  }

  cruz::Bytes Encode() const;
  // Appends header and payload to `w`; Encode() is this on a fresh
  // buffer.
  void EncodeInto(cruz::ByteWriter& w) const;
  // Parses `wire` in place: the payload is a view into it.
  static TcpSegment Decode(cruz::ByteSpan wire);

  // Compact human-readable form for logs: "[SYN,ACK seq=1 ack=2 len=0]".
  std::string ToString() const;
};

// Host-side work counters for the TCP data path, like
// os::MemoryBytesCopiedTotal(): they never enter a trace or an export.
// Copied counts every payload byte memcpy'd on the way from one
// application's memory to another's (send-buffer fill, frame write,
// receive-buffer insert, delivery to the reader); delivered counts the
// bytes applications consumed. Their ratio is the copy passes per byte.
std::uint64_t TcpPayloadBytesCopiedTotal();
std::uint64_t TcpPayloadBytesDeliveredTotal();
void CountTcpPayloadCopy(std::size_t bytes);
void CountTcpPayloadDelivered(std::size_t bytes);

}  // namespace cruz::tcp
