#include "tcp/segment.h"

#include <atomic>

#include "common/error.h"
#include "tcp/state.h"

namespace cruz::tcp {

const char* TcpStateName(TcpState s) {
  switch (s) {
    case TcpState::kClosed: return "CLOSED";
    case TcpState::kListen: return "LISTEN";
    case TcpState::kSynSent: return "SYN_SENT";
    case TcpState::kSynReceived: return "SYN_RCVD";
    case TcpState::kEstablished: return "ESTABLISHED";
    case TcpState::kFinWait1: return "FIN_WAIT_1";
    case TcpState::kFinWait2: return "FIN_WAIT_2";
    case TcpState::kCloseWait: return "CLOSE_WAIT";
    case TcpState::kClosing: return "CLOSING";
    case TcpState::kLastAck: return "LAST_ACK";
    case TcpState::kTimeWait: return "TIME_WAIT";
  }
  return "?";
}

namespace {
std::atomic<std::uint64_t> g_payload_copied{0};
std::atomic<std::uint64_t> g_payload_delivered{0};

constexpr std::uint8_t kFlagFin = 0x01;
constexpr std::uint8_t kFlagSyn = 0x02;
constexpr std::uint8_t kFlagRst = 0x04;
constexpr std::uint8_t kFlagPsh = 0x08;
constexpr std::uint8_t kFlagAck = 0x10;
}  // namespace

std::uint64_t TcpPayloadBytesCopiedTotal() {
  return g_payload_copied.load(std::memory_order_relaxed);
}

std::uint64_t TcpPayloadBytesDeliveredTotal() {
  return g_payload_delivered.load(std::memory_order_relaxed);
}

void CountTcpPayloadCopy(std::size_t bytes) {
  g_payload_copied.fetch_add(bytes, std::memory_order_relaxed);
}

void CountTcpPayloadDelivered(std::size_t bytes) {
  g_payload_delivered.fetch_add(bytes, std::memory_order_relaxed);
}

cruz::Bytes TcpSegment::Encode() const {
  cruz::ByteWriter w(WireSize());
  EncodeInto(w);
  return w.Take();
}

void TcpSegment::EncodeInto(cruz::ByteWriter& w) const {
  // The header is assembled on the stack and appended in one piece.
  std::uint8_t h[kTcpHeaderSize + kTcpMssOptionSize] = {};
  cruz::StoreU16(h, src_port);
  cruz::StoreU16(h + 2, dst_port);
  cruz::StoreU32(h + 4, seq);
  cruz::StoreU32(h + 8, ack);
  // Data offset in 32-bit words (5 without options, 6 with MSS option).
  h[12] = static_cast<std::uint8_t>((mss_option ? 6 : 5) << 4);
  std::uint8_t flags = 0;
  if (fin) flags |= kFlagFin;
  if (syn) flags |= kFlagSyn;
  if (rst) flags |= kFlagRst;
  if (psh) flags |= kFlagPsh;
  if (ack_flag) flags |= kFlagAck;
  h[13] = flags;
  cruz::StoreU16(h + 14, window);
  // h[16..19]: checksum (covered by the simulated IP layer) and urgent
  // pointer (unused).
  if (mss_option) {
    h[20] = 2;  // kind: MSS
    h[21] = 4;  // length
    cruz::StoreU16(h + 22, mss_option);
  }
  w.PutBytes(h, mss_option ? kTcpHeaderSize + kTcpMssOptionSize
                           : kTcpHeaderSize);
  w.PutBytes(payload);
  CountTcpPayloadCopy(payload.size());
}

TcpSegment TcpSegment::Decode(cruz::ByteSpan wire) {
  cruz::ByteReader r(wire);
  TcpSegment s;
  s.src_port = r.GetU16();
  s.dst_port = r.GetU16();
  s.seq = r.GetU32();
  s.ack = r.GetU32();
  std::uint8_t data_offset = static_cast<std::uint8_t>(r.GetU8() >> 4);
  if (data_offset < 5) {
    throw cruz::CodecError("TCP data offset below minimum");
  }
  std::size_t header_bytes = static_cast<std::size_t>(data_offset) * 4;
  if (header_bytes > wire.size()) {
    throw cruz::CodecError("TCP header longer than segment");
  }
  std::uint8_t flags = r.GetU8();
  s.fin = flags & kFlagFin;
  s.syn = flags & kFlagSyn;
  s.rst = flags & kFlagRst;
  s.psh = flags & kFlagPsh;
  s.ack_flag = flags & kFlagAck;
  s.window = r.GetU16();
  r.Skip(2);  // checksum
  r.Skip(2);  // urgent pointer
  // Parse options (only MSS is understood; others are skipped).
  std::size_t options_end = header_bytes;
  while (r.pos() < options_end) {
    std::uint8_t kind = r.GetU8();
    if (kind == 0) break;      // end of options
    if (kind == 1) continue;   // NOP
    std::uint8_t len = r.GetU8();
    if (len < 2 || r.pos() + (len - 2) > options_end) {
      throw cruz::CodecError("malformed TCP option");
    }
    if (kind == 2 && len == 4) {
      s.mss_option = r.GetU16();
    } else {
      r.Skip(static_cast<std::size_t>(len) - 2);
    }
  }
  if (r.pos() < options_end) r.Skip(options_end - r.pos());
  s.payload = r.GetSpan(r.remaining());
  return s;
}

std::string TcpSegment::ToString() const {
  std::string flags;
  if (syn) flags += "SYN,";
  if (ack_flag) flags += "ACK,";
  if (fin) flags += "FIN,";
  if (rst) flags += "RST,";
  if (psh) flags += "PSH,";
  if (!flags.empty()) flags.pop_back();
  return "[" + flags + " seq=" + std::to_string(seq) +
         " ack=" + std::to_string(ack) +
         " len=" + std::to_string(payload.size()) +
         " win=" + std::to_string(window) + "]";
}

}  // namespace cruz::tcp
