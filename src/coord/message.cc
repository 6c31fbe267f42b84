#include "coord/message.h"

#include <string_view>

#include "common/error.h"
#include "fault/fault.h"
#include "os/node.h"
#include "sim/simulator.h"

namespace cruz::coord {

const char* MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kCheckpoint: return "checkpoint";
    case MsgType::kDone: return "done";
    case MsgType::kContinue: return "continue";
    case MsgType::kContinueDone: return "continue-done";
    case MsgType::kRestart: return "restart";
    case MsgType::kAbort: return "abort";
    case MsgType::kCommDisabled: return "comm-disabled";
    case MsgType::kFailed: return "failed";
    case MsgType::kPing: return "ping";
    case MsgType::kPong: return "pong";
    case MsgType::kShardCheckpoint: return "shard-checkpoint";
    case MsgType::kShardRestart: return "shard-restart";
    case MsgType::kShardContinue: return "shard-continue";
    case MsgType::kShardAbort: return "shard-abort";
    case MsgType::kShardDone: return "shard-done";
    case MsgType::kShardContinueDone: return "shard-continue-done";
    case MsgType::kShardCommDisabled: return "shard-comm-disabled";
    case MsgType::kShardFailed: return "shard-failed";
    case MsgType::kShardPong: return "shard-pong";
    case MsgType::kPageRequest: return "page-request";
    case MsgType::kPageResponse: return "page-response";
  }
  return "unknown";
}

std::string CorrId(const CoordMessage& m, const std::string& sender) {
  return std::to_string(m.op_id) + ":" + MsgTypeName(m.type) + ":" +
         sender + ":" + std::to_string(m.corr_seq);
}

namespace {

// The message's one field list (see FieldRef in common/bytes.h).
template <typename Io>
void Fields(Io& io, cruz::FieldRef<Io, CoordMessage> m) {
  // Every u8 is a valid MsgType object; the ones without a name (0, the
  // retired 8 and 9, past the last type) are not on the protocol.
  io.Enum(m.type,
          [](MsgType t) {
            return std::string_view(MsgTypeName(t)) != "unknown";
          },
          "invalid coordination message type");
  io.U64(m.op_id);
  io.U64(m.epoch);
  io.U32(m.pod_id);
  io.Enum(m.variant,
          [](ProtocolVariant v) { return v <= ProtocolVariant::kOptimized; },
          "invalid protocol variant");
  io.String(m.image_path);
  io.Bool(m.incremental);
  io.Bool(m.copy_on_write);
  io.Bool(m.compress);
  io.U64(m.local_duration);
  io.U64(m.downtime);
  io.U32(m.extra_messages);
  // Two retired u32 fields stay on the wire as zeros: the NIC and the
  // switch charge transmit time per byte, so a shorter datagram would
  // shift every simulated timing. Shrinking it is a recalibration of its
  // own, together with modelling contended transfers. Written from a
  // zero, read into a scratch value.
  std::uint32_t retired = 0;
  io.U32(retired);
  io.U32(m.corr_seq);
  io.U32(retired);
  io.Bool(m.tiered);
  io.U8(m.restore_source);
  io.Seq(m.replicas, [&](auto& rep) { ckpt::Fields(io, rep); });
  io.Seq(m.shard_members, [&](auto& sm) { coord::Fields(io, sm); });
  io.U64(m.op_timeout);
  io.U32(m.member_total);
}

}  // namespace

cruz::Bytes CoordMessage::Encode() const {
  cruz::ByteCounter size;
  Fields(size, *this);
  cruz::ByteWriter w(size.size());
  Fields(w, *this);
  return w.Take();
}

CoordMessage CoordMessage::Decode(cruz::ByteSpan wire) {
  cruz::ByteReader r(wire);
  CoordMessage m;
  Fields(r, m);
  return m;
}

std::vector<CoordMessage> FragmentRoster(const CoordMessage& full) {
  std::vector<CoordMessage> out;
  if (full.shard_members.empty()) {
    out.push_back(full);
    return out;
  }
  // Greedy byte-budget packing: a member costs what its field list
  // encodes to; 1200 bytes of roster leaves ample room for the fixed
  // message fields under the 1500-byte MTU. A single member always fits.
  constexpr std::size_t kRosterBytesPerDatagram = 1200;
  const std::uint32_t total =
      static_cast<std::uint32_t>(full.shard_members.size());
  std::size_t i = 0;
  while (i < full.shard_members.size()) {
    CoordMessage frag = full;
    frag.shard_members.clear();
    frag.member_total = total;
    std::size_t bytes = 0;
    while (i < full.shard_members.size()) {
      const ShardMember& sm = full.shard_members[i];
      cruz::ByteCounter cost;
      Fields(cost, sm);
      if (!frag.shard_members.empty() &&
          bytes + cost.size() > kRosterBytesPerDatagram) {
        break;
      }
      bytes += cost.size();
      frag.shard_members.push_back(sm);
      ++i;
    }
    out.push_back(std::move(frag));
  }
  return out;
}

ControlPort::ControlPort(os::Node& node, std::string category,
                         std::uint16_t port, const char* sent_metric,
                         Handler handler)
    : node_(node),
      category_(std::move(category)),
      port_(port),
      sent_metric_(sent_metric),
      handler_(std::move(handler)) {
  node_.stack().RegisterUdpService(
      port_, [this](net::Endpoint from, const cruz::Bytes& payload) {
        OnDatagram(from, payload);
      });
}

ControlPort::~ControlPort() { node_.stack().UnregisterUdpService(port_); }

void ControlPort::Send(net::Endpoint to, CoordMessage m,
                       os::PodId trace_pod) {
  m.corr_seq = ++next_corr_seq_;
  node_.os().sim().tracer().Instant(
      category_, category_ + ".msg.send",
      obs::TraceAttrs{}
          .Op(m.op_id)
          .Agent(node_.name())
          .Pod(trace_pod)
          .Arg("type", MsgTypeName(m.type))
          .Arg("corr", CorrId(m, node_.ip().ToString()))
          .Arg("dst", to.ip.ToString()));
  if (sent_metric_ != nullptr) {
    node_.os().sim().metrics().counter(sent_metric_).Add();
  }

  fault::MessageFate fate;
  if (fault_ != nullptr) {
    fate = fault_->OnControlSend(node_.name(), to.ip.value,
                                 static_cast<std::uint8_t>(m.type));
  }
  if (fate.drop) return;  // lost on the wire; retransmission recovers

  net::UdpDatagram dgram;
  dgram.src_port = port_;
  dgram.dst_port = to.port;
  dgram.payload = m.Encode();
  net::Ipv4Packet pkt;
  pkt.src = node_.ip();
  pkt.dst = to.ip;
  pkt.proto = net::IpProto::kUdp;
  pkt.payload = dgram.Encode();
  int copies = fate.duplicate ? 2 : 1;
  for (int i = 0; i < copies; ++i) {
    if (fate.delay > 0) {
      // Capture the stack, not the port: the delayed copy must still go
      // out (or at least not crash) if the sending process dies first.
      os::NetworkStack* stack = &node_.stack();
      node_.os().sim().Schedule(fate.delay,
                                [stack, pkt] { stack->SendIpv4(pkt); });
    } else {
      node_.stack().SendIpv4(pkt);
    }
  }
}

void ControlPort::OnDatagram(net::Endpoint from,
                             const cruz::Bytes& payload) {
  if (deaf_) return;  // a dead process hears nothing
  CoordMessage m;
  try {
    m = CoordMessage::Decode(payload);
  } catch (const cruz::CodecError&) {
    return;
  }
  // Recorded before the owner looks at op liveness: a reply for a
  // finished op is still a real delivery, and the causal analyzer needs
  // its endpoint.
  obs::TraceAttrs attrs;
  attrs.Op(m.op_id).Agent(node_.name()).Arg("type", MsgTypeName(m.type));
  if (m.corr_seq != 0) attrs.Arg("corr", CorrId(m, from.ip.ToString()));
  attrs.Arg("src", from.ip.ToString());
  node_.os().sim().tracer().Instant(category_, category_ + ".msg.recv",
                                    std::move(attrs));
  handler_(from, m);
}

}  // namespace cruz::coord
