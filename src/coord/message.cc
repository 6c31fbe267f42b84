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

namespace {

void PutReplicas(cruz::ByteWriter& w,
                 const std::vector<ckpt::Replica>& replicas) {
  w.PutU32(static_cast<std::uint32_t>(replicas.size()));
  for (const ckpt::Replica& rep : replicas) {
    w.PutU8(static_cast<std::uint8_t>(rep.tier));
    w.PutU32(rep.node_index);
    w.PutU64(rep.size);
    w.PutU32(rep.crc32);
  }
}

std::vector<ckpt::Replica> GetReplicas(cruz::ByteReader& r) {
  // Grow one entry at a time: a corrupt count must fail on the short read,
  // not on a huge up-front allocation.
  std::vector<ckpt::Replica> replicas;
  for (std::uint32_t n = r.GetU32(); n > 0; --n) {
    ckpt::Replica rep;
    rep.tier = static_cast<ckpt::Tier>(r.GetU8());
    rep.node_index = r.GetU32();
    rep.size = r.GetU64();
    rep.crc32 = r.GetU32();
    replicas.push_back(rep);
  }
  return replicas;
}

}  // namespace

std::string CorrId(const CoordMessage& m, const std::string& sender) {
  return std::to_string(m.op_id) + ":" + MsgTypeName(m.type) + ":" +
         sender + ":" + std::to_string(m.corr_seq);
}

cruz::Bytes CoordMessage::Encode() const {
  cruz::ByteWriter w;
  w.PutU8(static_cast<std::uint8_t>(type));
  w.PutU64(op_id);
  w.PutU64(epoch);
  w.PutU32(pod_id);
  w.PutU8(static_cast<std::uint8_t>(variant));
  w.PutString(image_path);
  w.PutBool(incremental);
  w.PutBool(copy_on_write);
  w.PutBool(compress);
  w.PutU64(local_duration);
  w.PutU64(downtime);
  w.PutU32(extra_messages);
  // Two retired u32 fields stay on the wire as zeros: the NIC and the
  // switch charge transmit time per byte, so a shorter datagram would
  // shift every simulated timing. Shrinking it is a recalibration of its
  // own, together with modelling contended transfers.
  w.PutU32(0);
  w.PutU32(corr_seq);
  w.PutU32(0);
  w.PutBool(tiered);
  w.PutU8(restore_source);
  PutReplicas(w, replicas);
  w.PutU32(static_cast<std::uint32_t>(shard_members.size()));
  for (const ShardMember& sm : shard_members) {
    w.PutU32(sm.agent_ip);
    w.PutU32(sm.pod);
    w.PutString(sm.image_path);
    w.PutU8(sm.restore_source);
    PutReplicas(w, sm.replicas);
  }
  w.PutU64(static_cast<std::uint64_t>(op_timeout));
  w.PutU32(member_total);
  return w.Take();
}

CoordMessage CoordMessage::Decode(cruz::ByteSpan wire) {
  cruz::ByteReader r(wire);
  CoordMessage m;
  // Every u8 is a valid MsgType object; the ones without a name (0, the
  // retired 8 and 9, past the last type) are not on the protocol.
  m.type = static_cast<MsgType>(r.GetU8());
  if (std::string_view(MsgTypeName(m.type)) == "unknown") {
    throw cruz::CodecError("invalid coordination message type");
  }
  m.op_id = r.GetU64();
  m.epoch = r.GetU64();
  m.pod_id = r.GetU32();
  std::uint8_t variant = r.GetU8();
  if (variant > static_cast<std::uint8_t>(ProtocolVariant::kOptimized)) {
    throw cruz::CodecError("invalid protocol variant");
  }
  m.variant = static_cast<ProtocolVariant>(variant);
  m.image_path = r.GetString();
  m.incremental = r.GetBool();
  m.copy_on_write = r.GetBool();
  m.compress = r.GetBool();
  m.local_duration = r.GetU64();
  m.downtime = r.GetU64();
  m.extra_messages = r.GetU32();
  r.GetU32();  // retired, written as zero
  m.corr_seq = r.GetU32();
  r.GetU32();  // retired, written as zero
  m.tiered = r.GetBool();
  m.restore_source = r.GetU8();
  m.replicas = GetReplicas(r);
  std::uint32_t members = r.GetU32();
  for (std::uint32_t i = 0; i < members; ++i) {
    ShardMember sm;
    sm.agent_ip = r.GetU32();
    sm.pod = r.GetU32();
    sm.image_path = r.GetString();
    sm.restore_source = r.GetU8();
    sm.replicas = GetReplicas(r);
    m.shard_members.push_back(sm);
  }
  m.op_timeout = static_cast<DurationNs>(r.GetU64());
  m.member_total = r.GetU32();
  return m;
}

std::vector<CoordMessage> FragmentRoster(const CoordMessage& full) {
  std::vector<CoordMessage> out;
  if (full.shard_members.empty()) {
    out.push_back(full);
    return out;
  }
  // Greedy byte-budget packing: per member the wire cost is ~17 bytes of
  // fixed fields plus the image path plus 17 per replica; 1200 bytes of
  // roster leaves ample room for the fixed message fields under the
  // 1500-byte MTU. A single member always fits.
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
      std::size_t cost =
          17 + sm.image_path.size() + 17 * sm.replicas.size();
      if (!frag.shard_members.empty() &&
          bytes + cost > kRosterBytesPerDatagram) {
        break;
      }
      bytes += cost;
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
