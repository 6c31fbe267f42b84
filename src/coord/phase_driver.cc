#include "coord/phase_driver.h"

#include <algorithm>

#include "ckpt/store/tiered_store.h"
#include "common/error.h"
#include "common/sysresult.h"
#include "sim/simulator.h"

namespace cruz::coord {

const PhaseDriver::Wire PhaseDriver::kAgents{
    .checkpoint = MsgType::kCheckpoint,
    .restart = MsgType::kRestart,
    .cont = MsgType::kContinue,
    .abort = MsgType::kAbort,
    .done = MsgType::kDone,
    .continue_done = MsgType::kContinueDone,
    .comm_disabled = MsgType::kCommDisabled,
    .failed = MsgType::kFailed,
    .pong = MsgType::kPong,
    .port = kAgentPort,
    .roster = false,
    .failed_noun = "member",
    .silent_noun = "agent",
};

const PhaseDriver::Wire PhaseDriver::kShards{
    .checkpoint = MsgType::kShardCheckpoint,
    .restart = MsgType::kShardRestart,
    .cont = MsgType::kShardContinue,
    .abort = MsgType::kShardAbort,
    .done = MsgType::kShardDone,
    .continue_done = MsgType::kShardContinueDone,
    .comm_disabled = MsgType::kShardCommDisabled,
    .failed = MsgType::kShardFailed,
    .pong = MsgType::kShardPong,
    .port = kShardPort,
    .roster = true,
    .failed_noun = "shard",
    .silent_noun = "shard",
};

PhaseDriver::PhaseDriver(os::Node& node, ckpt::TieredStore& store,
                         Hooks hooks)
    : node_(node), store_(store), hooks_(std::move(hooks)) {}

PhaseDriver::~PhaseDriver() { Stop(); }

void PhaseDriver::Begin(CoordMessage request,
                        std::vector<ShardMember> members,
                        std::uint32_t fan_out, Retransmit retransmit) {
  Stop();
  request_ = std::move(request);
  members_ = std::move(members);
  fan_out_ = fan_out;
  wire_ = fan_out > 0 ? &kShards : &kAgents;
  retransmit_ = retransmit;
  endpoints_.clear();
  by_ip_.clear();
  // Depth 1: every member is its own endpoint. Depth 2: contiguous shards
  // of ≤ fan_out members, each driven by the sub-coordinator on the
  // shard's first node.
  const std::size_t width = fan_out > 0 ? fan_out : 1;
  for (std::size_t first = 0; first < members_.size(); first += width) {
    Endpoint ep;
    ep.ip = net::Ipv4Address{members_[first].agent_ip};
    ep.pod = fan_out > 0 ? os::kNoPod : members_[first].pod;
    ep.first = first;
    ep.count = std::min(width, members_.size() - first);
    CRUZ_CHECK(by_ip_.emplace(ep.ip.value, endpoints_.size()).second,
               "two endpoints of one exchange on the same node");
    endpoints_.push_back(std::move(ep));
  }
  done_owed_ = continue_done_owed_ = comm_disabled_owed_ = endpoints_.size();
  continue_sent_ = false;
  max_local_ = max_downtime_ = max_continue_ = 0;
  retransmits_ = aborts_ = 0;
  interval_now_ = retransmit_.interval;
  rounds_ = 0;
}

void PhaseDriver::Start() {
  for (const Endpoint& ep : endpoints_) SendRequest(ep);
  ScheduleRetransmit();
}

void PhaseDriver::Stop() {
  if (retransmit_event_ != sim::kInvalidEventId) {
    node_.os().sim().Cancel(retransmit_event_);
    retransmit_event_ = sim::kInvalidEventId;
  }
}

std::uint32_t PhaseDriver::max_fanout() const {
  std::size_t widest = endpoints_.size();
  for (const Endpoint& ep : endpoints_) widest = std::max(widest, ep.count);
  return static_cast<std::uint32_t>(widest);
}

std::uint32_t PhaseDriver::reported_messages() const {
  std::uint32_t total = 0;
  for (const Endpoint& ep : endpoints_) total += ep.messages;
  return total;
}

CoordMessage PhaseDriver::Message(MsgType type, os::PodId pod) const {
  CoordMessage m;
  m.type = type;
  m.op_id = request_.op_id;
  m.epoch = request_.epoch;
  m.pod_id = pod;
  return m;
}

void PhaseDriver::SendRequest(const Endpoint& ep) {
  CoordMessage m = request_;
  m.type = is_restart() ? wire_->restart : wire_->checkpoint;
  m.pod_id = ep.pod;
  if (wire_->roster) {
    for (std::size_t i = ep.first; i < ep.first + ep.count; ++i) {
      ShardMember sm;
      sm.agent_ip = members_[i].agent_ip;
      sm.pod = members_[i].pod;
      sm.image_path = members_[i].image_path;
      m.shard_members.push_back(std::move(sm));
    }
  } else {
    m.image_path = members_[ep.first].image_path;
    m.op_timeout = 0;  // agents have no use for the deadline
  }
  hooks_.send(ep.ip, wire_->port, std::move(m));
}

void PhaseDriver::SendContinue(const Endpoint& ep) {
  CoordMessage m = Message(wire_->cont, ep.pod);
  m.variant = request_.variant;
  hooks_.send(ep.ip, wire_->port, std::move(m));
}

void PhaseDriver::BroadcastContinue(int copies) {
  if (continue_sent_) return;
  continue_sent_ = true;
  for (int c = 0; c < copies; ++c) {
    for (const Endpoint& ep : endpoints_) SendContinue(ep);
  }
}

void PhaseDriver::OnReply(net::Ipv4Address from, const CoordMessage& m) {
  // A member that cannot perform its local part (unknown pod, image I/O
  // error, a sub that gave up on its shard) means the op can never
  // complete: the owner aborts now rather than waiting out the timeout.
  if (m.type == wire_->failed) {
    hooks_.on_failed(from, m.pod_id);
    return;
  }
  auto it = by_ip_.find(from.value);
  if (it == by_ip_.end()) return;
  Endpoint& ep = endpoints_[it->second];
  if (m.type == wire_->comm_disabled) {
    // Fig. 4: once communication is disabled everywhere, no node's saved
    // state can be perturbed by any other — early resume is safe.
    if (request_.variant != ProtocolVariant::kOptimized ||
        !ep.owes_comm_disabled) {
      return;
    }
    ep.owes_comm_disabled = false;
    if (--comm_disabled_owed_ == 0) hooks_.on_comm_disabled();
  } else if (m.type == wire_->done) {
    OnDone(ep, m);
  } else if (m.type == wire_->continue_done) {
    if (!ep.owes_continue_done) return;
    ep.owes_continue_done = false;
    max_continue_ = std::max(max_continue_, m.local_duration);
    ep.messages = std::max(ep.messages, m.extra_messages);
    if (--continue_done_owed_ == 0) hooks_.on_continue_done();
  }
}

void PhaseDriver::OnDone(Endpoint& ep, const CoordMessage& m) {
  if (!ep.owes_done) return;  // duplicate, or re-sent after settling
  // Reported counts are cumulative, so keeping the high-water mark keeps
  // the total exact under re-sent, duplicated or reordered replies.
  ep.messages = std::max(ep.messages, m.extra_messages);
  max_local_ = std::max(max_local_, m.local_duration);
  max_downtime_ = std::max(max_downtime_, m.downtime);
  // Remember where each member's image landed (feeds the generation
  // manifest) and which tier served its restore.
  if (wire_->roster) {
    for (const ShardMember& sm : m.shard_members) {
      for (std::size_t i = ep.first; i < ep.first + ep.count; ++i) {
        if (members_[i].agent_ip == sm.agent_ip) {
          members_[i].replicas = sm.replicas;
          members_[i].restore_source = sm.restore_source;
          break;
        }
      }
      ep.reported.insert(sm.agent_ip);
    }
    // A tiered <shard-done> may arrive in roster fragments: the shard
    // settles once member_total distinct member reports are in.
    if (ep.reported.size() < m.member_total) return;
  } else {
    members_[ep.first].replicas = m.replicas;
    members_[ep.first].restore_source = m.restore_source;
  }
  ep.owes_done = false;
  if (--done_owed_ == 0) hooks_.on_done();
}

std::size_t PhaseDriver::Abort() {
  // At depth 2 abort the sub-coordinators (they fence and clean their
  // shards) AND every agent directly: a crashed sub must not be able to
  // leave its shard frozen behind a dead op.
  if (wire_->roster) {
    for (const Endpoint& ep : endpoints_) {
      ++aborts_;
      hooks_.send(ep.ip, wire_->port, Message(wire_->abort, os::kNoPod));
    }
  }
  for (const ShardMember& member : members_) {
    ++aborts_;
    hooks_.send(net::Ipv4Address{member.agent_ip}, kAgentPort,
                Message(MsgType::kAbort, member.pod));
  }
  // Aborted checkpoints must not leak partial images on any tier. The
  // agents delete their own images too; this covers members whose agent
  // is dead or was never reached.
  if (is_restart()) return 0;
  std::size_t removed = 0;
  for (const ShardMember& member : members_) {
    if (!member.image_path.empty() &&
        store_.RemoveEverywhere(member.image_path) > 0) {
      ++removed;
    }
  }
  return removed;
}

void PhaseDriver::ScheduleRetransmit() {
  if (retransmit_.interval == 0) return;
  // Jitter the interval ±25% (seeded: the simulator RNG) so retransmit
  // rounds from concurrent coordinators cannot stay synchronized.
  DurationNs base = interval_now_;
  DurationNs jittered =
      base - base / 4 + node_.os().sim().rng().NextBelow(base / 2 + 1);
  retransmit_event_ = node_.os().sim().Schedule(jittered, [this] {
    retransmit_event_ = sim::kInvalidEventId;
    if (owes_done() || (continue_sent_ && owes_continue_done())) {
      ++rounds_;
      if (retransmit_.max_rounds != 0 && rounds_ > retransmit_.max_rounds) {
        hooks_.on_retry_cap();
        return;
      }
      RetransmitPending();
      interval_now_ =
          std::min(interval_now_ * kRetransmitBackoff,
                   kRetransmitMaxIntervalFactor * retransmit_.interval);
    } else {
      // Nothing is owed to us: we are waiting on our own coordinator
      // (whose retransmits heal a lost upward reply), so the round cap
      // must not tick.
      rounds_ = 0;
      interval_now_ = retransmit_.interval;
    }
    ScheduleRetransmit();
  });
}

void PhaseDriver::RetransmitPending() {
  // Re-send the phase-appropriate request to every endpoint that has not
  // answered it. Receivers deduplicate by op id and answer a request they
  // already served from their reply cache.
  for (const Endpoint& ep : endpoints_) {
    if (ep.owes_done) {
      NoteRetransmit(is_restart() ? wire_->restart
                                         : wire_->checkpoint);
      SendRequest(ep);
    } else if (continue_sent_ && ep.owes_continue_done) {
      NoteRetransmit(wire_->cont);
      SendContinue(ep);
    }
  }
}

void PhaseDriver::NoteRetransmit(MsgType type) {
  ++retransmits_;
  node_.os().sim().tracer().Instant(
      "coord", "coord.retransmit",
      obs::TraceAttrs{}.Op(request_.op_id).Agent(node_.name()).Arg(
          "type", MsgTypeName(type)));
  node_.os().sim().metrics().counter("coord.retransmits_total").Add();
}

}  // namespace cruz::coord
