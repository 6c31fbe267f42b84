#include "coord/shard_coordinator.h"

#include <algorithm>

#include "ckpt/store/tiered_store.h"
#include "common/error.h"
#include "common/log.h"
#include "sim/simulator.h"

namespace cruz::coord {

namespace {
// Retransmission toward the shard's agents: faster than the root's
// defaults (the sub is one hop from its agents), with a round cap that
// turns a silent agent into a prompt <shard-failed> instead of letting
// the root eat its whole op timeout.
constexpr DurationNs kRetransmitInterval = 500 * kMillisecond;
constexpr std::uint32_t kMaxRetransmitRounds = 8;
// Self-clean margin past the root's op timeout: a shard orphaned by a
// dead root aborts itself shortly after the root would have given up.
constexpr DurationNs kSelfCleanSlack = 2 * kSecond;
}  // namespace

ShardCoordinator::ShardCoordinator(os::Node& node, ckpt::TieredStore& store)
    : node_(node),
      journal_(node.os().fs(), JournalPath()),
      store_(store),
      driver_(node, store,
              PhaseDriver::Hooks{
                  .send =
                      [this](net::Ipv4Address dst, std::uint16_t port,
                             CoordMessage m) {
                        ++op_.messages;
                        Send(net::Endpoint{dst, port}, std::move(m));
                      },
                  .on_comm_disabled = [this] { SendShardCommDisabled(); },
                  .on_done =
                      [this] {
                        SendShardDone(driver_.max_local(),
                                      driver_.max_downtime(),
                                      driver_.members());
                      },
                  .on_continue_done =
                      [this] {
                        if (driver_.continue_sent()) SendShardContinueDone();
                      },
                  .on_failed =
                      [this](net::Ipv4Address) {
                        AbortShardOp("member failed", /*notify_root=*/true);
                      },
                  .on_retry_cap =
                      [this] {
                        AbortShardOp("retry cap", /*notify_root=*/true);
                      },
              }) {
  node_.stack().RegisterUdpService(
      kShardPort, [this](net::Endpoint from, const cruz::Bytes& payload) {
        OnDatagram(from, payload);
      });
  RecoverFromJournal();
}

ShardCoordinator::~ShardCoordinator() {
  CancelTimers();
  node_.stack().UnregisterUdpService(kShardPort);
}

std::string ShardCoordinator::JournalPath() const {
  return "/coord/shard_journal_" + node_.name();
}

void ShardCoordinator::RecoverFromJournal() {
  IntentJournal::RecoveredState state = journal_.Recover();
  max_epoch_seen_ = std::max(max_epoch_seen_, state.last_epoch);
  if (!state.incomplete.has_value()) return;

  // A previous incarnation died driving this shard. Fence the agents
  // (they resume their pods and drop partial state) and reap whatever
  // images the interrupted checkpoint wrote, on every tier.
  const JournalRecord& intent = *state.incomplete;
  node_.os().sim().tracer().Instant(
      "coord", "coord.shard.recovery",
      obs::TraceAttrs{}.Op(intent.epoch).Agent(node_.name()).Arg(
          "kind", intent.is_restart ? "restart" : "checkpoint"));
  CRUZ_WARN("coord") << node_.name()
                     << ": shard journal recovery: aborting in-flight op "
                     << intent.epoch;
  last_aborted_op_ = std::max(last_aborted_op_, intent.epoch);
  AbortJournaledOp(journal_, intent, store_,
                   [this](net::Ipv4Address dst, std::uint16_t port,
                          CoordMessage abort) {
                     Send(net::Endpoint{dst, port}, std::move(abort));
                   });
}

void ShardCoordinator::Crash() {
  if (crashed_) return;
  crashed_ = true;
  // A dead process fires no timers: without this the retransmit/self-clean
  // events would keep acting (sending aborts!) from beyond the grave.
  CancelTimers();
  EndOpSpan("sub-crash");
  node_.os().sim().tracer().Instant(
      "coord", "coord.shard.crash", obs::TraceAttrs{}.Agent(node_.name()));
  CRUZ_WARN("coord") << node_.name() << ": sub-coordinator CRASHED";
}

void ShardCoordinator::Reset() {
  crashed_ = false;
  CancelTimers();
  op_active_ = false;
  op_ = ActiveOp{};
  // Volatile state does not survive a process restart; the journal
  // restores the fencing epoch and aborts the interrupted op.
  max_epoch_seen_ = 0;
  last_completed_op_ = 0;
  last_aborted_op_ = 0;
  RecoverFromJournal();
  CRUZ_INFO("coord") << node_.name() << ": sub-coordinator restarted";
}

void ShardCoordinator::CancelTimers() {
  driver_.Stop();
  if (timeout_event_ != sim::kInvalidEventId) {
    node_.os().sim().Cancel(timeout_event_);
    timeout_event_ = sim::kInvalidEventId;
  }
}

void ShardCoordinator::EndOpSpan(const char* outcome) {
  if (op_.op_span == obs::kInvalidSpanId) return;
  node_.os().sim().tracer().EndSpan(
      op_.op_span, {{"outcome", outcome},
                    {"shard_messages", std::to_string(op_.messages)}});
  op_.op_span = obs::kInvalidSpanId;
}

void ShardCoordinator::Send(net::Endpoint to, CoordMessage m) {
  // Same correlation discipline as the root and the agents: stamp before
  // the fault layer so a dropped transmission still leaves a send
  // instant, and a wire duplicate shares the corr id.
  m.corr_seq = ++next_corr_seq_;
  node_.os().sim().tracer().Instant(
      "coord", "coord.msg.send",
      obs::TraceAttrs{}
          .Op(m.op_id)
          .Agent(node_.name())
          .Arg("type", MsgTypeName(m.type))
          .Arg("corr", CorrId(m, node_.ip().ToString()))
          .Arg("dst", to.ip.ToString()));
  node_.os().sim().metrics().counter("coord.shard.messages_sent").Add();
  TransmitControl(node_, fault_, kShardPort, to, m);
}

void ShardCoordinator::OnDatagram(net::Endpoint from,
                                  const cruz::Bytes& payload) {
  if (crashed_) return;  // a dead sub-coordinator hears nothing
  CoordMessage m;
  if (!ReceiveControl(node_, "coord", from, payload, m)) return;
  // Epoch fencing, same rule as the agents: requests below the observed
  // high-water mark come from a dead root incarnation.
  if (PhaseDriver::kShards.IsRequest(m.type)) {
    if (m.epoch < max_epoch_seen_) {
      CRUZ_WARN("coord") << node_.name() << ": fenced stale shard request "
                         << MsgTypeName(m.type) << " (epoch " << m.epoch
                         << " < " << max_epoch_seen_ << ")";
      return;
    }
    max_epoch_seen_ = m.epoch;
  }
  switch (m.type) {
    case MsgType::kShardCheckpoint:
    case MsgType::kShardRestart:
      HandleShardRequest(m, from);
      break;
    case MsgType::kShardContinue:
      HandleShardContinue(m, from);
      break;
    case MsgType::kShardAbort:
      HandleShardAbort(m);
      break;
    case MsgType::kPing: {
      // Liveness: answered even mid-op (the probe asks "is the process
      // alive", not "is the shard finished").
      CoordMessage pong;
      pong.type = MsgType::kShardPong;
      pong.op_id = m.op_id;
      pong.epoch = m.epoch;
      Send(from, pong);
      break;
    }
    case MsgType::kDone:
    case MsgType::kContinueDone:
    case MsgType::kCommDisabled:
    case MsgType::kFailed:
      HandleAgentReply(m, from);
      break;
    default:
      break;
  }
}

void ShardCoordinator::HandleShardRequest(const CoordMessage& m,
                                          net::Endpoint from) {
  if (op_active_ && op_.op_id == m.op_id) {
    if (op_.started) {
      // A re-request after our <shard-done> went out means the reply was
      // lost (the completed-op cache below only covers finished ops):
      // re-answer. Before <shard-done> the root is just impatient.
      if (op_.done_sent) SendReply(from, last_done_reply_);
      return;
    }
    // Another roster fragment (or a retransmitted one — the dedup below
    // absorbs duplicates).
    for (const ShardMember& sm : m.shard_members) {
      if (std::none_of(op_.members.begin(), op_.members.end(),
                       [&](const ShardMember& have) {
                         return have.agent_ip == sm.agent_ip;
                       })) {
        op_.members.push_back(sm);
      }
    }
    if (op_.members.size() >= op_.member_total) StartShardOp();
    return;
  }
  if (m.op_id == last_completed_op_ && last_completed_op_ != 0) {
    // The root retransmitted a request we already served: the original
    // <shard-done> was lost. Re-answer from the cache.
    SendReply(from, last_done_reply_);
    return;
  }
  if (m.op_id <= last_aborted_op_) return;  // overtaken by its abort
  if (op_active_) {
    // A newer epoch supersedes the in-flight op: the root gave up on it
    // (we missed the abort) and moved on.
    if (m.epoch <= op_.epoch) return;
    AbortShardOp("superseded", /*notify_root=*/false);
  }
  CRUZ_CHECK(!m.shard_members.empty(), "shard request with no members");

  op_active_ = true;
  op_ = ActiveOp{};
  op_.op_id = m.op_id;
  op_.epoch = m.epoch;
  op_.is_restart = m.type == MsgType::kShardRestart;
  op_.variant = m.variant;
  op_.root = from;
  op_.request = m;
  op_.members = m.shard_members;
  op_.member_total = std::max(
      m.member_total, static_cast<std::uint32_t>(m.shard_members.size()));
  // Self-clean armed on the first fragment: a roster half-delivered by a
  // dying root must not stay active forever either.
  if (m.op_timeout > 0) {
    timeout_event_ = node_.os().sim().Schedule(
        m.op_timeout + kSelfCleanSlack, [this] {
          timeout_event_ = sim::kInvalidEventId;
          if (!op_active_) return;
          // Orphaned shard: the root would have timed out already. Do
          // not leave pods frozen behind a dead root — abort locally.
          AbortShardOp("self-clean timeout", /*notify_root=*/true);
        });
  }
  if (op_.members.size() < op_.member_total) return;  // await fragments
  StartShardOp();
}

void ShardCoordinator::StartShardOp() {
  op_.started = true;
  op_.op_span = node_.os().sim().tracer().BeginSpan(
      "coord", "coord.shard.op",
      obs::TraceAttrs{}
          .Op(op_.op_id)
          .Phase("shard")
          .Agent(node_.name())
          .Arg("kind", op_.is_restart ? "restart" : "checkpoint")
          .Arg("shard_size", op_.members.size()));
  node_.os().sim().metrics().counter("coord.shard.ops_total").Add();

  // Write-ahead intent: a sub-coordinator that dies here must know, on
  // restart, which agents to fence and which images to reap.
  journal_.Append({JournalRecord::Type::kIntent, op_.epoch, op_.is_restart,
                   op_.members, /*fan_out=*/0});

  if (test_ack_without_forward_) {
    // Sabotage: lie upward. Fabricate plausible per-member reports and
    // acknowledge without ever contacting an agent; no pod freezes, no
    // image is written. The gen-commit invariant must catch the commit
    // with zero agent saves. Its exchange has no endpoints, so
    // <continue> reaches no one and nothing is ever owed.
    driver_.Begin(AgentRequest(), {}, /*fan_out=*/0, {});
    std::vector<ShardMember> reports = op_.members;
    for (ShardMember& sm : reports) {
      if (!op_.is_restart) {
        sm.replicas = {ckpt::Replica{ckpt::Tier::kLocal, node_.index(),
                                     0, 0}};
      } else {
        sm.restore_source =
            static_cast<std::uint8_t>(ckpt::Tier::kLocal);
      }
    }
    if (op_.variant == ProtocolVariant::kOptimized) SendShardCommDisabled();
    SendShardDone(1 * kMillisecond, 1 * kMillisecond, std::move(reports));
    return;
  }

  driver_.Begin(AgentRequest(), op_.members, /*fan_out=*/0,
                {kRetransmitInterval, kMaxRetransmitRounds});
  driver_.Start();
}

CoordMessage ShardCoordinator::AgentRequest() const {
  CoordMessage request = op_.request;
  request.type = op_.is_restart ? MsgType::kRestart : MsgType::kCheckpoint;
  request.shard_members.clear();
  request.member_total = 0;
  return request;
}

void ShardCoordinator::HandleShardContinue(const CoordMessage& m,
                                           net::Endpoint from) {
  if (!op_active_ || op_.op_id != m.op_id) {
    // A completed op sent both replies, so the cache holds this one.
    if (m.op_id == last_completed_op_ && last_completed_op_ != 0) {
      Send(from, last_continue_done_reply_);
    }
    return;
  }
  if (!op_.started) return;  // roster still assembling; <continue> is stale
  driver_.BroadcastContinue();
  if (!driver_.owes_continue_done()) {
    if (!op_.continue_done_sent) {
      SendShardContinueDone();
    } else {
      // Copy-on-write overtake: <continue-done> already went out (and was
      // lost — the root is re-asking) while <done> is still pending.
      Send(from, last_continue_done_reply_);
    }
  }
}

void ShardCoordinator::HandleShardAbort(const CoordMessage& m) {
  last_aborted_op_ = std::max(last_aborted_op_, m.op_id);
  if (op_active_ && op_.op_id == m.op_id) {
    AbortShardOp("root abort", /*notify_root=*/false);
  }
}

void ShardCoordinator::HandleAgentReply(const CoordMessage& m,
                                        net::Endpoint from) {
  if (!op_active_ || op_.op_id != m.op_id || !op_.started) return;
  ++op_.messages;
  driver_.OnReply(from.ip, m);
}

void ShardCoordinator::SendReply(net::Endpoint to, const CoordMessage& full) {
  // The aggregated <shard-done> can exceed the MTU just like the downward
  // roster; the root accumulates fragments per shard.
  for (CoordMessage& frag : FragmentRoster(full)) Send(to, std::move(frag));
}

CoordMessage ShardCoordinator::Upward(MsgType type) const {
  CoordMessage m;
  m.type = type;
  m.op_id = op_.op_id;
  m.epoch = op_.epoch;
  return m;
}

void ShardCoordinator::SendShardCommDisabled() {
  // Fig. 4, aggregated: the whole shard has communication disabled.
  if (op_.comm_disabled_sent) return;
  op_.comm_disabled_sent = true;
  Send(op_.root, Upward(MsgType::kShardCommDisabled));
}

void ShardCoordinator::SendShardDone(DurationNs max_local,
                                     DurationNs max_downtime,
                                     std::vector<ShardMember> reports) {
  CoordMessage done = Upward(MsgType::kShardDone);
  done.local_duration = max_local;
  done.downtime = max_downtime;
  if (op_.request.tiered) {
    // Per-member tiered reports (replicas / restore sources) for the
    // root's generation manifest. The root matches members by agent ip,
    // so the image paths stay home — fewer bytes, fewer fragments.
    done.shard_members = std::move(reports);
    for (ShardMember& sm : done.shard_members) sm.image_path.clear();
  }
  done.extra_messages = op_.messages;  // cumulative; root keeps the max
  op_.done_sent = true;
  last_done_reply_ = done;
  SendReply(op_.root, done);
  MaybeCompleteOp();
}

void ShardCoordinator::SendShardContinueDone() {
  CoordMessage cd = Upward(MsgType::kShardContinueDone);
  cd.local_duration = driver_.max_continue();
  cd.extra_messages = op_.messages;  // cumulative; root keeps the max
  last_continue_done_reply_ = cd;
  Send(op_.root, std::move(cd));
  op_.continue_done_sent = true;
  MaybeCompleteOp();
}

void ShardCoordinator::MaybeCompleteOp() {
  // Completion: both aggregated acks are out (copy-on-write lets the
  // <continue-done>s overtake the last <done>, so order is free).
  if (!op_.done_sent || !op_.continue_done_sent) return;
  journal_.AppendOutcome(JournalRecord::Type::kCommit, op_.epoch,
                         op_.is_restart);
  ++ops_served_;
  last_completed_op_ = op_.op_id;
  EndOpSpan("ok");
  CancelTimers();
  op_active_ = false;
}

void ShardCoordinator::AbortShardOp(const char* reason, bool notify_root) {
  if (!op_active_) return;
  CRUZ_WARN("coord") << node_.name() << ": shard op " << op_.op_id
                     << " aborted (" << reason << ")";
  node_.os().sim().tracer().Instant(
      "coord", "coord.shard.abort",
      obs::TraceAttrs{}.Op(op_.op_id).Agent(node_.name()).Arg("reason",
                                                              reason));
  node_.os().sim().metrics().counter("coord.shard.aborts_total").Add();
  last_aborted_op_ = std::max(last_aborted_op_, op_.op_id);
  // A roster still assembling, or one the ack-without-forward sabotage
  // never drove, is fenced all the same: every member known so far.
  if (!op_.started || test_ack_without_forward_) {
    driver_.Begin(AgentRequest(), op_.members, /*fan_out=*/0, {});
  }
  driver_.Abort();
  if (notify_root) Send(op_.root, Upward(MsgType::kShardFailed));
  journal_.AppendOutcome(JournalRecord::Type::kAbort, op_.epoch,
                         op_.is_restart);
  EndOpSpan("abort");
  CancelTimers();
  op_active_ = false;
}

}  // namespace cruz::coord
