#include "coord/shard_coordinator.h"

#include <algorithm>

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
    : Participant(node, PhaseDriver::kShards, "coord",
                  "coord.shard.messages_sent",
                  /*resend_continue_done=*/false),
      journal_(node.os().fs(), JournalPath()),
      driver_(node, store,
              PhaseDriver::Hooks{
                  .send =
                      [this](net::Ipv4Address dst, std::uint16_t port,
                             CoordMessage m) {
                        ++op_.messages;
                        Send(net::Endpoint{dst, port}, m);
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
                      [this](net::Ipv4Address, os::PodId pod) {
                        AbortShardOp("member failed", /*notify_root=*/true,
                                     pod);
                      },
                  .on_retry_cap =
                      [this] {
                        AbortShardOp("retry cap", /*notify_root=*/true);
                      },
              }) {
  RecoverFromJournal();
}

ShardCoordinator::~ShardCoordinator() { CancelTimers(); }

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
  CoordMessage request;
  request.type = intent.is_restart ? MsgType::kRestart : MsgType::kCheckpoint;
  request.op_id = request.epoch = intent.epoch;
  driver_.Begin(request, intent.members, intent.fan_out, {});
  driver_.Abort();
  journal_.AppendOutcome(JournalRecord::Type::kAbort, intent.epoch,
                         intent.is_restart);
}

void ShardCoordinator::Crash() {
  if (crashed()) return;
  port_.set_deaf(true);
  // A dead process fires no timers: without this the retransmit/self-clean
  // events would keep acting (sending aborts!) from beyond the grave.
  CancelTimers();
  EndOpSpan("sub-crash");
  node_.os().sim().tracer().Instant(
      "coord", "coord.shard.crash", obs::TraceAttrs{}.Agent(node_.name()));
  CRUZ_WARN("coord") << node_.name() << ": sub-coordinator CRASHED";
}

void ShardCoordinator::Reset() {
  port_.set_deaf(false);
  CancelTimers();
  op_ = ActiveOp{};
  // Volatile state does not survive a process restart; the journal
  // restores the fencing epoch and aborts the interrupted op.
  Forget();
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

bool ShardCoordinator::Accept(const CoordMessage& m) {
  // A roster-less request cannot name a shard: malformed input, dropped
  // before it can move the fences, like an undecodable datagram.
  if ((m.type == MsgType::kShardCheckpoint ||
       m.type == MsgType::kShardRestart) &&
      m.shard_members.empty()) {
    CRUZ_WARN("coord") << node_.name() << ": dropped "
                       << MsgTypeName(m.type) << " with no members";
    return false;
  }
  return true;
}

bool ShardCoordinator::AddFragment(const CoordMessage& m) {
  if (op_.started) return false;
  // Another roster fragment (or a retransmitted one: the dedup absorbs
  // duplicates).
  for (const ShardMember& sm : m.shard_members) {
    if (std::none_of(op_.members.begin(), op_.members.end(),
                     [&](const ShardMember& have) {
                       return have.agent_ip == sm.agent_ip;
                     })) {
      op_.members.push_back(sm);
    }
  }
  if (op_.members.size() >= request_.member_total) StartShardOp();
  return true;
}

void ShardCoordinator::Serve(const CoordMessage& m) {
  op_ = ActiveOp{};
  op_.members = m.shard_members;
  // Self-clean armed on the first fragment: a roster half-delivered by a
  // dying root must not stay active forever either.
  if (m.op_timeout > 0) {
    timeout_event_ = node_.os().sim().Schedule(
        m.op_timeout + kSelfCleanSlack, [this] {
          timeout_event_ = sim::kInvalidEventId;
          if (!active_) return;
          // Orphaned shard: the root would have timed out already. Do
          // not leave pods frozen behind a dead root — abort locally.
          AbortShardOp("self-clean timeout", /*notify_root=*/true);
        });
  }
  if (op_.members.size() < m.member_total) return;  // await fragments
  StartShardOp();
}

void ShardCoordinator::StartShardOp() {
  op_.started = true;
  op_.op_span = node_.os().sim().tracer().BeginSpan(
      "coord", "coord.shard.op",
      obs::TraceAttrs{}
          .Op(op_id())
          .Phase("shard")
          .Agent(node_.name())
          .Arg("kind", is_restart() ? "restart" : "checkpoint")
          .Arg("shard_size", op_.members.size()));
  node_.os().sim().metrics().counter("coord.shard.ops_total").Add();

  // Write-ahead intent: a sub-coordinator that dies here must know, on
  // restart, which agents to fence and which images to reap.
  journal_.Append({JournalRecord::Type::kIntent, request_.epoch,
                   is_restart(), op_.members, /*fan_out=*/0});

  if (test_ack_without_forward_) {
    // Sabotage: lie upward. Fabricate plausible per-member reports and
    // acknowledge without ever contacting an agent; no pod freezes, no
    // image is written. The gen-commit invariant must catch the commit
    // with zero agent saves. Its exchange has no endpoints, so
    // <continue> reaches no one and nothing is ever owed.
    driver_.Begin(AgentRequest(), {}, /*fan_out=*/0, {});
    std::vector<ShardMember> reports = op_.members;
    for (ShardMember& sm : reports) {
      if (!is_restart()) {
        sm.replicas = {ckpt::Replica{ckpt::Tier::kLocal, node_.index(),
                                     0, 0}};
      } else {
        sm.restore_source =
            static_cast<std::uint8_t>(ckpt::Tier::kLocal);
      }
    }
    if (request_.variant == ProtocolVariant::kOptimized) {
      SendShardCommDisabled();
    }
    SendShardDone(1 * kMillisecond, 1 * kMillisecond, std::move(reports));
    return;
  }

  driver_.Begin(AgentRequest(), op_.members, /*fan_out=*/0,
                {kRetransmitInterval, kMaxRetransmitRounds});
  driver_.Start();
}

CoordMessage ShardCoordinator::AgentRequest() const {
  CoordMessage request = request_;
  request.type = is_restart() ? MsgType::kRestart : MsgType::kCheckpoint;
  request.shard_members.clear();
  request.member_total = 0;
  return request;
}

void ShardCoordinator::Continue(net::Endpoint from) {
  if (!op_.started) return;  // roster still assembling; <continue> is stale
  driver_.BroadcastContinue();
  if (!driver_.owes_continue_done()) {
    if (!continue_done_sent_) {
      SendShardContinueDone();
    } else {
      // Copy-on-write overtake: <continue-done> already went out (and was
      // lost — the root is re-asking) while <done> is still pending.
      Send(from, continue_done_reply_);
    }
  }
}

void ShardCoordinator::Cancel(bool superseded) {
  AbortShardOp(superseded ? "superseded" : "root abort",
               /*notify_root=*/false);
}

void ShardCoordinator::OnReply(net::Endpoint from, const CoordMessage& m) {
  if (!active_ || op_id() != m.op_id || !op_.started) return;
  ++op_.messages;
  driver_.OnReply(from.ip, m);
}

void ShardCoordinator::SendShardCommDisabled() {
  // Fig. 4, aggregated: the whole shard has communication disabled.
  if (op_.comm_disabled_sent) return;
  op_.comm_disabled_sent = true;
  Send(coordinator_, Reply(MsgType::kShardCommDisabled));
}

void ShardCoordinator::SendShardDone(DurationNs max_local,
                                     DurationNs max_downtime,
                                     std::vector<ShardMember> reports) {
  CoordMessage done = Reply(MsgType::kShardDone);
  done.local_duration = max_local;
  done.downtime = max_downtime;
  if (request_.tiered) {
    // Per-member tiered reports (replicas / restore sources) for the
    // root's generation manifest. The root matches members by agent ip,
    // so the image paths stay home — fewer bytes, fewer fragments.
    done.shard_members = std::move(reports);
    for (ShardMember& sm : done.shard_members) sm.image_path.clear();
  }
  done.extra_messages = op_.messages;  // cumulative; root keeps the max
  // Fragmented like the downward roster; the root reassembles per shard.
  SendDone(done);
  MaybeCompleteOp();
}

void ShardCoordinator::SendShardContinueDone() {
  CoordMessage cd = Reply(MsgType::kShardContinueDone);
  cd.local_duration = driver_.max_continue();
  cd.extra_messages = op_.messages;  // cumulative; root keeps the max
  SendContinueDone(cd);
  MaybeCompleteOp();
}

void ShardCoordinator::MaybeCompleteOp() {
  // Completion: both aggregated acks are out (copy-on-write lets the
  // <continue-done>s overtake the last <done>, so order is free).
  if (!Complete()) return;
  journal_.AppendOutcome(JournalRecord::Type::kCommit, request_.epoch,
                         is_restart());
  ++ops_served_;
  EndOpSpan("ok");
  CancelTimers();
}

void ShardCoordinator::AbortShardOp(const char* reason, bool notify_root,
                                    os::PodId failed_pod) {
  if (!active_) return;
  CRUZ_WARN("coord") << node_.name() << ": shard op " << op_id()
                     << " aborted (" << reason << ")";
  node_.os().sim().tracer().Instant(
      "coord", "coord.shard.abort",
      obs::TraceAttrs{}.Op(op_id()).Agent(node_.name()).Arg("reason",
                                                            reason));
  node_.os().sim().metrics().counter("coord.shard.aborts_total").Add();
  last_aborted_op_ = std::max(last_aborted_op_, op_id());
  // A roster still assembling, or one the ack-without-forward sabotage
  // never drove, is fenced all the same: every member known so far.
  if (!op_.started || test_ack_without_forward_) {
    driver_.Begin(AgentRequest(), op_.members, /*fan_out=*/0, {});
  }
  driver_.Abort();
  if (notify_root) {
    CoordMessage failed = Reply(MsgType::kShardFailed);
    failed.pod_id = failed_pod;  // kNoPod: this sub gave up (DESIGN.md §13)
    Send(coordinator_, failed);
  }
  journal_.AppendOutcome(JournalRecord::Type::kAbort, request_.epoch,
                         is_restart());
  EndOpSpan("abort");
  CancelTimers();
  active_ = false;
}

}  // namespace cruz::coord
