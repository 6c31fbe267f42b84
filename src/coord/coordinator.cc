#include "coord/coordinator.h"

#include <set>

#include "common/error.h"
#include "common/log.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace cruz::coord {

Coordinator::Coordinator(os::Node& node, ckpt::TieredStore& store,
                         std::string journal_path)
    : node_(node),
      journal_(node.os().fs(), std::move(journal_path)),
      port_(node, "coord", kCoordinatorPort, "coord.messages_sent",
            [this](net::Endpoint from, const CoordMessage& m) {
              OnMessage(from, m);
            }),
      driver_(node, store,
              PhaseDriver::Hooks{
                  .send =
                      [this](net::Ipv4Address dst, std::uint16_t port,
                             CoordMessage m) {
                        // A shard roster can exceed the Ethernet MTU (the
                        // stack does not IP-fragment): split it across
                        // datagrams; the sub starts once it holds them all.
                        for (const CoordMessage& frag : FragmentRoster(m)) {
                          SendControl(dst, port, frag);
                        }
                      },
                  .on_comm_disabled = [this] { BroadcastContinue(); },
                  .on_done = [this] { OnAllDone(); },
                  .on_continue_done =
                      [this] {
                        if (!driver_.owes_done()) Finish(true);
                      },
                  .on_failed =
                      [this](net::Ipv4Address from, os::PodId pod) {
                        stats_.failed_pod = pod;
                        AbortOp(std::string(driver_.wire().failed_noun) +
                                " " + std::to_string(from.value) +
                                " failed");
                      },
                  .on_retry_cap = [this] { AbortOp("retry cap"); },
              }) {
  RecoverFromJournal();
}

Coordinator::~Coordinator() {
  // A coordinator may be torn down mid-op (process crash in the recovery
  // scenarios); cancel every pending event that captures `this` (the
  // driver cancels its own).
  if (timeout_event_ != sim::kInvalidEventId) {
    node_.os().sim().Cancel(timeout_event_);
  }
  if (heartbeat_event_ != sim::kInvalidEventId) {
    node_.os().sim().Cancel(heartbeat_event_);
  }
}

void Coordinator::RecoverFromJournal() {
  IntentJournal::RecoveredState state = journal_.Recover();
  epoch_ = state.last_epoch;
  if (!state.incomplete.has_value()) return;

  // A previous incarnation died with this op in flight. Abort it: fence
  // the sub-coordinators and agents, and garbage-collect whatever images
  // the checkpoint already wrote.
  const JournalRecord& intent = *state.incomplete;
  recovery_.had_incomplete = true;
  recovery_.epoch = intent.epoch;
  recovery_.was_restart = intent.is_restart;
  node_.os().sim().tracer().Instant(
      "coord", "coord.recovery",
      obs::TraceAttrs{}.Op(intent.epoch).Agent(node_.name()).Arg(
          "kind", intent.is_restart ? "restart" : "checkpoint"));
  CRUZ_WARN("coord") << "journal recovery: aborting in-flight "
                     << (intent.is_restart ? "restart" : "checkpoint")
                     << " op epoch " << intent.epoch;
  CoordMessage request;
  request.type = intent.is_restart ? MsgType::kRestart : MsgType::kCheckpoint;
  request.op_id = request.epoch = intent.epoch;
  driver_.Begin(request, intent.members, intent.fan_out, {});
  recovery_.images_removed = driver_.Abort();
  journal_.AppendOutcome(JournalRecord::Type::kAbort, intent.epoch,
                         intent.is_restart);
}

void Coordinator::Checkpoint(std::vector<Member> members, Options options,
                             DoneFn done) {
  std::vector<std::string> paths;
  for (const Member& m : members) {
    paths.push_back(ImagePath(options.image_prefix, m.pod));
  }
  Begin(/*is_restart=*/false, std::move(members), std::move(paths),
        std::move(options), std::move(done));
}

void Coordinator::Restart(std::vector<Member> members,
                          std::vector<std::string> image_paths,
                          Options options, DoneFn done) {
  CRUZ_CHECK(image_paths.size() == members.size(),
             "Restart: one image path per member");
  Begin(/*is_restart=*/true, std::move(members), std::move(image_paths),
        std::move(options), std::move(done));
}

void Coordinator::Begin(bool is_restart, std::vector<Member> members,
                        std::vector<std::string> image_paths,
                        Options options, DoneFn done) {
  CRUZ_CHECK(!op_active_, "coordinator busy with another operation");
  CRUZ_CHECK(!members.empty(), "coordinated operation with no members");
  // An agent serves one pod per op, and replies are tracked per agent
  // address: a second member on the same node would be silently lost.
  std::set<std::uint32_t> agents;
  for (const Member& m : members) {
    if (!agents.insert(m.agent_ip.value).second) {
      throw UsageError("two members on agent " + m.agent_ip.ToString() +
                       ": one pod per node per coordinated operation");
    }
  }
  op_active_ = true;
  options_ = options;
  done_fn_ = std::move(done);
  stats_ = OpStats{};
  stats_.op_id = stats_.epoch = ++epoch_;
  stats_.image_paths = image_paths;

  CoordMessage request;
  request.type = is_restart ? MsgType::kRestart : MsgType::kCheckpoint;
  request.op_id = stats_.op_id;
  request.epoch = stats_.epoch;
  request.variant = options_.variant;
  request.tiered = options_.tiered;
  if (!is_restart) {
    request.incremental = options_.incremental;
    request.copy_on_write = options_.copy_on_write;
    request.compress = options_.compress;
  }
  // The sub self-cleans shortly after this deadline if the root dies.
  request.op_timeout = options_.timeout;
  std::vector<ShardMember> roster(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    roster[i].agent_ip = members[i].agent_ip.value;
    roster[i].pod = members[i].pod;
    roster[i].image_path = image_paths[i];
  }
  driver_.Begin(std::move(request), std::move(roster), options_.fan_out,
                {options_.retransmit_interval, options_.max_retransmit_rounds});
  stats_.shard_count = driver_.shard_count();
  stats_.max_endpoint_fanout = driver_.max_fanout();
  missed_heartbeats_.clear();
  op_start_ = node_.os().sim().Now();

  // Trace the op and its Fig. 2 phases. The freeze phase runs from the
  // first request to the last <done>; the commit phase opens when the
  // <continue> broadcast goes out.
  obs::Tracer& tracer = node_.os().sim().tracer();
  const char* kind = is_restart ? "restart" : "checkpoint";
  obs::TraceAttrs op_attrs;
  op_attrs.Op(stats_.op_id)
      .Phase("op")
      .Agent(node_.name())
      .Arg("members", driver_.members().size());
  if (stats_.shard_count > 0) op_attrs.Arg("shards", stats_.shard_count);
  op_span_ = tracer.BeginSpan("coord", std::string("coord.op.") + kind,
                              std::move(op_attrs));
  freeze_span_ = tracer.BeginSpan(
      "coord", "coord.phase.freeze",
      obs::TraceAttrs{}.Op(stats_.op_id).Phase("freeze").Agent(
          node_.name()));
  commit_span_ = obs::kInvalidSpanId;
  node_.os().sim().metrics().counter("coord.ops_total").Add();

  // Write-ahead intent: on coordinator death the next incarnation learns
  // exactly which op (and which images) to abort and clean up.
  journal_.Append({JournalRecord::Type::kIntent, stats_.epoch, is_restart,
                   driver_.members(), driver_.fan_out()});

  driver_.Start();
  ScheduleHeartbeat();
  timeout_event_ =
      node_.os().sim().Schedule(options_.timeout, [this] {
        timeout_event_ = sim::kInvalidEventId;
        if (!op_active_) return;
        ++stats_.timeouts;
        node_.os().sim().tracer().Instant(
            "coord", "coord.timeout",
            obs::TraceAttrs{}.Op(stats_.op_id).Agent(node_.name()));
        node_.os().sim().metrics().counter("coord.timeouts_total").Add();
        AbortOp("timeout");
      });
}

void Coordinator::SendControl(net::Ipv4Address dst, std::uint16_t port,
                              const CoordMessage& m) {
  ++stats_.coordinator_messages;
  ++stats_.total_messages;
  port_.Send({dst, port}, m, m.pod_id);
}

void Coordinator::OnAllDone() {
  stats_.checkpoint_latency = node_.os().sim().Now() - op_start_;
  node_.os().sim().tracer().EndSpan(freeze_span_);
  freeze_span_ = obs::kInvalidSpanId;
  BroadcastContinue();  // Step 3 (no-op if Fig. 4 already sent it)
  // With copy-on-write the <continue-done>s can precede the last <done>
  // (resume happens before the disk write finishes).
  if (!driver_.owes_continue_done()) Finish(true);
}

void Coordinator::BroadcastContinue() {
  if (driver_.continue_sent()) return;
  commit_span_ = node_.os().sim().tracer().BeginSpan(
      "coord", "coord.phase.commit",
      obs::TraceAttrs{}.Op(stats_.op_id).Phase("commit").Agent(
          node_.name()));
  driver_.BroadcastContinue(test_duplicate_continue_ ? 2 : 1);
}

void Coordinator::AbortOp(const std::string& reason) {
  if (!op_active_) return;
  CRUZ_WARN("coord") << "operation " << stats_.op_id << " aborted ("
                     << reason << ")";
  stats_.abort_reason = reason;
  node_.os().sim().tracer().Instant(
      "coord", "coord.abort",
      obs::TraceAttrs{}.Op(stats_.op_id).Agent(node_.name()).Arg("reason",
                                                                reason));
  node_.os().sim().metrics().counter("coord.aborts_total").Add();
  driver_.Abort();
  Finish(false);
}

void Coordinator::OnMessage(net::Endpoint from, const CoordMessage& m) {
  if (!op_active_ || m.op_id != stats_.op_id) return;
  ++stats_.total_messages;
  if (m.type == driver_.wire().pong) {
    missed_heartbeats_[from.ip.value] = 0;
    return;
  }
  driver_.OnReply(from.ip, m);
}

void Coordinator::ScheduleHeartbeat() {
  if (options_.heartbeat_interval == 0) return;
  heartbeat_event_ = node_.os().sim().Schedule(
      options_.heartbeat_interval, [this] {
        heartbeat_event_ = sim::kInvalidEventId;
        if (!op_active_) return;
        HeartbeatTick();
      });
}

void Coordinator::HeartbeatTick() {
  // Probe every endpoint that still owes a reply. At depth 2 these are
  // the sub-coordinators: a dead agent surfaces as its sub's
  // <shard-failed>, so a silent endpoint means the sub itself is dead.
  for (const PhaseDriver::Endpoint& ep : driver_.endpoints()) {
    if (!ep.owes_done && !ep.owes_continue_done) {
      continue;  // endpoint already finished; no liveness concern
    }
    std::uint32_t missed = ++missed_heartbeats_[ep.ip.value];
    if (missed > options_.max_missed_heartbeats) {
      AbortOp(std::string(driver_.wire().silent_noun) + " " +
              std::to_string(ep.ip.value) + " unresponsive");
      return;
    }
    CoordMessage ping;
    ping.type = MsgType::kPing;
    ping.op_id = stats_.op_id;
    ping.epoch = stats_.epoch;
    ping.pod_id = ep.pod;
    SendControl(ep.ip, driver_.wire().port, ping);
  }
  ScheduleHeartbeat();
}

void Coordinator::Finish(bool success) {
  if (timeout_event_ != sim::kInvalidEventId) {
    node_.os().sim().Cancel(timeout_event_);
    timeout_event_ = sim::kInvalidEventId;
  }
  driver_.Stop();
  if (heartbeat_event_ != sim::kInvalidEventId) {
    node_.os().sim().Cancel(heartbeat_event_);
    heartbeat_event_ = sim::kInvalidEventId;
  }
  journal_.AppendOutcome(
      success ? JournalRecord::Type::kCommit : JournalRecord::Type::kAbort,
      stats_.epoch, driver_.is_restart());
  stats_.success = success;
  stats_.max_local = driver_.max_local();
  stats_.max_downtime = driver_.max_downtime();
  stats_.max_continue = driver_.max_continue();
  stats_.retransmits = driver_.retransmits();
  stats_.aborts = driver_.aborts();
  stats_.total_messages += driver_.reported_messages();
  // Tiered mode, per member: where each image landed (feeds the manifest)
  // and which tier served each restore.
  for (const ShardMember& sm : driver_.members()) {
    stats_.replica_sets.push_back(sm.replicas);
    stats_.restore_sources.push_back(sm.restore_source);
  }
  stats_.full_latency = node_.os().sim().Now() - op_start_;
  DurationNs local = stats_.max_local + stats_.max_continue;
  stats_.coordination_overhead =
      stats_.full_latency > local ? stats_.full_latency - local : 0;
  op_active_ = false;

  obs::Tracer& tracer = node_.os().sim().tracer();
  tracer.EndSpan(freeze_span_);  // still open on abort paths
  freeze_span_ = obs::kInvalidSpanId;
  tracer.EndSpan(commit_span_);
  commit_span_ = obs::kInvalidSpanId;
  tracer.EndSpan(
      op_span_,
      {{"success", success ? "true" : "false"},
       {"checkpoint_latency_ns", std::to_string(stats_.checkpoint_latency)},
       {"coordination_overhead_ns",
        std::to_string(stats_.coordination_overhead)},
       {"max_downtime_ns", std::to_string(stats_.max_downtime)},
       {"retransmits", std::to_string(stats_.retransmits)},
       {"messages", std::to_string(stats_.total_messages)}});
  op_span_ = obs::kInvalidSpanId;
  obs::MetricsRegistry& metrics = node_.os().sim().metrics();
  if (!success) metrics.counter("coord.ops_failed").Add();
  if (success && !driver_.is_restart()) {
    metrics.histogram("coord.checkpoint_latency_us")
        .Record(stats_.checkpoint_latency / kMicrosecond);
    metrics.histogram("coord.coordination_overhead_us")
        .Record(stats_.coordination_overhead / kMicrosecond);
    metrics.histogram("coord.downtime_us")
        .Record(stats_.max_downtime / kMicrosecond);
  }
  CRUZ_INFO("coord") << (driver_.is_restart() ? "restart" : "checkpoint")
                     << " op " << stats_.op_id << (success ? " ok" : " FAILED")
                     << ": latency=" << ToMillis(stats_.checkpoint_latency)
                     << "ms overhead="
                     << ToMicros(stats_.coordination_overhead) << "us msgs="
                     << stats_.total_messages;
  if (done_fn_) {
    DoneFn fn = std::move(done_fn_);
    fn(stats_);
  }
}

}  // namespace cruz::coord
