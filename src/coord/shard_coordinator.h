// Per-node sub-coordinator for hierarchical checkpoints (DESIGN.md §13).
//
// At ~1000 nodes a flat coordinator must address every agent itself: the
// message count stays O(N) but the *per-endpoint* fan-out grows linearly,
// and the root's serialized datagram processing becomes the scaling wall.
// Hierarchical mode bounds the fan-out at every endpoint: the root talks
// to ⌈N/F⌉ sub-coordinators (one per shard of ≤ F agents), each of which
// replays the flat Fig. 2 protocol to its own shard and answers with one
// aggregated ack per phase.
//
// Every node runs a ShardCoordinator on kShardPort; it is idle (and
// costs nothing) unless the root addresses the node as a shard head. It
// drives its shard through the same PhaseDriver the root uses (the flat,
// depth-1 exchange) and adds what only a middle tier needs:
//  - epoch fencing, seeded from its own intent journal, so a stale root
//    incarnation cannot drive a shard;
//  - a write-ahead intent journal per node — a sub that crashes and
//    restarts aborts the journaled in-flight shard op (fencing its agents
//    and reaping partial images on every storage tier);
//  - upward aggregation: one <shard-done> / <shard-continue-done> /
//    <shard-comm-disabled> per phase, and a fast <shard-failed> when an
//    agent fails or stays silent past the retransmit round cap;
//  - reply caching, so a retransmitted root request after completion is
//    answered from the cache instead of re-running the shard;
//  - abort fencing (a delayed <shard-checkpoint> overtaken by its
//    <shard-abort> is ignored);
//  - a self-clean timeout slightly past the root's op timeout, so a shard
//    orphaned by a dead root never leaves pods frozen forever.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "coord/journal.h"
#include "coord/message.h"
#include "coord/phase_driver.h"
#include "fault/fault.h"
#include "obs/trace.h"
#include "os/node.h"
#include "sim/event_queue.h"

namespace cruz::ckpt {
class TieredStore;
}  // namespace cruz::ckpt

namespace cruz::coord {

class ShardCoordinator {
 public:
  // The abort and journal-recovery paths reap images from `store` on
  // every tier, mirroring the root coordinator.
  ShardCoordinator(os::Node& node, ckpt::TieredStore& store);
  ~ShardCoordinator();

  ShardCoordinator(const ShardCoordinator&) = delete;
  ShardCoordinator& operator=(const ShardCoordinator&) = delete;

  bool busy() const { return op_active_; }
  std::uint64_t ops_served() const { return ops_served_; }

  // Deterministic fault injection (tests/benches); nullptr disables.
  void set_fault_injector(fault::Injector* injector) { fault_ = injector; }

  // Sabotage hook for oracle self-tests: acknowledge <shard-checkpoint>
  // with a fabricated <shard-done> (and <shard-continue-done>) without
  // ever forwarding to the shard's agents — a lying middle tier. The
  // gen-commit invariant must catch the resulting commit with zero
  // agent saves. Never set outside tests.
  void set_test_ack_without_forward(bool v) { test_ack_without_forward_ = v; }

  // Simulates the sub-coordinator process dying: it stops hearing
  // messages until Reset(), which replays the journal-recovery path a
  // restarted process would run.
  void Crash();
  bool crashed() const { return crashed_; }
  void Reset();

 private:
  struct ActiveOp {
    std::uint64_t op_id = 0;
    std::uint64_t epoch = 0;
    bool is_restart = false;
    ProtocolVariant variant = ProtocolVariant::kBlocking;
    net::Endpoint root;
    CoordMessage request;  // original downward request (flags, roster)
    std::vector<ShardMember> members;
    // Roster fragmentation (the full roster can exceed the MTU): the op
    // starts — journal intent, forward to agents — only once `members`
    // holds member_total distinct agents.
    std::uint32_t member_total = 0;
    bool started = false;
    bool done_sent = false;
    bool continue_done_sent = false;
    bool comm_disabled_sent = false;
    // Shard-internal message count (sub sends + agent replies received),
    // reported upward as a cumulative count; the root keeps the
    // high-water mark so the total stays exact under re-sent replies.
    std::uint32_t messages = 0;
    obs::SpanId op_span = obs::kInvalidSpanId;
  };

  void OnDatagram(net::Endpoint from, const cruz::Bytes& payload);
  void HandleShardRequest(const CoordMessage& m, net::Endpoint from);
  // Runs once the full roster is assembled: journals the intent and
  // forwards the request to every shard agent (or fabricates the reply
  // under the ack-without-forward sabotage).
  void StartShardOp();
  // The request the shard's agents receive: the root's, minus the roster.
  CoordMessage AgentRequest() const;
  void HandleShardContinue(const CoordMessage& m, net::Endpoint from);
  void HandleShardAbort(const CoordMessage& m);
  void HandleAgentReply(const CoordMessage& m, net::Endpoint from);
  void MaybeCompleteOp();
  // Sends `full` upward, fragmenting its roster under the MTU (the
  // aggregated <shard-done> can be as oversized as the downward request).
  void SendReply(net::Endpoint to, const CoordMessage& full);
  // An aggregated reply to the root: type, op id and epoch.
  CoordMessage Upward(MsgType type) const;
  void SendShardCommDisabled();
  void SendShardDone(DurationNs max_local, DurationNs max_downtime,
                     std::vector<ShardMember> reports);
  void SendShardContinueDone();
  // Aborts the in-flight shard op: <abort> to every shard agent, image GC
  // on all tiers, journal outcome; optionally reports <shard-failed>.
  void AbortShardOp(const char* reason, bool notify_root);
  void Send(net::Endpoint to, CoordMessage m);
  void CancelTimers();
  void EndOpSpan(const char* outcome);
  // Journal replay at construction / Reset(): abort a predecessor's
  // in-flight shard op.
  void RecoverFromJournal();
  std::string JournalPath() const;

  os::Node& node_;
  IntentJournal journal_;
  ckpt::TieredStore& store_;
  fault::Injector* fault_ = nullptr;
  bool test_ack_without_forward_ = false;
  bool crashed_ = false;
  bool op_active_ = false;
  ActiveOp op_;
  // Fencing: highest epoch observed from any root incarnation, seeded
  // from the journal so it survives sub-coordinator restarts.
  std::uint64_t max_epoch_seen_ = 0;
  // Abort fencing: a delayed shard request must not outlive its abort.
  std::uint64_t last_aborted_op_ = 0;
  // Reply cache: a retransmitted root request for the most recently
  // completed op is answered from here instead of re-running the shard.
  std::uint64_t last_completed_op_ = 0;
  CoordMessage last_done_reply_;
  CoordMessage last_continue_done_reply_;
  std::uint64_t ops_served_ = 0;
  sim::EventId timeout_event_ = sim::kInvalidEventId;
  // Correlation sequence for send instants; survives Reset() so trace
  // identity stays unique across simulated process restarts.
  std::uint32_t next_corr_seq_ = 0;
  PhaseDriver driver_;
};

}  // namespace cruz::coord
