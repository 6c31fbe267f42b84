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
// costs nothing) unless the root addresses the node as a shard head.
// Toward the root it is a Participant (coord/participant.h), keeping the
// agents' receiver rules with its epoch fence seeded from its journal.
// Toward its shard it runs the same PhaseDriver the root uses (the flat,
// depth-1 exchange). It adds what only a middle tier needs:
//  - a write-ahead intent journal per node — a sub that crashes and
//    restarts aborts the journaled in-flight shard op (fencing its agents
//    and reaping partial images on every storage tier);
//  - roster reassembly from MTU-sized fragments;
//  - upward aggregation: one <shard-done> / <shard-continue-done> /
//    <shard-comm-disabled> per phase, and a fast <shard-failed> when an
//    agent fails or stays silent past the retransmit round cap;
//  - a self-clean timeout slightly past the root's op timeout, so a shard
//    orphaned by a dead root never leaves pods frozen forever.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "coord/journal.h"
#include "coord/message.h"
#include "coord/participant.h"
#include "coord/phase_driver.h"
#include "obs/trace.h"
#include "os/node.h"
#include "sim/event_queue.h"

namespace cruz::ckpt {
class TieredStore;
}  // namespace cruz::ckpt

namespace cruz::coord {

class ShardCoordinator : public Participant {
 public:
  // The abort and journal-recovery paths reap images from `store` on
  // every tier, mirroring the root coordinator.
  ShardCoordinator(os::Node& node, ckpt::TieredStore& store);
  ~ShardCoordinator();

  bool busy() const { return active_; }
  std::uint64_t ops_served() const { return ops_served_; }

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
  void Reset();

 private:
  struct ActiveOp {
    // The roster assembled so far from the request's fragments: the op
    // starts — journal intent, forward to agents — once it holds the
    // request's member_total distinct agents.
    std::vector<ShardMember> members;
    bool started = false;
    bool comm_disabled_sent = false;
    // Shard-internal message count (sub sends + agent replies received),
    // reported upward as a cumulative count; the root keeps the
    // high-water mark so the total stays exact under re-sent replies.
    std::uint32_t messages = 0;
    obs::SpanId op_span = obs::kInvalidSpanId;
  };

  bool Accept(const CoordMessage& m) override;
  void Serve(const CoordMessage& m) override;
  bool AddFragment(const CoordMessage& m) override;
  void Continue(net::Endpoint from) override;
  void Cancel(bool superseded) override;
  void OnReply(net::Endpoint from, const CoordMessage& m) override;
  bool is_restart() const {
    return request_.type == MsgType::kShardRestart;
  }
  // Runs once the full roster is assembled: journals the intent and
  // forwards the request to every shard agent (or fabricates the reply
  // under the ack-without-forward sabotage).
  void StartShardOp();
  // The request the shard's agents receive: the root's, minus the roster.
  CoordMessage AgentRequest() const;
  void MaybeCompleteOp();
  void SendShardCommDisabled();
  void SendShardDone(DurationNs max_local, DurationNs max_downtime,
                     std::vector<ShardMember> reports);
  void SendShardContinueDone();
  // Aborts the in-flight shard op: <abort> to every shard agent, image GC
  // on all tiers, journal outcome; optionally reports <shard-failed>,
  // naming `failed_pod` when a member's <failed> caused the abort.
  void AbortShardOp(const char* reason, bool notify_root,
                    os::PodId failed_pod = os::kNoPod);
  void CancelTimers();
  void EndOpSpan(const char* outcome);
  // Journal replay at construction / Reset(): abort a predecessor's
  // in-flight shard op.
  void RecoverFromJournal();
  std::string JournalPath() const;

  IntentJournal journal_;
  bool test_ack_without_forward_ = false;
  ActiveOp op_;
  std::uint64_t ops_served_ = 0;
  sim::EventId timeout_event_ = sim::kInvalidEventId;
  PhaseDriver driver_;
};

}  // namespace cruz::coord
