// The Checkpoint Coordinator (paper Fig. 2).
//
// Runs on a node distinct from the application nodes (as in §6). One
// coordinated operation at a time:
//
//   Step 1: send <checkpoint> (or <restart>) to every agent.
//   Step 2: wait for <done> from all agents.
//   Step 3: send <continue> to all agents.
//   Step 4: wait for <continue-done> from all agents.
//
// This is the minimum message count needed for atomicity (two-phase
// commit): O(N) messages, versus the O(N²) all-to-all channel flush of
// MPVM/CoCheck/LAM-MPI (§5.2; not implemented here).
// With the Fig. 4 optimization the <continue> is sent as soon as every
// agent reports communication disabled, letting each node resume right
// after its own local save.
//
// The coordinator measures exactly what §6 reports: total checkpoint
// latency (first <checkpoint> sent to last <done> received, Fig. 5a) and
// the coordination overhead (full latency minus the maxima of the local
// checkpoint and continue times, Fig. 5b).
//
// Failure model (the paper: the protocol "can be extended in a
// straightforward way to tolerate Coordinator and Agent failures"):
//  - Lost control messages are retransmitted with exponential backoff and
//    seeded jitter, capped by max_retransmit_rounds.
//  - Every op carries a fencing epoch, monotonic across coordinator
//    incarnations; agents reject stale-epoch requests.
//  - An intent record is journaled to the shared FS before the first
//    message of an op; a restarted coordinator aborts the journaled
//    in-flight op and garbage-collects its partial images.
//  - Optional liveness probing (<ping>/<pong>) detects a dead agent or
//    node in a few heartbeats and aborts the op fast instead of eating
//    the full operation timeout.
//  - An agent that cannot perform its local part reports <failed>, which
//    aborts the op immediately; aborted checkpoint images are deleted.
//
// The exchange itself — request fan-out, reply bookkeeping, <continue>,
// retransmission and abort — is the PhaseDriver shared with the
// sub-coordinators (coord/phase_driver.h). With fan_out set it runs over
// sub-coordinators instead of agents; flat is the depth-1 case.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "ckpt/store/replica.h"
#include "coord/journal.h"
#include "coord/message.h"
#include "coord/phase_driver.h"
#include "obs/trace.h"
#include "os/node.h"
#include "sim/event_queue.h"

namespace cruz::ckpt {
class TieredStore;
}  // namespace cruz::ckpt

namespace cruz::coord {

class Coordinator {
 public:
  struct Member {
    net::Ipv4Address agent_ip;  // node address of the agent
    os::PodId pod = os::kNoPod;
  };

  struct Options {
    ProtocolVariant variant = ProtocolVariant::kBlocking;
    DurationNs timeout = 120 * kSecond;
    // Unanswered requests are retransmitted (the coordination channel is
    // UDP). The interval starts at retransmit_interval and doubles per
    // round up to 4x (kRetransmitBackoff, kRetransmitMaxIntervalFactor);
    // each round is jittered ±25% from the simulator's seeded RNG so
    // retransmissions cannot synchronize. retransmit_interval == 0
    // disables retransmission entirely.
    DurationNs retransmit_interval = 2 * kSecond;
    // Abort the op after this many retransmit rounds (0 = no cap; the
    // overall timeout still applies).
    std::uint32_t max_retransmit_rounds = 0;
    // Liveness probing: every heartbeat_interval the coordinator pings
    // members that still owe a reply; an agent that misses more than
    // max_missed_heartbeats consecutive probes is declared dead and the
    // op is aborted early. 0 disables probing (and then only the overall
    // timeout bounds the op).
    DurationNs heartbeat_interval = 0;
    std::uint32_t max_missed_heartbeats = 3;
    std::string image_prefix = "/ckpt/op";
    // §5.2 optimizations (checkpoints only). Incremental images save only
    // pages dirtied since each agent's previous checkpoint of the pod;
    // copy-on-write resumes the pod right after the in-memory capture.
    // Combine copy_on_write with ProtocolVariant::kOptimized so the
    // resume permission also arrives early.
    bool incremental = false;
    bool copy_on_write = false;
    // Write version-2 images with RLE-compressed pages (shrinks the
    // dominant disk-write time; restore reads either version).
    bool compress = false;
    // Multi-tier storage: agents commit images to local + partner disks
    // (netfs flush in the background) and restarts resolve across the
    // tier hierarchy. Requires a TieredStore passed at construction.
    bool tiered = false;
    // Hierarchical coordination (DESIGN.md §13): partition the members
    // into contiguous shards of at most fan_out agents, each driven by
    // the sub-coordinator on the shard's first node, so the root
    // addresses ⌈N/fan_out⌉ endpoints instead of N. 0 = flat.
    std::uint32_t fan_out = 0;
  };

  struct OpStats {
    bool success = false;
    std::uint64_t op_id = 0;
    std::uint64_t epoch = 0;  // fencing epoch carried by every message
    // First <checkpoint> sent to last <done> received (Fig. 5a metric).
    DurationNs checkpoint_latency = 0;
    // First message sent to last <continue-done> received.
    DurationNs full_latency = 0;
    DurationNs max_local = 0;     // max agent-local checkpoint/restore time
    DurationNs max_continue = 0;  // max agent-local continue time
    // Max agent-reported pod downtime: how long any pod's processes were
    // stopped. Stop-the-world: ≈ max_local. Copy-on-write: only the
    // snapshot, so downtime ≪ max_local (the Fig. 5a split this PR adds).
    DurationNs max_downtime = 0;
    // full_latency − max_local − max_continue (Fig. 5b metric).
    DurationNs coordination_overhead = 0;
    std::uint32_t coordinator_messages = 0;  // sent by the coordinator
    std::uint32_t total_messages = 0;  // + agent replies + shard traffic
    // Failure-handling counters.
    std::uint32_t retransmits = 0;  // messages re-sent after loss
    std::uint32_t timeouts = 0;     // overall-timeout expirations (0/1)
    std::uint32_t aborts = 0;       // <abort> messages sent
    std::string abort_reason;       // empty on success
    // The pod whose agent reported <failed> (restart: its image chain did
    // not load); kNoPod if the op ended otherwise.
    os::PodId failed_pod = os::kNoPod;
    std::vector<std::string> image_paths;
    // Tiered mode, per member (same order as the member list): where each
    // image landed at commit time (checkpoints — feeds the generation
    // manifest) and which tier served each restore (ckpt::Tier as u8,
    // 255 = unset).
    std::vector<std::vector<ckpt::Replica>> replica_sets;
    std::vector<std::uint8_t> restore_sources;
    // Hierarchical mode: number of shards (0 = flat) and the maximum
    // number of distinct destinations any single endpoint addressed
    // during the op (flat: N at the root; hierarchical: the larger of
    // the shard count and the largest shard).
    std::uint32_t shard_count = 0;
    std::uint32_t max_endpoint_fanout = 0;
  };

  // What a restarted coordinator found in its intent journal.
  struct RecoveryReport {
    bool had_incomplete = false;
    std::uint64_t epoch = 0;      // epoch of the in-flight op
    bool was_restart = false;
    std::size_t images_removed = 0;  // partial images garbage-collected
  };

  using DoneFn = std::function<void(const OpStats&)>;

  // Journal recovery and op aborts reap images from `store` on every
  // tier; it is passed at construction because recovery runs in the
  // constructor.
  Coordinator(os::Node& node, ckpt::TieredStore& store,
              std::string journal_path = IntentJournal::kDefaultPath);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  // Coordinated checkpoint of one pod per member. Image paths are derived
  // from options.image_prefix and reported in the stats. Members must sit
  // on distinct agents (one pod per node per op); a repeated agent address
  // throws UsageError before the op takes an epoch. Same for Restart.
  void Checkpoint(std::vector<Member> members, Options options, DoneFn done);

  // Coordinated restart from previously written images (one per member,
  // same order).
  void Restart(std::vector<Member> members,
               std::vector<std::string> image_paths, Options options,
               DoneFn done);

  bool busy() const { return op_active_; }
  std::uint64_t epoch() const { return epoch_; }
  const RecoveryReport& recovery() const { return recovery_; }

  // Deterministic fault injection (tests/benches); nullptr disables.
  void set_fault_injector(fault::Injector* injector) {
    port_.set_fault_injector(injector);
  }

  // Sabotage hook for oracle self-tests: broadcast <continue> twice from
  // the protocol layer (above the fault-injection hooks, so the extra
  // copies count as real sends). Never set outside tests.
  void set_test_duplicate_continue(bool dup) { test_duplicate_continue_ = dup; }

  static std::string ImagePath(const std::string& prefix, os::PodId pod) {
    return prefix + "/pod_" + std::to_string(pod) + ".img";
  }

 private:
  void Begin(bool is_restart, std::vector<Member> members,
             std::vector<std::string> image_paths, Options options,
             DoneFn done);
  void OnMessage(net::Endpoint from, const CoordMessage& m);
  // Sends one message to dst:port, counting it in the op's stats.
  void SendControl(net::Ipv4Address dst, std::uint16_t port,
                   const CoordMessage& m);
  void OnAllDone();
  void BroadcastContinue();
  void AbortOp(const std::string& reason);
  void Finish(bool success);
  void ScheduleHeartbeat();
  void HeartbeatTick();
  // Journal replay at construction: fence + clean up a predecessor's
  // in-flight op (the driver's Begin over the intent, then Abort).
  void RecoverFromJournal();

  os::Node& node_;
  IntentJournal journal_;
  bool test_duplicate_continue_ = false;
  // Monotonic fencing epoch, persisted through the journal. Each op gets
  // epoch_ + 1; op ids equal epochs so they are also globally unique.
  std::uint64_t epoch_ = 0;
  RecoveryReport recovery_;
  ControlPort port_;

  bool op_active_ = false;
  Options options_;
  OpStats stats_;
  DoneFn done_fn_;
  TimeNs op_start_ = 0;
  sim::EventId timeout_event_ = sim::kInvalidEventId;
  sim::EventId heartbeat_event_ = sim::kInvalidEventId;
  // Tracing: the whole op, the freeze phase (first request -> last
  // <done>), and the commit phase (<continue> -> last <continue-done>).
  obs::SpanId op_span_ = obs::kInvalidSpanId;
  obs::SpanId freeze_span_ = obs::kInvalidSpanId;
  obs::SpanId commit_span_ = obs::kInvalidSpanId;
  std::map<std::uint32_t, std::uint32_t> missed_heartbeats_;  // by endpoint
  PhaseDriver driver_;
};

}  // namespace cruz::coord
