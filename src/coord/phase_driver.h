// One Fig. 2 exchange over a list of endpoints (DESIGN.md §13).
//
// The coordination protocol is a single two-phase fan-out: send
// <checkpoint> (or <restart>) to every endpoint and wait for every
// <done>, then send <continue> to every endpoint and wait for every
// <continue-done>. The root coordinator and each sub-coordinator run
// exactly this exchange, so both drive it through a PhaseDriver:
//
//  - depth 1 (fan_out = 0): one endpoint per member, its agent. This is
//    the flat protocol, and what a sub-coordinator runs with its shard;
//  - depth 2 (fan_out = F): one endpoint per contiguous shard of at most F
//    members, the sub-coordinator on the shard's first node. The wire
//    table swaps in the shard-* message types, and requests carry the
//    shard roster.
//
// The driver owns the request fan-out; the pending <done> /
// <continue-done> / <comm-disabled> sets; folding every reply into the
// maxima and each member's replicas and restore source; the <continue>
// broadcast; retransmission (±25% seeded jitter, ×2 backoff capped at 4×
// the initial interval, and a round cap that only ticks while replies are
// owed); and aborting (an <abort> to every agent, then image removal on
// every storage tier). The owner supplies the transport — its control
// port and message accounting — and reacts to the phase transitions
// through Hooks. The receiving end of the exchange is a Participant
// (coord/participant.h).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "coord/message.h"
#include "os/node.h"
#include "sim/event_queue.h"

namespace cruz::ckpt {
class TieredStore;
}  // namespace cruz::ckpt

namespace cruz::coord {

// Retransmission backoff shared by every coordinator: each round waits
// twice as long as the last, up to 4× the initial interval, which keeps
// loss recovery responsive while shedding load.
constexpr std::uint32_t kRetransmitBackoff = 2;
constexpr std::uint32_t kRetransmitMaxIntervalFactor = 4;

class PhaseDriver {
 public:
  // The message types and port one depth of the tree speaks, plus the
  // nouns the root uses when it names a failed or silent endpoint.
  struct Wire {
    MsgType checkpoint, restart, cont, abort;
    MsgType done, continue_done, comm_disabled, failed, pong;
    std::uint16_t port;
    bool roster;  // requests carry the shard roster; replies aggregate it
    const char* failed_noun;
    const char* silent_noun;

    // A request a receiver at this depth must epoch-fence: one of the
    // four phase requests, or a liveness probe.
    bool IsRequest(MsgType type) const {
      return type == checkpoint || type == restart || type == cont ||
             type == abort || type == MsgType::kPing;
    }
  };
  static const Wire kAgents;  // depth 1
  static const Wire kShards;  // depth 2

  struct Retransmit {
    DurationNs interval = 0;       // initial interval; 0 = never retransmit
    std::uint32_t max_rounds = 0;  // give up after this many; 0 = no cap
  };

  // One endpoint the exchange addresses directly, driving the members
  // [first, first + count).
  struct Endpoint {
    net::Ipv4Address ip;
    os::PodId pod = os::kNoPod;  // depth 1: the member's pod
    std::size_t first = 0;
    std::size_t count = 0;
    bool owes_done = true;
    bool owes_continue_done = true;
    bool owes_comm_disabled = true;
    // Depth 2: members whose report arrived, across <shard-done>
    // fragments (the endpoint settles once the reply's member_total are
    // in).
    std::set<std::uint32_t> reported;
    // Highest cumulative message count the endpoint reported (depth 2:
    // its shard's traffic; always 0 at depth 1).
    std::uint32_t messages = 0;
  };

  struct Hooks {
    // Transmits `m` to dst:port through the owner's port and accounting.
    std::function<void(net::Ipv4Address dst, std::uint16_t port,
                       CoordMessage m)>
        send;
    std::function<void()> on_comm_disabled;  // Fig. 4: every endpoint
    std::function<void()> on_done;           // the last <done> arrived
    std::function<void()> on_continue_done;  // the last <continue-done>
    // <failed> from `from`, naming the member whose local part failed
    // (kNoPod: a sub-coordinator gave up on its shard).
    std::function<void(net::Ipv4Address from, os::PodId pod)> on_failed;
    std::function<void()> on_retry_cap;  // max_rounds rounds, still owed
  };

  PhaseDriver(os::Node& node, ckpt::TieredStore& store, Hooks hooks);
  ~PhaseDriver();

  PhaseDriver(const PhaseDriver&) = delete;
  PhaseDriver& operator=(const PhaseDriver&) = delete;

  // Sets up one exchange over `members` (distinct agent addresses): flat
  // when fan_out == 0, else over contiguous shards of ≤ fan_out members.
  // `request` is the agents' <checkpoint> or <restart>: op id, epoch,
  // variant and flags, and the op timeout a shard roster carries so an
  // orphaned sub self-cleans. Each endpoint gets it with its depth's
  // type, its pod, and its image path or shard roster. Sends nothing;
  // Start() does.
  void Begin(CoordMessage request, std::vector<ShardMember> members,
             std::uint32_t fan_out, Retransmit retransmit);
  // Step 1: sends the request to every endpoint and arms retransmission.
  void Start();
  // Folds one reply from `from` for this op; replies of other types are
  // ignored. Calls at most one hook, last.
  void OnReply(net::Ipv4Address from, const CoordMessage& m);
  // Step 3: <continue> to every endpoint, `copies` times (no-op if sent).
  void BroadcastContinue(int copies = 1);
  // Fences every agent with <abort> (at depth 2 every sub-coordinator with
  // <shard-abort> first) and reaps a checkpoint's images on every tier.
  // Returns how many members' images it removed. Journal recovery is
  // Begin() over the journaled intent, then Abort().
  std::size_t Abort();
  // Cancels retransmission; the exchange stays inspectable.
  void Stop();

  const Wire& wire() const { return *wire_; }
  bool is_restart() const { return request_.type == MsgType::kRestart; }
  const std::vector<Endpoint>& endpoints() const { return endpoints_; }
  const std::vector<ShardMember>& members() const { return members_; }
  std::uint32_t fan_out() const { return fan_out_; }
  std::uint32_t shard_count() const {
    return fan_out_ > 0 ? static_cast<std::uint32_t>(endpoints_.size()) : 0;
  }
  // Distinct destinations the busiest endpoint of the tree addresses.
  std::uint32_t max_fanout() const;

  bool owes_done() const { return done_owed_ > 0; }
  bool owes_continue_done() const { return continue_done_owed_ > 0; }
  bool continue_sent() const { return continue_sent_; }
  DurationNs max_local() const { return max_local_; }
  DurationNs max_downtime() const { return max_downtime_; }
  DurationNs max_continue() const { return max_continue_; }
  std::uint32_t retransmits() const { return retransmits_; }
  std::uint32_t aborts() const { return aborts_; }
  // Sum over endpoints of their reported cumulative message counts.
  std::uint32_t reported_messages() const;

 private:
  // A message of this op: type, op id, epoch and target pod.
  CoordMessage Message(MsgType type, os::PodId pod) const;
  void SendRequest(const Endpoint& ep);
  void SendContinue(const Endpoint& ep);
  void OnDone(Endpoint& ep, const CoordMessage& m);
  void ScheduleRetransmit();
  void RetransmitPending();
  void NoteRetransmit(MsgType type);

  os::Node& node_;
  ckpt::TieredStore& store_;
  Hooks hooks_;
  const Wire* wire_ = &kAgents;
  CoordMessage request_;
  std::vector<ShardMember> members_;
  std::vector<Endpoint> endpoints_;
  std::map<std::uint32_t, std::size_t> by_ip_;  // endpoint ip -> index
  std::uint32_t fan_out_ = 0;
  std::size_t done_owed_ = 0;
  std::size_t continue_done_owed_ = 0;
  std::size_t comm_disabled_owed_ = 0;
  bool continue_sent_ = false;
  DurationNs max_local_ = 0;
  DurationNs max_downtime_ = 0;
  DurationNs max_continue_ = 0;
  std::uint32_t retransmits_ = 0;
  std::uint32_t aborts_ = 0;
  Retransmit retransmit_;
  DurationNs interval_now_ = 0;
  std::uint32_t rounds_ = 0;
  sim::EventId retransmit_event_ = sim::kInvalidEventId;
};

}  // namespace cruz::coord
