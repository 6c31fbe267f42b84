// Coordination protocol messages (paper Fig. 2 / Fig. 4 / §5).
//
// The Checkpoint Coordinator and per-node Checkpoint Agents exchange these
// over UDP using node-level addresses (never pod addresses), so the
// netfilter drop rule a checkpoint installs can never cut off control
// traffic (paper footnote 4).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ckpt/store/replica.h"
#include "common/bytes.h"
#include "common/units.h"
#include "net/address.h"
#include "os/types.h"

namespace cruz::os {
class Node;
}  // namespace cruz::os
namespace cruz::fault {
class Injector;
}  // namespace cruz::fault

namespace cruz::coord {

constexpr std::uint16_t kAgentPort = 7001;
constexpr std::uint16_t kCoordinatorPort = 7002;
// Hierarchical mode: every node runs a (mostly idle) sub-coordinator on
// this port; the root addresses shards by their first member's node.
constexpr std::uint16_t kShardPort = 7003;

enum class MsgType : std::uint8_t {
  kCheckpoint = 1,    // coordinator -> agent: take a local checkpoint
  kDone = 2,          // agent -> coordinator: local checkpoint complete
  kContinue = 3,      // coordinator -> agent: resume execution
  kContinueDone = 4,  // agent -> coordinator: resumed
  kRestart = 5,       // coordinator -> agent: restore from image
  kAbort = 6,         // coordinator -> agent: cancel, resume as-is
  kCommDisabled = 7,  // agent -> coordinator: Fig. 4 early notification
  // 8 and 9 are retired; Decode rejects them.
  // Failure-model extensions (the paper notes the protocol "can be
  // extended in a straightforward way to tolerate Coordinator and Agent
  // failures"):
  kFailed = 10,  // agent -> coordinator: local operation failed fast
  kPing = 11,    // coordinator -> agent: liveness probe during an op
  kPong = 12,    // agent -> coordinator: liveness reply
  // Hierarchical coordination (DESIGN.md §13): the root broadcasts each
  // phase to per-node sub-coordinators, which fan the flat protocol out
  // to their agent shard and return one aggregated ack. Sub-coordinator
  // replies use distinct types from agent replies so a sub and the agent
  // co-located on the same node can never produce colliding correlation
  // ids (CorrId keys on op:type:sender:seq).
  kShardCheckpoint = 13,    // root -> sub: checkpoint your shard members
  kShardRestart = 14,       // root -> sub: restart your shard members
  kShardContinue = 15,      // root -> sub: broadcast <continue> to shard
  kShardAbort = 16,         // root -> sub: cancel, clean up the shard
  kShardDone = 17,          // sub -> root: every member reported <done>
  kShardContinueDone = 18,  // sub -> root: every member resumed
  kShardCommDisabled = 19,  // sub -> root: Fig. 4 aggregated notification
  kShardFailed = 20,        // sub -> root: a member failed (its pod in
                            // pod_id) / gave up (kNoPod)
  kShardPong = 21,          // sub -> root: liveness reply to kPing
  // Post-copy migration page-server channel (DESIGN.md §14). These flow
  // between the migration target (requester) and the source's frozen
  // page store; ckpt/live_migrate.cc mirrors the raw byte values so the
  // ckpt library does not link against coord.
  kPageRequest = 22,   // target -> source: demand-fetch one page
  kPageResponse = 23,  // source -> target: page content delivery
};

// Human-readable message-type name (trace/metric labels).
const char* MsgTypeName(MsgType type);

enum class ProtocolVariant : std::uint8_t {
  kBlocking = 0,   // Fig. 2: all nodes resume after global completion
  kOptimized = 1,  // Fig. 4: resume as soon as local save completes,
                   // once communication is disabled everywhere
};

// One agent in a sub-coordinator's shard. Downward (kShardCheckpoint /
// kShardRestart) it names the member and its per-member request
// parameters; upward (kShardDone) it carries the member's tiered-commit
// report so the root can assemble the generation manifest.
struct ShardMember {
  std::uint32_t agent_ip = 0;  // node address (Ipv4Address value)
  std::uint32_t pod = 0;
  std::string image_path;
  std::uint8_t restore_source = 255;    // upward: tier that served a restart
  std::vector<ckpt::Replica> replicas;  // upward: where the image landed
};

// A member's identity: agent, pod and image path. The intent journal
// records a member by these alone (see FieldRef in common/bytes.h).
template <typename Io>
void MemberIdFields(Io& io, cruz::FieldRef<Io, ShardMember> sm) {
  io.U32(sm.agent_ip);
  io.U32(sm.pod);
  io.String(sm.image_path);
}

// The roster entry a shard message carries: the identity, then the
// member's tiered report.
template <typename Io>
void Fields(Io& io, cruz::FieldRef<Io, ShardMember> sm) {
  MemberIdFields(io, sm);
  io.U8(sm.restore_source);
  io.Seq(sm.replicas, [&](auto& rep) { ckpt::Fields(io, rep); });
}

struct CoordMessage {
  MsgType type = MsgType::kCheckpoint;
  std::uint64_t op_id = 0;     // one coordinated operation
  // Fencing epoch: globally monotonic across coordinator incarnations
  // (persisted in the coordinator's intent journal). Agents remember the
  // highest epoch observed and silently reject lower-epoch requests, so a
  // delayed or replayed op from a dead coordinator can never start work
  // after a newer op has been seen.
  std::uint64_t epoch = 0;
  os::PodId pod_id = 0;        // target pod on the receiving node
  ProtocolVariant variant = ProtocolVariant::kBlocking;
  std::string image_path;      // checkpoint/restart image in the shared FS
  // §5.2 optimizations: incremental saves only pages dirtied since the
  // agent's previous checkpoint of this pod; copy-on-write lets the pod
  // resume right after the in-memory capture, while the disk write
  // completes in the background.
  bool incremental = false;
  bool copy_on_write = false;
  // Write version-2 images with RLE-compressed pages (self-describing
  // header; agents restoring read either version).
  bool compress = false;
  // Tiered storage: checkpoints commit to the local + partner disk tiers
  // (netfs flush in the background) and restarts resolve images across
  // the tier hierarchy instead of reading the netfs directly.
  bool tiered = false;

  // Agent-reported local durations (kDone / kContinueDone), used by the
  // coordinator to compute the coordination overhead exactly as §6 does:
  // total latency minus the max local checkpoint and continue times.
  DurationNs local_duration = 0;
  // Agent-reported pod downtime (kDone): how long the pod's processes
  // were actually stopped. Under copy-on-write this covers only the
  // stop-the-world snapshot, not the background write-out.
  DurationNs downtime = 0;
  // Messages exchanged below the sender (a sub-coordinator's shard
  // traffic), for the op's message count.
  std::uint32_t extra_messages = 0;
  // Correlation sequence: monotonic per sending process, assigned at every
  // Send (a retransmission is a new send, a wire-level duplicate is not).
  // Together with the sender address it names one transmission, which is
  // how the causal analyzer joins send instants to receive instants even
  // under drop/dup/delay fault plans. 0 = unset (pre-correlation sender).
  std::uint32_t corr_seq = 0;
  // Tiered mode, kDone after a checkpoint: where the agent's image landed
  // (local + partner replicas), recorded in the generation manifest.
  std::vector<ckpt::Replica> replicas;
  // Tiered mode, kDone after a restart: which tier actually served the
  // image (ckpt::Tier; 255 = unset/legacy netfs read).
  std::uint8_t restore_source = 255;
  // Hierarchical mode. Downward: the shard roster a sub-coordinator must
  // drive, plus the root's op timeout so an orphaned sub can self-clean
  // shortly after the root would have given up. Upward (kShardDone): the
  // per-member tiered reports.
  std::vector<ShardMember> shard_members;
  DurationNs op_timeout = 0;
  // Roster fragmentation: a full shard roster can exceed the Ethernet
  // MTU (the stack does not IP-fragment), so shard requests carry the
  // total roster size and the sub-coordinator accumulates fragments
  // until it has this many distinct members. 0 = unfragmented.
  std::uint32_t member_total = 0;

  cruz::Bytes Encode() const;
  static CoordMessage Decode(cruz::ByteSpan wire);
};

// Correlation id for trace send/recv instants: "<op>:<type>:<sender>:<seq>".
// Both ends can compute it — the sender knows its own address, the receiver
// reads the datagram source — so matching needs no shared state.
std::string CorrId(const CoordMessage& m, const std::string& sender);

// Splits a message whose shard roster could exceed the Ethernet MTU (the
// stack does not IP-fragment; an oversized frame is dropped at the NIC)
// into copies each carrying an MTU-safe slice of shard_members plus
// member_total = the full roster size, so the receiver can tell when it
// holds every member. A message with no roster yields one unchanged copy.
// Used for both directions: root -> sub requests and the sub's aggregated
// <shard-done> report.
std::vector<CoordMessage> FragmentRoster(const CoordMessage& full);

// One process's end of the control channel: its UDP service on `port`,
// its correlation sequence, its `<category>.msg.send` / `.msg.recv`
// instants and the fault plan's fate for each transmission. Every
// coordination datagram is sent and received through a port, from the
// node's own address — never a pod address, so the drop filter a
// checkpoint installs cannot cut the control channel (paper footnote 4).
class ControlPort {
 public:
  using Handler = std::function<void(net::Endpoint from, const CoordMessage&)>;

  // `handler` gets every decodable datagram after its recv instant, which
  // carries the sender's corr id (an undecodable payload is dropped
  // unrecorded). `sent_metric` (nullptr = none) counts every send.
  ControlPort(os::Node& node, std::string category, std::uint16_t port,
              const char* sent_metric, Handler handler);
  ~ControlPort();

  ControlPort(const ControlPort&) = delete;
  ControlPort& operator=(const ControlPort&) = delete;

  // Deterministic fault injection (tests/benches); nullptr disables.
  void set_fault_injector(fault::Injector* injector) { fault_ = injector; }
  fault::Injector* fault() const { return fault_; }
  // A deaf port drops every datagram unheard (a crashed process).
  void set_deaf(bool deaf) { deaf_ = deaf; }
  bool deaf() const { return deaf_; }
  const std::string& category() const { return category_; }

  // Sends `m` as one UDP datagram. It is stamped with a fresh correlation
  // sequence and its send instant (Pod attribute: `trace_pod`) recorded
  // before the fault plan decides its fate, so a dropped transmission
  // still leaves a send instant and a wire duplicate shares its corr id.
  void Send(net::Endpoint to, CoordMessage m,
            os::PodId trace_pod = os::kNoPod);

 private:
  void OnDatagram(net::Endpoint from, const cruz::Bytes& payload);

  os::Node& node_;
  std::string category_;
  std::uint16_t port_;
  const char* sent_metric_;
  Handler handler_;
  fault::Injector* fault_ = nullptr;
  bool deaf_ = false;
  // Monotonic per port: a retransmission is a new send, a wire-level
  // duplicate is not. An agent's or sub's port outlives its simulated
  // process restarts (Crash/Reset), so its trace identity stays unique.
  std::uint32_t next_corr_seq_ = 0;
};

}  // namespace cruz::coord
