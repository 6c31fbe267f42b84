// Edge cases of the coordination API and protocol: coordinator busy
// preconditions, restart with a missing image, checkpoint of an unknown
// pod, agents that receive protocol messages out of any operation, the
// receiver rules agents and sub-coordinators share, and the
// control-message codec's accepted values.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "apps/programs.h"
#include "ckpt/image.h"
#include "ckpt/store/tiered_store.h"
#include "common/error.h"
#include "coord/phase_driver.h"
#include "cruz/cluster.h"
#include "obs/trace_query.h"

namespace cruz::coord {
namespace {

// A stand-in coordinator on a spare port of the coordinator node: sends
// hand-built datagrams to one node's agent or sub-coordinator and
// collects every reply addressed back to it.
class RawPeer {
 public:
  static constexpr std::uint16_t kPort = 7100;

  explicit RawPeer(Cluster& c) : c_(c) {
    c_.coordinator_node().stack().RegisterUdpService(
        kPort, [this](net::Endpoint, const cruz::Bytes& payload) {
          replies_.push_back(CoordMessage::Decode(payload));
        });
  }
  ~RawPeer() { c_.coordinator_node().stack().UnregisterUdpService(kPort); }

  void Send(std::size_t node, std::uint16_t port, cruz::Bytes payload) {
    net::UdpDatagram dgram;
    dgram.src_port = kPort;
    dgram.dst_port = port;
    dgram.payload = std::move(payload);
    net::Ipv4Packet pkt;
    pkt.src = c_.coordinator_node().ip();
    pkt.dst = c_.node(node).ip();
    pkt.proto = net::IpProto::kUdp;
    pkt.payload = dgram.Encode();
    c_.coordinator_node().stack().SendIpv4(pkt);
  }
  void Send(std::size_t node, std::uint16_t port, const CoordMessage& m) {
    Send(node, port, m.Encode());
  }

  // The replies received since the last call, oldest first.
  std::vector<CoordMessage> Take() { return std::exchange(replies_, {}); }

 private:
  Cluster& c_;
  std::vector<CoordMessage> replies_;
};

std::vector<MsgType> Types(const std::vector<CoordMessage>& messages) {
  std::vector<MsgType> types;
  for (const CoordMessage& m : messages) types.push_back(m.type);
  return types;
}

os::PodId SpawnCounterPod(Cluster& c, std::size_t node) {
  os::PodId id = c.CreatePod(node, "p" + std::to_string(node));
  c.pods(node).SpawnInPod(id, "cruz.counter", apps::CounterArgs(1u << 30));
  return id;
}

bool PodProcessLive(Cluster& c, std::size_t node, os::PodId pod) {
  os::Process* proc =
      c.node(node).os().FindProcess(c.pods(node).ToRealPid(pod, 1));
  return proc != nullptr && proc->state() == os::ProcessState::kLive;
}

// One receiver of coordinator requests, driven through RawPeer: node 0's
// agent at depth 1, or node 0's sub-coordinator at depth 2 (its shard is
// node 0's agent alone).
struct Receiver {
  static ClusterConfig OneNode() {
    ClusterConfig config;
    config.num_nodes = 1;
    return config;
  }
  explicit Receiver(const PhaseDriver::Wire& w) : wire(w) {
    c.sim().RunFor(10 * kMillisecond);
  }

  // A request of this depth for op `op` (op id = epoch, as the root
  // assigns them), naming pod `pod` and writing /ckpt/raw/op<op>.img.
  CoordMessage Request(MsgType type, std::uint64_t op) {
    CoordMessage m;
    m.type = type;
    m.op_id = m.epoch = op;
    m.image_path = ImagePath(op);
    if (wire.roster) {
      ShardMember member;
      member.agent_ip = c.node(0).ip().value;
      member.pod = pod;
      member.image_path = m.image_path;
      m.shard_members = {member};
    } else {
      m.pod_id = pod;
    }
    return m;
  }
  void Send(const CoordMessage& m) { peer.Send(0, wire.port, m); }
  // Ops this receiver has run: checkpoints an agent started, shard ops a
  // sub completed.
  std::uint64_t served() {
    return wire.roster ? c.shard_coordinator(0).ops_served()
                       : c.agent(0).checkpoints_served();
  }
  static std::string ImagePath(std::uint64_t op) {
    return "/ckpt/raw/op" + std::to_string(op) + ".img";
  }

  const PhaseDriver::Wire& wire;
  Cluster c{OneNode()};
  os::PodId pod = SpawnCounterPod(c, 0);
  RawPeer peer{c};
};

TEST(CoordEdge, SecondOperationWhileBusyIsRejected) {
  ClusterConfig config;
  config.num_nodes = 1;
  Cluster c(config);
  os::PodId id = c.CreatePod(0, "job");
  c.pods(0).SpawnInPod(id, "cruz.counter", apps::CounterArgs(1u << 30));
  c.sim().RunFor(10 * kMillisecond);
  bool first_done = false;
  c.coordinator().Checkpoint({c.MemberFor(0, id)}, {},
                             [&](const Coordinator::OpStats&) {
                               first_done = true;
                             });
  EXPECT_TRUE(c.coordinator().busy());
  EXPECT_THROW(
      c.coordinator().Checkpoint({c.MemberFor(0, id)}, {}, nullptr),
      InvariantError);
  ASSERT_TRUE(c.sim().RunWhile([&] { return first_done; },
                               c.sim().Now() + 600 * kSecond));
  EXPECT_FALSE(c.coordinator().busy());
}

TEST(CoordEdge, RestartWithMissingImageTimesOut) {
  ClusterConfig config;
  config.num_nodes = 1;
  Cluster c(config);
  Coordinator::Options options;
  options.timeout = 2 * kSecond;
  options.retransmit_interval = 0;  // no point retrying a missing file
  auto stats = c.RunRestart({c.MemberFor(0, 12345)},
                            {"/ckpt/never-written.img"}, options);
  EXPECT_FALSE(stats.success);
}

TEST(CoordEdge, CheckpointOfUnknownPodTimesOut) {
  ClusterConfig config;
  config.num_nodes = 1;
  Cluster c(config);
  Coordinator::Options options;
  options.timeout = 2 * kSecond;
  options.retransmit_interval = 0;
  auto stats = c.RunCheckpoint({c.MemberFor(0, /*pod=*/9999)}, options);
  EXPECT_FALSE(stats.success);
  // The node itself is unharmed and can serve a real checkpoint next.
  os::PodId id = c.CreatePod(0, "job");
  c.pods(0).SpawnInPod(id, "cruz.counter", apps::CounterArgs(1u << 30));
  c.sim().RunFor(10 * kMillisecond);
  auto ok = c.RunCheckpoint({c.MemberFor(0, id)});
  EXPECT_TRUE(ok.success);
}

TEST(CoordEdge, StrayProtocolMessagesIgnored) {
  Receiver r(PhaseDriver::kAgents);
  // A <continue> / <abort> / garbage datagram outside any operation must
  // not disturb the agent or the pod, and draws no reply.
  CoordMessage stray;
  stray.type = MsgType::kContinue;
  stray.op_id = 777;
  r.Send(stray);
  stray.type = MsgType::kAbort;
  r.Send(stray);
  r.peer.Send(0, kAgentPort, cruz::Bytes{0xDE, 0xAD});  // undecodable
  r.c.sim().RunFor(kSecond);
  EXPECT_TRUE(PodProcessLive(r.c, 0, r.pod));
  EXPECT_TRUE(r.peer.Take().empty());
  // A genuine checkpoint still works afterwards.
  auto stats = r.c.RunCheckpoint({r.c.MemberFor(0, r.pod)});
  EXPECT_TRUE(stats.success);
}

// The rules every receiver of coordinator requests keeps, pinned at both
// depths: `pong` answers a <ping> mid-op, and `cached` is the reply set a
// retransmitted request of a completed op gets. Stale-epoch requests are
// pinned by Fault.EpochFencingDropsStaleCoordinatorRequests (agent) and
// CoordHier.EpochFencingAcrossRootRestartWithLiveSubs (sub).
void CheckParticipantRules(const PhaseDriver::Wire& wire, MsgType pong,
                           const std::vector<MsgType>& cached) {
  Receiver r(wire);
  // A <ping> mid-op is answered at once, ahead of the op's <done>.
  r.Send(r.Request(wire.checkpoint, 5));
  CoordMessage ping = r.Request(MsgType::kPing, 5);
  r.Send(ping);
  r.c.sim().RunFor(kSecond);
  std::vector<CoordMessage> replies = r.peer.Take();
  ASSERT_EQ(Types(replies), (std::vector<MsgType>{pong, wire.done}));
  EXPECT_EQ(replies[0].op_id, 5u);
  EXPECT_EQ(replies[0].pod_id, ping.pod_id);  // the agent's carries the pod
  r.Send(r.Request(wire.cont, 5));
  r.c.sim().RunFor(kSecond);
  EXPECT_EQ(Types(r.peer.Take()),
            (std::vector<MsgType>{wire.continue_done}));
  EXPECT_EQ(r.served(), 1u);

  // Retransmissions after completion are answered from the reply cache;
  // nothing runs again.
  r.Send(r.Request(wire.checkpoint, 5));
  r.c.sim().RunFor(kSecond);
  EXPECT_EQ(Types(r.peer.Take()), cached);
  r.Send(r.Request(wire.cont, 5));
  r.c.sim().RunFor(kSecond);
  EXPECT_EQ(Types(r.peer.Take()),
            (std::vector<MsgType>{wire.continue_done}));
  EXPECT_EQ(r.served(), 1u);

  // A request overtaken by its own <abort> is never served.
  r.Send(r.Request(wire.abort, 6));
  r.Send(r.Request(wire.checkpoint, 6));
  r.c.sim().RunFor(kSecond);
  EXPECT_TRUE(r.peer.Take().empty());
  EXPECT_EQ(r.served(), 1u);
  EXPECT_FALSE(r.c.fs().Exists(Receiver::ImagePath(6)));
  EXPECT_TRUE(r.c.fs().Exists(Receiver::ImagePath(5)));
  EXPECT_TRUE(PodProcessLive(r.c, 0, r.pod));
}

TEST(CoordEdge, AgentKeepsParticipantRules) {
  CheckParticipantRules(PhaseDriver::kAgents, MsgType::kPong,
                        {MsgType::kDone, MsgType::kContinueDone});
}

TEST(CoordEdge, SubCoordinatorKeepsParticipantRules) {
  CheckParticipantRules(PhaseDriver::kShards, MsgType::kShardPong,
                        {MsgType::kShardDone});
}

// An op whose <abort> was lost must not wedge its receiver: a request
// with a newer epoch aborts it (pod resumed, drop filter removed, image
// and incremental baseline discarded) and is then served.
void CheckNewerEpochSupersedes(const PhaseDriver::Wire& wire) {
  Receiver r(wire);
  auto incremental = [&](std::uint64_t op) {
    CoordMessage m = r.Request(wire.checkpoint, op);
    m.incremental = true;
    return m;
  };
  // Op 5 completes and leaves op5.img as the incremental baseline.
  r.Send(incremental(5));
  r.c.sim().RunFor(kSecond);
  r.Send(r.Request(wire.cont, 5));
  r.c.sim().RunFor(kSecond);
  ASSERT_EQ(Types(r.peer.Take()),
            (std::vector<MsgType>{wire.done, wire.continue_done}));

  // Op 6 starts; its coordinator moves on to op 7 and the <abort> of op 6
  // never arrives.
  r.Send(incremental(6));
  r.c.sim().RunFor(200 * kMicrosecond);
  ASSERT_TRUE(r.peer.Take().empty());  // op 6 is mid-save
  r.Send(incremental(7));
  r.c.sim().RunFor(kSecond);
  std::vector<CoordMessage> replies = r.peer.Take();
  ASSERT_EQ(Types(replies), (std::vector<MsgType>{wire.done}));
  EXPECT_EQ(replies[0].op_id, 7u);
  r.Send(r.Request(wire.cont, 7));
  r.c.sim().RunFor(kSecond);
  EXPECT_EQ(Types(r.peer.Take()),
            (std::vector<MsgType>{wire.continue_done}));

  obs::TraceQuery q(r.c.sim().tracer());
  auto count = [&](const char* name) {
    return q.Count(obs::TraceQuery::Filter{}.Name(name).Op(6));
  };
  EXPECT_EQ(count("agent.abort"), 1u);
  EXPECT_EQ(count("agent.filter.remove"), 1u);
  EXPECT_FALSE(r.c.fs().Exists(Receiver::ImagePath(6)));
  // Op 6's snapshot consumed the dirty bits, so op 7 must be full.
  cruz::Bytes raw;
  ASSERT_TRUE(SysOk(r.c.tiered().Resolve(nullptr, Receiver::ImagePath(7),
                                         raw)));
  EXPECT_FALSE(ckpt::PodCheckpoint::Deserialize(raw).incremental);
  EXPECT_TRUE(PodProcessLive(r.c, 0, r.pod));
}

TEST(CoordEdge, NewerEpochSupersedesAgentOpWhoseAbortWasLost) {
  CheckNewerEpochSupersedes(PhaseDriver::kAgents);
}

TEST(CoordEdge, NewerEpochSupersedesSubOpWhoseAbortWasLost) {
  CheckNewerEpochSupersedes(PhaseDriver::kShards);
}

// A decodable <shard-checkpoint> with no roster is malformed input: the
// sub drops it like an undecodable datagram, before it can move the epoch
// fence, and the tree keeps working.
TEST(CoordEdge, ShardRequestWithEmptyRosterIsDropped) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  std::vector<Coordinator::Member> members;
  for (std::size_t i = 0; i < 2; ++i) {
    members.push_back(c.MemberFor(i, SpawnCounterPod(c, i)));
  }
  c.sim().RunFor(10 * kMillisecond);
  RawPeer peer(c);
  CoordMessage empty;
  empty.type = MsgType::kShardCheckpoint;
  empty.op_id = empty.epoch = 7;
  peer.Send(0, kShardPort, empty);
  EXPECT_NO_THROW(c.sim().RunFor(kSecond));
  EXPECT_TRUE(peer.Take().empty());
  EXPECT_FALSE(c.shard_coordinator(0).busy());

  Coordinator::Options options;
  options.fan_out = 2;
  auto stats = c.RunCheckpoint(members, options);
  EXPECT_TRUE(stats.success);
  EXPECT_EQ(stats.epoch, 1u);
}

TEST(CoordEdge, ManyPodsOneCheckpointEach) {
  // Eight pods across four nodes, checkpointed two at a time (the
  // coordinator handles one operation at a time; callers sequence them).
  // Each op takes its two pods from different nodes: an agent serves one
  // pod per op.
  ClusterConfig config;
  config.num_nodes = 4;
  Cluster c(config);
  std::vector<os::PodId> pods;
  for (int i = 0; i < 8; ++i) {
    std::size_t node = static_cast<std::size_t>(i) % 4;
    pods.push_back(c.CreatePod(node, "p" + std::to_string(i)));
    c.pods(node).SpawnInPod(pods.back(), "cruz.counter",
                            apps::CounterArgs(1u << 30));
  }
  c.sim().RunFor(10 * kMillisecond);
  for (int pair = 0; pair < 4; ++pair) {
    std::size_t a = static_cast<std::size_t>(pair);
    std::size_t b = 4 + (a + 1) % 4;
    coord::Coordinator::Options options;
    options.image_prefix = "/ckpt/pair" + std::to_string(pair);
    auto stats = c.RunCheckpoint(
        {c.MemberFor(a % 4, pods[a]), c.MemberFor(b % 4, pods[b])},
        options);
    EXPECT_TRUE(stats.success) << "pair " << pair;
    for (const std::string& path : stats.image_paths) {
      EXPECT_TRUE(c.fs().Exists(path)) << path;
    }
  }
  // All eight pods still alive and running afterwards.
  for (int i = 0; i < 8; ++i) {
    std::size_t node = static_cast<std::size_t>(i) % 4;
    EXPECT_EQ(c.node(node).os().PodProcesses(pods[static_cast<std::size_t>(
                  i)]).size(),
              1u);
  }
}

// Every message type on the protocol survives the codec and has a name;
// every other type byte (0, the retired 8 and 9, past the last) and the
// retired third protocol variant fail to decode. The encoded length is
// pinned: a shorter datagram would shift every simulated transmit time.
TEST(CoordEdge, MessageCodecAcceptsExactlyTheProtocol) {
  const std::vector<MsgType> kTypes = {
      MsgType::kCheckpoint,        MsgType::kDone,
      MsgType::kContinue,          MsgType::kContinueDone,
      MsgType::kRestart,           MsgType::kAbort,
      MsgType::kCommDisabled,      MsgType::kFailed,
      MsgType::kPing,              MsgType::kPong,
      MsgType::kShardCheckpoint,   MsgType::kShardRestart,
      MsgType::kShardContinue,     MsgType::kShardAbort,
      MsgType::kShardDone,         MsgType::kShardContinueDone,
      MsgType::kShardCommDisabled, MsgType::kShardFailed,
      MsgType::kShardPong,         MsgType::kPageRequest,
      MsgType::kPageResponse,
  };
  for (MsgType type : kTypes) {
    CoordMessage m;
    m.type = type;
    m.op_id = 42;
    m.variant = ProtocolVariant::kOptimized;
    m.corr_seq = 7;
    CoordMessage back = CoordMessage::Decode(m.Encode());
    EXPECT_EQ(back.type, type);
    EXPECT_EQ(back.op_id, 42u);
    EXPECT_EQ(back.variant, ProtocolVariant::kOptimized);
    EXPECT_EQ(back.corr_seq, 7u);
    EXPECT_STRNE(MsgTypeName(type), "unknown");
  }

  const cruz::Bytes wire = CoordMessage{}.Encode();
  EXPECT_EQ(wire.size(), 83u);
  for (unsigned byte = 0; byte <= 0xFF; ++byte) {
    const bool known =
        std::find(kTypes.begin(), kTypes.end(),
                  static_cast<MsgType>(byte)) != kTypes.end();
    cruz::Bytes typed = wire;
    typed[0] = static_cast<std::uint8_t>(byte);
    if (known) {
      EXPECT_NO_THROW(CoordMessage::Decode(typed)) << byte;
    } else {
      EXPECT_THROW(CoordMessage::Decode(typed), cruz::CodecError) << byte;
    }
  }
  // The variant byte follows type, op id, epoch and pod id.
  constexpr std::size_t kVariantOffset = 1 + 8 + 8 + 4;
  cruz::Bytes variant = wire;
  variant[kVariantOffset] = 1;
  EXPECT_EQ(CoordMessage::Decode(variant).variant,
            ProtocolVariant::kOptimized);
  variant[kVariantOffset] = 2;
  EXPECT_THROW(CoordMessage::Decode(variant), cruz::CodecError);
}

}  // namespace
}  // namespace cruz::coord
