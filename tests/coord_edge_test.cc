// Edge cases of the coordination API and protocol: coordinator busy
// preconditions, restart with a missing image, checkpoint of an unknown
// pod, agents that receive protocol messages out of any operation, and
// the control-message codec's accepted values.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "apps/programs.h"
#include "common/error.h"
#include "cruz/cluster.h"

namespace cruz::coord {
namespace {

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
  ClusterConfig config;
  config.num_nodes = 1;
  Cluster c(config);
  os::PodId id = c.CreatePod(0, "job");
  c.pods(0).SpawnInPod(id, "cruz.counter", apps::CounterArgs(1u << 30));
  c.sim().RunFor(10 * kMillisecond);
  // A <continue> / <abort> / garbage datagram outside any operation must
  // not disturb the agent or the pod.
  auto send_to_agent = [&](cruz::Bytes payload) {
    net::UdpDatagram dgram;
    dgram.src_port = kCoordinatorPort;
    dgram.dst_port = kAgentPort;
    dgram.payload = std::move(payload);
    net::Ipv4Packet pkt;
    pkt.src = c.coordinator_node().ip();
    pkt.dst = c.node(0).ip();
    pkt.proto = net::IpProto::kUdp;
    pkt.payload = dgram.Encode();
    c.coordinator_node().stack().SendIpv4(pkt);
  };
  CoordMessage stray;
  stray.type = MsgType::kContinue;
  stray.op_id = 777;
  send_to_agent(stray.Encode());
  stray.type = MsgType::kAbort;
  send_to_agent(stray.Encode());
  send_to_agent(cruz::Bytes{0xDE, 0xAD});  // undecodable
  c.sim().RunFor(kSecond);
  os::Pid real = c.pods(0).ToRealPid(id, 1);
  os::Process* proc = c.node(0).os().FindProcess(real);
  ASSERT_NE(proc, nullptr);
  EXPECT_EQ(proc->state(), os::ProcessState::kLive);
  // A genuine checkpoint still works afterwards.
  auto stats = c.RunCheckpoint({c.MemberFor(0, id)});
  EXPECT_TRUE(stats.success);
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
