// Byte-identity pins for the three non-image formats: the coordination
// message (Fig. 2 control traffic), the generation manifest and the
// coordinator's intent journal. Each fixed value is encoded and its size
// and CRC-32 pinned, so any change to a field list — order, width,
// framing — shows up here before it shifts a simulated timing or makes a
// stored manifest or journal unreadable.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ckpt/generation.h"
#include "ckpt/store/tiered_store.h"
#include "common/crc32.h"
#include "coord/journal.h"
#include "coord/message.h"
#include "os/netfs.h"
#include "sim/simulator.h"

namespace cruz {
namespace {

struct Pin {
  std::size_t size;
  std::uint32_t crc;
};

void ExpectPinned(const Bytes& bytes, Pin pin) {
  EXPECT_EQ(bytes.size(), pin.size);
  EXPECT_EQ(Crc32(bytes), pin.crc);
}

ckpt::Replica MakeReplica(ckpt::Tier tier, std::uint32_t node,
                          std::uint64_t size, std::uint32_t crc) {
  ckpt::Replica rep;
  rep.tier = tier;
  rep.node_index = node;
  rep.size = size;
  rep.crc32 = crc;
  return rep;
}

coord::ShardMember MakeMember(std::uint32_t ip, std::uint32_t pod,
                              std::string path, std::uint8_t source,
                              std::vector<ckpt::Replica> replicas) {
  coord::ShardMember sm;
  sm.agent_ip = ip;
  sm.pod = pod;
  sm.image_path = std::move(path);
  sm.restore_source = source;
  sm.replicas = std::move(replicas);
  return sm;
}

// Every field set, two roster members with replicas.
coord::CoordMessage ShardCheckpoint() {
  coord::CoordMessage m;
  m.type = coord::MsgType::kShardCheckpoint;
  m.op_id = 0x0102030405060708ull;
  m.epoch = 9;
  m.pod_id = 77;
  m.variant = coord::ProtocolVariant::kOptimized;
  m.image_path = "/ckpt/gens/gen_000003";
  m.incremental = true;
  m.copy_on_write = true;
  m.compress = true;
  m.tiered = true;
  m.local_duration = 123456789;
  m.downtime = 4567;
  m.extra_messages = 12;
  m.corr_seq = 31;
  m.replicas = {MakeReplica(ckpt::Tier::kLocal, 1, 17724, 0xDEADBEEF)};
  m.restore_source = 1;
  m.shard_members = {
      MakeMember(0x0A000001, 101, "/ckpt/gens/gen_000003/pod_101.img", 255,
                 {MakeReplica(ckpt::Tier::kLocal, 0, 5494, 0x11111111),
                  MakeReplica(ckpt::Tier::kPartner, 1, 5494, 0x11111111)}),
      MakeMember(0x0A000002, 102, "/ckpt/gens/gen_000003/pod_102.img", 2,
                 {MakeReplica(ckpt::Tier::kLocal, 1, 93, 0x22222222),
                  MakeReplica(ckpt::Tier::kPartner, 0, 93, 0x22222222)}),
  };
  m.op_timeout = 30 * kSecond;
  m.member_total = 5;
  return m;
}

TEST(WireCodecPin, ShardCheckpointMessage) {
  const Bytes wire = ShardCheckpoint().Encode();
  ExpectPinned(wire, Pin{289, 3381895772u});
  const coord::CoordMessage back = coord::CoordMessage::Decode(wire);
  EXPECT_EQ(back.Encode(), wire);
  ASSERT_EQ(back.shard_members.size(), 2u);
  EXPECT_EQ(back.shard_members[1].replicas.size(), 2u);
  EXPECT_EQ(back.op_timeout, 30 * kSecond);
  EXPECT_EQ(back.member_total, 5u);
}

TEST(WireCodecPin, ShardDoneMessage) {
  coord::CoordMessage m;
  m.type = coord::MsgType::kShardDone;
  m.op_id = 4;
  m.epoch = 4;
  m.corr_seq = 2;
  m.local_duration = 2 * kMillisecond;
  m.downtime = 700 * kMicrosecond;
  m.extra_messages = 6;
  m.member_total = 1;
  m.shard_members = {
      MakeMember(0x0A000003, 103, "", 0,
                 {MakeReplica(ckpt::Tier::kLocal, 2, 4462, 0x33333333)})};
  ExpectPinned(m.Encode(), Pin{117, 4185926745u});
}

// Two entries: one tiered with two replicas, one netfs-only without.
TEST(WireCodecPin, TwoEntryManifest) {
  sim::Simulator sim;
  os::NetworkFileSystem netfs;
  ckpt::TieredStore store(sim, netfs);
  ckpt::GenerationStore gens(store);
  std::vector<ckpt::ManifestEntry> entries(2);
  entries[0].pod = 101;
  entries[0].image_path = "/ckpt/gens/gen_000005/pod_101.img";
  entries[0].size = 17724;
  entries[0].crc32 = 722138257u;
  entries[0].replicas = {
      MakeReplica(ckpt::Tier::kLocal, 0, 17724, 722138257u),
      MakeReplica(ckpt::Tier::kPartner, 1, 17724, 722138257u)};
  entries[1].pod = 102;
  entries[1].image_path = "/ckpt/gens/gen_000005/pod_102.img";
  entries[1].size = 93;
  entries[1].crc32 = 2676245714u;
  gens.Commit(5, entries);

  Bytes raw;
  ASSERT_TRUE(SysOk(store.ReadMeta(gens.Prefix(5) + "/MANIFEST", raw)));
  ExpectPinned(raw, Pin{168, 2382274115u});
  auto back = gens.ReadManifest(5);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), 2u);
  EXPECT_EQ((*back)[0].replicas.size(), 2u);
  EXPECT_EQ((*back)[1].image_path, entries[1].image_path);
}

TEST(WireCodecPin, IntentJournalIntentAndOutcome) {
  os::NetworkFileSystem netfs;
  coord::IntentJournal journal(netfs);
  coord::JournalRecord intent;
  intent.type = coord::JournalRecord::Type::kIntent;
  intent.epoch = 6;
  intent.is_restart = true;
  intent.members = {
      MakeMember(0x0A000001, 101, "/ckpt/gens/gen_000006/pod_101.img", 255,
                 {}),
      MakeMember(0x0A000002, 102, "/ckpt/gens/gen_000006/pod_102.img", 255,
                 {})};
  intent.fan_out = 32;
  journal.Append(intent);
  journal.AppendOutcome(coord::JournalRecord::Type::kCommit, 6, true);

  Bytes raw;
  ASSERT_TRUE(SysOk(netfs.ReadFile(journal.path(), raw)));
  ExpectPinned(raw, Pin{142, 3028364632u});
  const std::vector<coord::JournalRecord> back = journal.ReadAll();
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].members.size(), 2u);
  EXPECT_EQ(back[0].fan_out, 32u);
  EXPECT_EQ(back[1].type, coord::JournalRecord::Type::kCommit);
}

// FragmentRoster packs by the member field list's encoded size, which
// is the roster's long-standing per-member budget of 17 bytes plus the
// image path plus 17 per replica, so fragment boundaries do not move.
TEST(WireCodec, RosterCostIsTheMemberEncoding) {
  for (std::size_t replicas : {0u, 2u}) {
    coord::ShardMember sm =
        MakeMember(0x0A000001, 101, "/ckpt/gens/gen_000003/pod_101.img", 255,
                   std::vector<ckpt::Replica>(
                       replicas, MakeReplica(ckpt::Tier::kLocal, 0, 1, 2)));
    ByteCounter cost;
    coord::Fields(cost, sm);
    EXPECT_EQ(cost.size(), 17 + sm.image_path.size() + 17 * replicas);
  }
  // 84 bytes a member: 14 fit the 1200-byte roster budget.
  coord::CoordMessage full = ShardCheckpoint();
  full.shard_members.resize(40, full.shard_members[0]);
  std::vector<std::size_t> sizes;
  for (const coord::CoordMessage& frag : coord::FragmentRoster(full)) {
    sizes.push_back(frag.shard_members.size());
    EXPECT_EQ(frag.member_total, 40u);
  }
  EXPECT_EQ(sizes, (std::vector<std::size_t>{14, 14, 12}));
}

// `body` in a record frame with a valid CRC, so a read reaches the body's
// field list.
Bytes Framed(ByteSpan body) {
  return FrameRecord([&](auto& io) { io.PutBytes(body); });
}

// Every strict prefix of a pinned message fails as CodecError and no
// other exception type.
TEST(WireCodec, EveryMessageTruncationIsACodecError) {
  const Bytes wire = ShardCheckpoint().Encode();
  for (std::size_t n = 0; n < wire.size(); ++n) {
    EXPECT_THROW(coord::CoordMessage::Decode(ByteSpan(wire).first(n)),
                 CodecError)
        << "prefix " << n;
  }
}

// A truncated manifest, or an intact frame around a truncated body,
// reads as absent.
TEST(WireCodec, EveryManifestTruncationReadsAsAbsent) {
  sim::Simulator sim;
  os::NetworkFileSystem netfs;
  ckpt::TieredStore store(sim, netfs);
  ckpt::GenerationStore gens(store);
  std::vector<ckpt::ManifestEntry> entries(2);
  entries[0].image_path = "/ckpt/gens/gen_000005/pod_101.img";
  entries[0].replicas = {MakeReplica(ckpt::Tier::kLocal, 0, 9, 1),
                         MakeReplica(ckpt::Tier::kPartner, 1, 9, 1)};
  entries[1].image_path = "/ckpt/gens/gen_000005/pod_102.img";
  gens.Commit(5, entries);
  const std::string path = gens.Prefix(5) + "/MANIFEST";
  Bytes raw;
  ASSERT_TRUE(SysOk(store.ReadMeta(path, raw)));
  const ByteSpan body = ByteSpan(raw).subspan(8);
  for (std::size_t n = 0; n < raw.size(); ++n) {
    store.PutMeta(path, Bytes(raw.begin(), raw.begin() + n));
    EXPECT_FALSE(gens.ReadManifest(5).has_value()) << "prefix " << n;
    if (n < body.size()) {
      store.PutMeta(path, Framed(body.first(n)));
      EXPECT_FALSE(gens.ReadManifest(5).has_value()) << "body prefix " << n;
    }
  }
  store.PutMeta(path, raw);
  EXPECT_TRUE(gens.ReadManifest(5).has_value());
}

// A journal cut anywhere reads as the whole records before the cut; an
// intact frame around a truncated body is a torn tail too.
TEST(WireCodec, EveryJournalTruncationIsATornTail) {
  os::NetworkFileSystem netfs;
  coord::IntentJournal journal(netfs);
  coord::JournalRecord intent;
  intent.epoch = 3;
  intent.members = {MakeMember(0x0A000001, 101, "/a.img", 255, {})};
  intent.fan_out = 2;
  journal.Append(intent);
  Bytes first;
  ASSERT_TRUE(SysOk(netfs.ReadFile(journal.path(), first)));
  journal.AppendOutcome(coord::JournalRecord::Type::kAbort, 3, false);
  Bytes raw;
  ASSERT_TRUE(SysOk(netfs.ReadFile(journal.path(), raw)));
  const ByteSpan body = ByteSpan(first).subspan(8);
  for (std::size_t n = 0; n < raw.size(); ++n) {
    netfs.WriteFile(journal.path(), Bytes(raw.begin(), raw.begin() + n));
    EXPECT_EQ(journal.ReadAll().size(), n < first.size() ? 0u : 1u)
        << "prefix " << n;
    if (n < body.size()) {
      netfs.WriteFile(journal.path(), Framed(body.first(n)));
      EXPECT_TRUE(journal.ReadAll().empty()) << "body prefix " << n;
    }
  }
}

}  // namespace
}  // namespace cruz
