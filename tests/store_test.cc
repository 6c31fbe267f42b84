// Multi-tier checkpoint storage (DESIGN.md §11): commit to local +
// partner disks with a background netfs flush, restore across tiers with
// CRC-checked fallback and rebuild-on-restart, survive node loss, netfs
// outage and disk-full. The acceptance scenario — a full checkpoint +
// restart cycle with the netfs unavailable throughout — lives here.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "apps/programs.h"
#include "apps/slm.h"
#include "check/oracle.h"
#include "ckpt/generation.h"
#include "ckpt/store/replica.h"
#include "ckpt/store/tiered_store.h"
#include "common/crc32.h"
#include "coord/coordinator.h"
#include "cruz/cluster.h"
#include "obs/trace_query.h"

namespace cruz {
namespace {

constexpr std::uint8_t kLocal = static_cast<std::uint8_t>(ckpt::Tier::kLocal);
constexpr std::uint8_t kPartner =
    static_cast<std::uint8_t>(ckpt::Tier::kPartner);
constexpr std::uint8_t kNetfs = static_cast<std::uint8_t>(ckpt::Tier::kNetfs);

os::PodId SpawnCounterPod(Cluster& c, std::size_t node,
                          const std::string& name) {
  os::PodId id = c.CreatePod(node, name);
  c.pods(node).SpawnInPod(id, "cruz.counter", apps::CounterArgs(1u << 30));
  return id;
}

bool PodProcessLive(Cluster& c, std::size_t node, os::PodId pod) {
  os::Pid real = c.pods(node).ToRealPid(pod, 1);
  if (real == os::kNoPid) return false;
  os::Process* proc = c.node(node).os().FindProcess(real);
  return proc != nullptr && proc->state() == os::ProcessState::kLive;
}

coord::Coordinator::Options TieredOptions() {
  coord::Coordinator::Options options;
  options.tiered = true;
  return options;
}

std::string ArgOf(const obs::TraceEvent& e, const std::string& key) {
  for (const auto& [k, v] : e.attrs.args) {
    if (k == key) return v;
  }
  return {};
}

// A tiered checkpoint lands every image on the writer's disk plus its
// ring partner's, records both replicas in the manifest, and drains the
// background netfs flush shortly after.
TEST(TieredStore, CheckpointRecordsReplicasAndFlushes) {
  ClusterConfig config;
  config.num_nodes = 3;
  Cluster c(config);
  os::PodId a = SpawnCounterPod(c, 0, "a");
  os::PodId b = SpawnCounterPod(c, 1, "b");
  c.sim().RunFor(10 * kMillisecond);

  auto result = c.RunGenerationCheckpoint(
      {c.MemberFor(0, a), c.MemberFor(1, b)}, TieredOptions());
  ASSERT_TRUE(result.stats.success) << result.stats.abort_reason;

  ckpt::GenerationStore store(c.tiered());
  auto manifest = store.ReadManifest(result.generation);
  ASSERT_TRUE(manifest.has_value());
  ASSERT_EQ(manifest->size(), 2u);
  for (const ckpt::ManifestEntry& e : *manifest) {
    ASSERT_GE(e.replicas.size(), 2u) << e.image_path;
    EXPECT_EQ(e.replicas[0].tier, ckpt::Tier::kLocal);
    EXPECT_EQ(e.replicas[1].tier, ckpt::Tier::kPartner);
    EXPECT_NE(e.replicas[0].node_index, e.replicas[1].node_index);
    EXPECT_GT(e.size, 0u);
    EXPECT_EQ(e.replicas[0].size, e.size);
    EXPECT_EQ(e.replicas[0].crc32, e.crc32);

    os::Node* writer = c.tiered().NodeByIndex(e.replicas[0].node_index);
    os::Node* partner = c.tiered().NodeByIndex(e.replicas[1].node_index);
    ASSERT_NE(writer, nullptr);
    ASSERT_NE(partner, nullptr);
    EXPECT_TRUE(writer->disk().Exists(e.image_path));
    EXPECT_TRUE(partner->disk().Exists(
        std::string(ckpt::TieredStore::kPartnerPrefix) + e.image_path));
  }

  // The background flush makes every image netfs-durable.
  c.sim().RunFor(2 * kSecond);
  EXPECT_EQ(c.tiered().PendingFlushCount(), 0u);
  for (const ckpt::ManifestEntry& e : *manifest) {
    EXPECT_TRUE(c.tiered().FlushedToNetfs(e.image_path)) << e.image_path;
    EXPECT_TRUE(c.fs().Exists(e.image_path)) << e.image_path;
  }
}

// Acceptance criterion: the netfs is unavailable for the entire
// checkpoint + restart cycle. The generation commits to local + partner,
// the fleet restores from those tiers, and the trace attributes every
// restored image to its actual source tier. When the outage ends, the
// flush drains and the manifest lands on the netfs late but intact.
TEST(TieredStore, FullCycleSurvivesNetfsOutage) {
  ClusterConfig config;
  config.num_nodes = 3;
  Cluster c(config);
  os::PodId a = SpawnCounterPod(c, 0, "a");
  os::PodId b = SpawnCounterPod(c, 1, "b");
  c.sim().RunFor(10 * kMillisecond);

  c.fs().set_available(false);
  auto ckpt_result = c.RunGenerationCheckpoint(
      {c.MemberFor(0, a), c.MemberFor(1, b)}, TieredOptions());
  ASSERT_TRUE(ckpt_result.stats.success) << ckpt_result.stats.abort_reason;

  ckpt::GenerationStore store(c.tiered());
  auto manifest = store.ReadManifest(ckpt_result.generation);
  ASSERT_TRUE(manifest.has_value());

  // The flush keeps retrying with backoff while the netfs is down.
  EXPECT_GT(c.tiered().PendingFlushCount(), 0u);
  std::uint64_t attempts_early = c.tiered().flush_attempts_total();
  c.sim().RunFor(3 * kSecond);
  EXPECT_GT(c.tiered().flush_attempts_total(), attempts_early);
  for (const ckpt::ManifestEntry& e : *manifest) {
    EXPECT_FALSE(c.tiered().FlushedToNetfs(e.image_path));
  }

  // Lose the pods and restore the whole fleet — netfs still down.
  c.pods(0).DestroyPod(a);
  c.pods(1).DestroyPod(b);
  c.sim().RunFor(5 * kMillisecond);
  auto restart = c.RunGenerationRestart(
      {c.MemberFor(0, a), c.MemberFor(1, b)}, TieredOptions());
  ASSERT_TRUE(restart.stats.success) << restart.stats.abort_reason;
  EXPECT_EQ(restart.generation, ckpt_result.generation);
  c.sim().RunFor(10 * kMillisecond);
  EXPECT_TRUE(PodProcessLive(c, 0, a));
  EXPECT_TRUE(PodProcessLive(c, 1, b));

  // Every member restored from a disk tier, and said so in the trace.
  ASSERT_EQ(restart.stats.restore_sources.size(), 2u);
  for (std::uint8_t src : restart.stats.restore_sources) {
    EXPECT_TRUE(src == kLocal || src == kPartner)
        << "restore source " << static_cast<int>(src);
  }
  obs::TraceQuery query(c.sim().tracer());
  std::size_t attributed = 0;
  for (const obs::TraceEvent* e :
       query.Select(obs::TraceQuery::Filter{}.Name("agent.restore"))) {
    std::string source = ArgOf(*e, "source");
    EXPECT_TRUE(source == "local" || source == "partner") << source;
    ++attributed;
  }
  EXPECT_EQ(attributed, 2u);

  // Outage ends: the flush drains, and the manifest — committed to the
  // disk tiers during the outage — arrives on the netfs intact.
  c.fs().set_available(true);
  c.sim().RunFor(5 * kSecond);
  EXPECT_EQ(c.tiered().PendingFlushCount(), 0u);
  for (const ckpt::ManifestEntry& e : *manifest) {
    EXPECT_TRUE(c.tiered().FlushedToNetfs(e.image_path));
  }
  // With every node disk wiped, the netfs alone still holds the whole
  // intact generation.
  for (std::size_t i = 0; i < c.num_nodes(); ++i) c.node(i).disk().Clear();
  EXPECT_EQ(check::NewestIntactGeneration(c.tiered()),
            ckpt_result.generation);
}

// Failure-domain-aware restart: the writer node dies (taking its tier-1
// cache with it) before anything reached the netfs. The partner replica
// restores the pod on a third node, and rebuild-on-restart repopulates
// that node's local cache.
TEST(TieredStore, NodeAndTier1LossRestoresFromPartner) {
  ClusterConfig config;
  config.num_nodes = 3;
  Cluster c(config);
  os::PodId a = SpawnCounterPod(c, 0, "a");
  os::PodId b = SpawnCounterPod(c, 1, "b");
  c.sim().RunFor(10 * kMillisecond);

  c.fs().set_available(false);  // nothing ever reaches the netfs
  auto ckpt_result = c.RunGenerationCheckpoint(
      {c.MemberFor(0, a), c.MemberFor(1, b)}, TieredOptions());
  ASSERT_TRUE(ckpt_result.stats.success) << ckpt_result.stats.abort_reason;

  ckpt::GenerationStore store(c.tiered());
  auto manifest = store.ReadManifest(ckpt_result.generation);
  ASSERT_TRUE(manifest.has_value());
  std::string image_a;
  for (const ckpt::ManifestEntry& e : *manifest) {
    if (e.pod == a) image_a = e.image_path;
  }
  ASSERT_FALSE(image_a.empty());

  // Node 1 dies: processes gone, local disk wiped.
  c.node(0).Fail();
  c.pods(1).DestroyPod(b);
  c.sim().RunFor(5 * kMillisecond);

  // Restore pod a on node 3 (no copy there) and pod b back on node 2.
  auto restart = c.RunGenerationRestart(
      {c.MemberFor(2, a), c.MemberFor(1, b)}, TieredOptions());
  ASSERT_TRUE(restart.stats.success) << restart.stats.abort_reason;
  c.sim().RunFor(10 * kMillisecond);
  EXPECT_TRUE(PodProcessLive(c, 2, a));
  EXPECT_TRUE(PodProcessLive(c, 1, b));

  ASSERT_EQ(restart.stats.restore_sources.size(), 2u);
  EXPECT_EQ(restart.stats.restore_sources[0], kPartner);  // pod a
  EXPECT_EQ(restart.stats.restore_sources[1], kLocal);    // pod b
  // Rebuild-on-restart: node 3 now caches pod a's image locally.
  EXPECT_TRUE(c.node(2).disk().Exists(image_a));
}

// CRC-checked fallback: a silently corrupted local copy is skipped for
// the partner's, a corrupted partner copy for the netfs replica, and the
// resolve trace names the rejected tiers. Two kinds of rot: a 2-byte
// file, which the size compare against the commit record rejects, and a
// same-size bit flip, which only the copy's decode catches.
TEST(TieredStore, CorruptCopiesFallBackAcrossTiers) {
  for (bool same_size : {false, true}) {
    SCOPED_TRACE(same_size ? "same-size bit flip" : "2-byte rot");
    ClusterConfig config;
    config.num_nodes = 3;
    Cluster c(config);
    os::PodId a = SpawnCounterPod(c, 0, "a");
    os::PodId b = SpawnCounterPod(c, 1, "b");
    c.sim().RunFor(10 * kMillisecond);

    auto ckpt_result = c.RunGenerationCheckpoint(
        {c.MemberFor(0, a), c.MemberFor(1, b)}, TieredOptions());
    ASSERT_TRUE(ckpt_result.stats.success) << ckpt_result.stats.abort_reason;
    c.sim().RunFor(2 * kSecond);  // flush to the netfs

    ckpt::GenerationStore store(c.tiered());
    auto manifest = store.ReadManifest(ckpt_result.generation);
    ASSERT_TRUE(manifest.has_value());
    const ckpt::ManifestEntry* entry_a = nullptr;
    for (const ckpt::ManifestEntry& e : *manifest) {
      if (e.pod == a) entry_a = &e;
    }
    ASSERT_NE(entry_a, nullptr);

    // Rot both disk copies of pod a's image; only the netfs replica is
    // still intact.
    os::Node* writer =
        c.tiered().NodeByIndex(entry_a->replicas[0].node_index);
    os::Node* partner =
        c.tiered().NodeByIndex(entry_a->replicas[1].node_index);
    ASSERT_NE(writer, nullptr);
    ASSERT_NE(partner, nullptr);
    const std::string guarded =
        std::string(ckpt::TieredStore::kPartnerPrefix) + entry_a->image_path;
    for (auto [disk, path] :
         {std::pair{&writer->disk(), entry_a->image_path},
          std::pair{&partner->disk(), guarded}}) {
      Bytes rotten{0xba, 0xad};
      if (same_size) {
        ASSERT_TRUE(SysOk(disk->ReadFile(path, rotten)));
        rotten[rotten.size() / 2] ^= 0x40;
      }
      disk->WriteFile(path, std::move(rotten));
    }

    c.pods(0).DestroyPod(a);
    c.pods(1).DestroyPod(b);
    c.sim().RunFor(5 * kMillisecond);
    auto restart = c.RunGenerationRestart(
        {c.MemberFor(0, a), c.MemberFor(1, b)}, TieredOptions());
    ASSERT_TRUE(restart.stats.success) << restart.stats.abort_reason;

    ASSERT_EQ(restart.stats.restore_sources.size(), 2u);
    EXPECT_EQ(restart.stats.restore_sources[0], kNetfs);  // pod a fell back
    EXPECT_EQ(restart.stats.restore_sources[1], kLocal);  // pod b untouched

    obs::TraceQuery query(c.sim().tracer());
    bool saw_fallback_chain = false;
    for (const obs::TraceEvent* e : query.Select(
             obs::TraceQuery::Filter{}.Name("ckpt.store.resolve"))) {
      if (ArgOf(*e, "path") != entry_a->image_path) continue;
      if (ArgOf(*e, "source") != "netfs") continue;
      std::string chain = ArgOf(*e, "chain");
      EXPECT_NE(chain.find("local:crc"), std::string::npos) << chain;
      EXPECT_NE(chain.find(":crc"), std::string::npos) << chain;
      saw_fallback_chain = true;
    }
    EXPECT_TRUE(saw_fallback_chain);

    // Rebuild-on-restart replaced the rotten local copy with an intact
    // one.
    Bytes rebuilt;
    ASSERT_TRUE(SysOk(writer->disk().ReadFile(entry_a->image_path, rebuilt)));
    EXPECT_EQ(rebuilt.size(), entry_a->size);
    Bytes durable;
    ASSERT_TRUE(SysOk(c.fs().ReadFile(entry_a->image_path, durable)));
    EXPECT_EQ(rebuilt, durable);
  }
}

// -ENOSPC on a node disk evicts the oldest netfs-durable generation's
// files instead of failing the checkpoint, so a tight tier-1 budget
// degrades to "fewer cached generations", not "no checkpoints".
TEST(TieredStore, EnospcEvictsOldestGenerationInsteadOfFailing) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  os::PodId a = SpawnCounterPod(c, 0, "a");
  os::PodId b = SpawnCounterPod(c, 1, "b");
  c.sim().RunFor(10 * kMillisecond);

  auto first = c.RunGenerationCheckpoint(
      {c.MemberFor(0, a), c.MemberFor(1, b)}, TieredOptions());
  ASSERT_TRUE(first.stats.success) << first.stats.abort_reason;
  c.sim().RunFor(2 * kSecond);

  ckpt::GenerationStore store(c.tiered());
  auto manifest = store.ReadManifest(first.generation);
  ASSERT_TRUE(manifest.has_value());
  std::uint64_t image_bytes = manifest->front().size;
  ASSERT_GT(image_bytes, 0u);
  // Room for one generation (own image + guarded partner copy + meta)
  // plus one more image, but nowhere near two full generations.
  std::uint64_t budget = 3 * image_bytes + 8 * 1024;
  c.node(0).disk().set_capacity_bytes(budget);
  c.node(1).disk().set_capacity_bytes(budget);

  std::uint64_t newest = first.generation;
  for (int round = 0; round < 3; ++round) {
    auto result = c.RunGenerationCheckpoint(
        {c.MemberFor(0, a), c.MemberFor(1, b)}, TieredOptions());
    ASSERT_TRUE(result.stats.success)
        << "round " << round << ": " << result.stats.abort_reason;
    newest = result.generation;
    c.sim().RunFor(2 * kSecond);  // let the flush make this gen durable
  }

  // The first generation's tier-1 copies were evicted to make room...
  EXPECT_FALSE(c.node(0).disk().Exists(manifest->front().image_path));
  // ...but it stayed durable on the netfs, and the newest generation is
  // still fully restorable.
  EXPECT_TRUE(c.fs().Exists(manifest->front().image_path));
  c.pods(0).DestroyPod(a);
  c.pods(1).DestroyPod(b);
  c.sim().RunFor(5 * kMillisecond);
  auto restart = c.RunGenerationRestart(
      {c.MemberFor(0, a), c.MemberFor(1, b)}, TieredOptions());
  ASSERT_TRUE(restart.stats.success) << restart.stats.abort_reason;
  EXPECT_EQ(restart.generation, newest);
}

// Retention: once a generation is fully netfs-durable and newer ones
// exist, its tier-1/2 copies are dropped (keep the last K locally).
TEST(TieredStore, RetentionDropsOldLocalCopiesOnceDurable) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  c.tiered().set_keep_local_generations(1);
  os::PodId a = SpawnCounterPod(c, 0, "a");
  os::PodId b = SpawnCounterPod(c, 1, "b");
  c.sim().RunFor(10 * kMillisecond);

  auto first = c.RunGenerationCheckpoint(
      {c.MemberFor(0, a), c.MemberFor(1, b)}, TieredOptions());
  ASSERT_TRUE(first.stats.success);
  ckpt::GenerationStore store(c.tiered());
  auto manifest = store.ReadManifest(first.generation);
  ASSERT_TRUE(manifest.has_value());
  c.sim().RunFor(2 * kSecond);

  auto second = c.RunGenerationCheckpoint(
      {c.MemberFor(0, a), c.MemberFor(1, b)}, TieredOptions());
  ASSERT_TRUE(second.stats.success);
  c.sim().RunFor(2 * kSecond);

  // Generation 1 left the disk tiers but survives on the netfs.
  for (const ckpt::ManifestEntry& e : *manifest) {
    for (std::size_t n = 0; n < c.num_nodes(); ++n) {
      EXPECT_FALSE(c.node(n).disk().Exists(e.image_path));
      EXPECT_FALSE(c.node(n).disk().Exists(
          std::string(ckpt::TieredStore::kPartnerPrefix) + e.image_path));
    }
    EXPECT_TRUE(c.fs().Exists(e.image_path));
  }
  // The newest generation stays hot in tier 1.
  auto newest_manifest = store.ReadManifest(second.generation);
  ASSERT_TRUE(newest_manifest.has_value());
  for (const ckpt::ManifestEntry& e : *newest_manifest) {
    os::Node* writer = c.tiered().NodeByIndex(e.replicas[0].node_index);
    ASSERT_NE(writer, nullptr);
    EXPECT_TRUE(writer->disk().Exists(e.image_path));
  }
}

// Detached, a generation store only names directories; set_tiered()
// attaches the checkpoint store (the form perfbench uses).
TEST(GenerationStore, DetachedStoreOnlyNamesDirectories) {
  Cluster c;
  ckpt::GenerationStore store(c.fs());
  EXPECT_EQ(store.Prefix(7), "/ckpt/gens/gen_000007");
  EXPECT_THROW(store.Committed(), UsageError);
  store.set_tiered(&c.tiered());
  EXPECT_TRUE(store.Committed().empty());
}

std::uint64_t NetfsBytesUnder(Cluster& c, const std::string& prefix) {
  std::uint64_t total = 0;
  for (const std::string& path : c.fs().List(prefix)) {
    total += static_cast<std::uint64_t>(c.fs().FileSize(path));
  }
  return total;
}

// Netfs -ENOSPC, under either policy: with room for about two
// generations, the third checkpoint's netfs writes discard the oldest
// generation that is neither the one being written nor the newest
// committed one — entirely, on every tier — instead of failing.
TEST(TieredStore, NetfsEnospcEvictsOldestNonLatestGeneration) {
  for (bool tiered : {false, true}) {
    SCOPED_TRACE(tiered ? "tiered" : "one-tier");
    ClusterConfig config;
    config.num_nodes = 2;
    Cluster c(config);
    os::PodId a = SpawnCounterPod(c, 0, "a");
    os::PodId b = SpawnCounterPod(c, 1, "b");
    c.sim().RunFor(10 * kMillisecond);
    std::vector<coord::Coordinator::Member> members = {c.MemberFor(0, a),
                                                       c.MemberFor(1, b)};
    coord::Coordinator::Options options;
    options.tiered = tiered;
    ckpt::GenerationStore store(c.tiered());

    std::vector<std::uint64_t> gens;
    for (int i = 0; i < 2; ++i) {
      auto g = c.RunGenerationCheckpoint(members, options);
      ASSERT_TRUE(g.stats.success) << g.stats.abort_reason;
      gens.push_back(g.generation);
      c.sim().RunFor(2 * kSecond);  // tiered: the flush lands
    }
    const std::uint64_t gen_bytes =
        NetfsBytesUnder(c, store.Prefix(gens[1]));
    ASSERT_GT(gen_bytes, 0u);
    c.fs().set_capacity_bytes(c.fs().TotalBytes() + gen_bytes / 2);

    auto third = c.RunGenerationCheckpoint(members, options);
    ASSERT_TRUE(third.stats.success) << third.stats.abort_reason;
    c.sim().RunFor(2 * kSecond);
    EXPECT_EQ(c.tiered().PendingFlushCount(), 0u);

    // The oldest generation is gone from every tier; the newest
    // committed one at the time (gens[1]) was never a candidate.
    EXPECT_EQ(c.tiered().BytesUnderPrefix(store.Prefix(gens[0])), 0u);
    EXPECT_EQ(store.Committed(),
              (std::vector<std::uint64_t>{gens[1], third.generation}));
    EXPECT_TRUE(check::GenerationIntact(c.tiered(), gens[1]));
    EXPECT_EQ(check::NewestIntactGeneration(c.tiered()), third.generation);
    EXPECT_GE(c.sim().metrics().counter("ckpt.store.evictions_total").value(),
              1u);
  }
}

// A late netfs flush never evicts a newer generation: gen 1's flush is
// still pending after an outage when gens 2 and 3 fill the netfs, so gen
// 1 waits for room instead of discarding gen 2 (or 3).
TEST(TieredStore, NetfsEnospcKeepsNewerGenerationsForPendingFlush) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  os::PodId a = SpawnCounterPod(c, 0, "a");
  os::PodId b = SpawnCounterPod(c, 1, "b");
  c.sim().RunFor(10 * kMillisecond);
  std::vector<coord::Coordinator::Member> members = {c.MemberFor(0, a),
                                                     c.MemberFor(1, b)};
  ckpt::GenerationStore store(c.tiered());

  c.fs().set_available(false);
  auto first = c.RunGenerationCheckpoint(members, TieredOptions());
  ASSERT_TRUE(first.stats.success) << first.stats.abort_reason;
  auto manifest = store.ReadManifest(first.generation);
  ASSERT_TRUE(manifest.has_value());
  const std::string gen1_image = manifest->front().image_path;
  // End the outage just after a failed retry round, so the backed-off
  // next round (>= 0.8 s away) comes after gens 2 and 3 have flushed.
  c.sim().RunFor(kSecond);
  const std::uint64_t attempts = c.tiered().flush_attempts_total();
  while (c.tiered().flush_attempts_total() == attempts) {
    c.sim().RunFor(kMillisecond);
  }
  c.sim().RunFor(10 * kMillisecond);
  c.fs().set_available(true);

  std::vector<std::uint64_t> gens = {first.generation};
  for (int i = 0; i < 2; ++i) {
    auto g = c.RunGenerationCheckpoint(members, TieredOptions());
    ASSERT_TRUE(g.stats.success) << g.stats.abort_reason;
    gens.push_back(g.generation);
  }
  c.sim().RunFor(50 * kMillisecond);
  ASSERT_FALSE(c.tiered().FlushedToNetfs(gen1_image));
  auto newest = store.ReadManifest(gens[2]);
  ASSERT_TRUE(newest.has_value());
  ASSERT_TRUE(c.tiered().FlushedToNetfs(newest->front().image_path));
  const std::uint64_t gen2_bytes =
      c.tiered().BytesUnderPrefix(store.Prefix(gens[1]));

  // The netfs is full: gen 1's retries hit -ENOSPC with nothing older
  // to evict, and keep backing off.
  c.fs().set_capacity_bytes(c.fs().TotalBytes());
  c.sim().RunFor(5 * kSecond);
  EXPECT_FALSE(c.tiered().FlushedToNetfs(gen1_image));
  EXPECT_GT(c.tiered().PendingFlushCount(), 0u);
  EXPECT_EQ(store.Committed(), gens);
  EXPECT_EQ(c.tiered().BytesUnderPrefix(store.Prefix(gens[1])), gen2_bytes);
  EXPECT_TRUE(check::GenerationIntact(c.tiered(), gens[1]));
  EXPECT_TRUE(check::GenerationIntact(c.tiered(), gens[2]));
  EXPECT_EQ(c.sim().metrics().counter("ckpt.store.evictions_total").value(),
            0u);

  // Room appears: the pending flush lands.
  c.fs().set_capacity_bytes(0);
  c.sim().RunFor(3 * kSecond);
  EXPECT_TRUE(c.tiered().FlushedToNetfs(gen1_image));
  EXPECT_EQ(c.tiered().PendingFlushCount(), 0u);
}

// Settling needs a record for every image. A one-tier image's CRC is
// read from its netfs copy at settle time; with the netfs down then, the
// op fails with a reason and its generation is discarded instead of
// being published with a bogus manifest entry.
TEST(TieredStore, SettleWithoutImageRecordFailsTheOp) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  os::PodId a = SpawnCounterPod(c, 0, "a");
  c.sim().RunFor(10 * kMillisecond);
  ckpt::GenerationStore store(c.tiered());

  auto op = c.StartGenerationCheckpoint({c.MemberFor(0, a)});
  ASSERT_TRUE(c.sim().RunWhile([&] { return op->finished; },
                               c.sim().Now() + 5 * kSecond));
  ASSERT_TRUE(op->stats.success) << op->stats.abort_reason;
  c.fs().set_available(false);
  auto result = c.SettleGenerationCheckpoint(op);
  EXPECT_FALSE(result.stats.success);
  EXPECT_NE(result.stats.abort_reason.find("no commit record"),
            std::string::npos)
      << result.stats.abort_reason;
  EXPECT_EQ(result.generation, 0u);

  // The netfs copies removed during the outage are reaped once it ends.
  c.fs().set_available(true);
  c.sim().RunFor(5 * kSecond);
  EXPECT_EQ(c.tiered().BytesUnderPrefix(store.Prefix(op->generation)), 0u);
  EXPECT_TRUE(store.Committed().empty());
}

// When no tier has room for one image and nothing is evictable, the
// checkpoint fails with "disk full" and its generation leaves no bytes
// on any tier. A one-tier run keeps its only (hence newest) generation
// rather than discard it for space.
TEST(TieredStore, NoRoomForOneImageFailsWithDiskFull) {
  for (bool tiered : {false, true}) {
    SCOPED_TRACE(tiered ? "tiered" : "one-tier");
    ClusterConfig config;
    config.num_nodes = 2;
    Cluster c(config);
    os::PodId a = SpawnCounterPod(c, 0, "a");
    os::PodId b = SpawnCounterPod(c, 1, "b");
    c.sim().RunFor(10 * kMillisecond);
    std::vector<coord::Coordinator::Member> members = {c.MemberFor(0, a),
                                                       c.MemberFor(1, b)};
    coord::Coordinator::Options options;
    options.tiered = tiered;
    std::uint64_t newest = 0;
    if (!tiered) newest = c.RunGenerationCheckpoint(members).generation;
    // Room for the metadata (the 8-byte SEQ counter, journal records),
    // far less than one image.
    constexpr std::uint64_t kHeadroom = 1024;
    c.fs().set_capacity_bytes(c.fs().TotalBytes() + kHeadroom);
    for (std::size_t i = 0; i < c.num_nodes(); ++i) {
      c.node(i).disk().set_capacity_bytes(kHeadroom);
    }

    auto result = c.RunGenerationCheckpoint(members, options);
    EXPECT_FALSE(result.stats.success);
    EXPECT_EQ(result.generation, 0u);
    EXPECT_EQ(result.latest_committed, newest);

    obs::TraceQuery query(c.sim().tracer());
    std::vector<const obs::TraceEvent*> failed =
        query.Select(obs::TraceQuery::Filter{}.Name("agent.failed"));
    ASSERT_FALSE(failed.empty());
    for (const obs::TraceEvent* e : failed) {
      EXPECT_EQ(ArgOf(*e, "why"), "disk full");
    }
    ckpt::GenerationStore store(c.tiered());
    EXPECT_EQ(c.tiered().BytesUnderPrefix(store.Prefix(result.allocated)),
              0u);
    EXPECT_EQ(check::NewestIntactGeneration(c.tiered()), newest);
  }
}


// Host work pin: how many times each image byte goes through CRC-32 in
// one generation checkpoint + restart of a 2-rank slm job (DESIGN.md
// §12), under both policies. The slm grids are incompressible, so images
// are mostly raw pages and the counter divides into whole passes. The
// residue (compressible pages CRC'd at full size, manifests, journal
// records) stays under 1% of the image bytes. Cutting a pass lowers its
// pin here.
TEST(TieredStore, CrcPassesPerImageByteArePinned) {
  apps::RegisterSlmProgram();
  for (bool tiered : {true, false}) {
    SCOPED_TRACE(tiered ? "tiered" : "one-tier");
    ClusterConfig config;
    config.num_nodes = 2;
    Cluster c(config);
    apps::SlmConfig base;
    base.nranks = 2;
    base.rows = 256;
    base.cols = 512;
    base.iterations = 1u << 31;
    base.exit_when_done = false;
    std::vector<os::PodId> pods;
    std::vector<coord::Coordinator::Member> members;
    for (std::uint32_t r = 0; r < 2; ++r) {
      pods.push_back(c.CreatePod(r, "slm" + std::to_string(r)));
      base.peers.push_back(c.pods(r).Find(pods.back())->ip);
    }
    for (std::uint32_t r = 0; r < 2; ++r) {
      apps::SlmConfig cfg = base;
      cfg.rank = r;
      c.pods(r).SpawnInPod(pods[r], "cruz.slm_rank", apps::SlmArgs(cfg));
      members.push_back(c.MemberFor(r, pods[r]));
    }
    c.sim().RunFor(200 * kMillisecond);

    coord::Coordinator::Options options;
    options.tiered = tiered;
    options.variant = coord::ProtocolVariant::kOptimized;
    options.compress = true;
    const std::uint64_t before = Crc32BytesTotal();
    auto ckpt_result = c.RunGenerationCheckpoint(members, options);
    ASSERT_TRUE(ckpt_result.stats.success) << ckpt_result.stats.abort_reason;
    const std::uint64_t after_ckpt = Crc32BytesTotal();
    EXPECT_EQ(c.tiered().PendingFlushCount() > 0, tiered);
    c.sim().RunFor(kSecond);
    ASSERT_EQ(c.tiered().PendingFlushCount(), 0u);
    const std::uint64_t after_flush = Crc32BytesTotal();
    for (std::uint32_t r = 0; r < 2; ++r) c.pods(r).DestroyPod(pods[r]);
    auto restart = c.RunGenerationRestart(members, options);
    ASSERT_TRUE(restart.stats.success) << restart.stats.abort_reason;
    const std::uint64_t after_restart = Crc32BytesTotal();

    ckpt::GenerationStore store(c.tiered());
    auto manifest = store.ReadManifest(ckpt_result.generation);
    ASSERT_TRUE(manifest.has_value());
    std::uint64_t image_bytes = 0;
    for (const ckpt::ManifestEntry& e : *manifest) image_bytes += e.size;
    ASSERT_GT(image_bytes, 1u << 20);
    auto passes = [&](std::uint64_t crc_bytes) {
      const double ratio = static_cast<double>(crc_bytes) / image_bytes;
      EXPECT_NEAR(ratio, std::round(ratio), 0.01) << "a partial pass";
      return static_cast<int>(std::lround(ratio));
    };
    // Checkpoint and settle, 2 passes:
    //   EncodePage's per-page CRC (ckpt/page_codec.cc);
    //   Serialize's image frame CRC (ckpt/image.cc).
    // The commit record reads the frame trailer instead of CRCing.
    EXPECT_EQ(passes(after_ckpt - before), 2);
    // Flush, 1 pass for a tiered image, none for a one-tier one:
    //   AttemptFlush -> FindAnyCopy frame-checks the copy it sends.
    EXPECT_EQ(passes(after_flush - after_ckpt), tiered ? 1 : 0);
    // Restart, 2 passes: the agent's restore decodes the chain once,
    // checking the image frame CRC and DecodePage's per-page CRC; the
    // coordinator reads no image.
    EXPECT_EQ(passes(after_restart - after_flush), 2);
  }
}

// --- image buffer sharing (DESIGN.md, "Image buffer ownership") ----------

// Two stores holding one buffer: a mutation through either store, or a
// rewrite, or a Clear, never shows through the other store, nor through
// a view handed out before it.
TEST(MemFileStore, MutationsOfASharedBufferStayInTheirStore) {
  auto make = [] {
    return std::make_shared<Bytes>(Bytes{1, 2, 3, 4, 5, 6, 7, 8});
  };
  const Bytes original{1, 2, 3, 4, 5, 6, 7, 8};
  auto content_of = [](const os::MemFileStore& s, const std::string& p) {
    Bytes out;
    EXPECT_TRUE(SysOk(s.ReadFile(p, out)));
    return out;
  };
  os::MemFileStore a("a"), b("b");
  {
    SharedBytes shared = make();
    ASSERT_TRUE(SysOk(a.WriteShared("/img", shared)));
    ASSERT_TRUE(SysOk(b.WriteShared("/img", shared)));
  }
  SharedBytes view_a, view_b;
  ASSERT_TRUE(SysOk(a.ReadShared("/img", view_a)));
  ASSERT_TRUE(SysOk(b.ReadShared("/img", view_b)));
  EXPECT_EQ(view_a.get(), view_b.get()) << "one buffer, two stores";

  ASSERT_TRUE(SysOk(a.WriteAt("/img", 2, Bytes{0xEE, 0xEE}, false)));
  EXPECT_EQ(content_of(b, "/img"), original);
  EXPECT_EQ(*view_a, original) << "an earlier read sees no later write";
  EXPECT_EQ(content_of(a, "/img"), (Bytes{1, 2, 0xEE, 0xEE, 5, 6, 7, 8}));

  ASSERT_TRUE(SysOk(b.AppendFile("/img", Bytes{9})));
  EXPECT_EQ(*view_b, original);
  EXPECT_EQ(content_of(b, "/img").size(), 9u);
  EXPECT_EQ(content_of(a, "/img"), (Bytes{1, 2, 0xEE, 0xEE, 5, 6, 7, 8}));

  SharedBytes shared = make();
  ASSERT_TRUE(SysOk(a.WriteShared("/img", shared)));
  ASSERT_TRUE(SysOk(b.WriteShared("/img", shared)));
  ASSERT_TRUE(SysOk(a.WriteFile("/img", Bytes{0})));
  EXPECT_EQ(content_of(b, "/img"), original);
  EXPECT_EQ(*shared, original);
  a.Clear();
  EXPECT_EQ(content_of(b, "/img"), original);
  EXPECT_EQ(*shared, original);

  // A buffer no one else holds changes in place: no copy.
  shared.reset();
  view_a.reset();
  view_b.reset();
  SharedBytes before, after;
  ASSERT_TRUE(SysOk(b.ReadShared("/img", before)));
  const Bytes* buffer = before.get();
  before.reset();
  ASSERT_TRUE(SysOk(b.WriteAt("/img", 0, Bytes{0x11}, false)));
  ASSERT_TRUE(SysOk(b.ReadShared("/img", after)));
  EXPECT_EQ(after.get(), buffer);
  EXPECT_EQ((*after)[0], 0x11);
}

// A committed tiered image is one buffer: the writer's copy, the
// partner's guarded copy and the flushed netfs copy share its data.
TEST(TieredStore, EveryTierSharesOneCommittedBuffer) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  os::PodId a = SpawnCounterPod(c, 0, "a");
  c.sim().RunFor(10 * kMillisecond);
  auto result = c.RunGenerationCheckpoint({c.MemberFor(0, a)},
                                          TieredOptions());
  ASSERT_TRUE(result.stats.success) << result.stats.abort_reason;
  c.sim().RunFor(2 * kSecond);  // flush to the netfs
  ASSERT_EQ(result.stats.image_paths.size(), 1u);
  const std::string path = result.stats.image_paths[0];
  ASSERT_TRUE(c.tiered().FlushedToNetfs(path));

  SharedBytes local, partner, netfs;
  ASSERT_TRUE(SysOk(c.node(0).disk().ReadShared(path, local)));
  ASSERT_TRUE(SysOk(c.node(1).disk().ReadShared(
      std::string(ckpt::TieredStore::kPartnerPrefix) + path, partner)));
  ASSERT_TRUE(SysOk(c.fs().ReadShared(path, netfs)));
  EXPECT_EQ(local->data(), partner->data());
  EXPECT_EQ(local->data(), netfs->data());
  // Exactly sized: a shared buffer's slack would be held by every tier.
  EXPECT_EQ(local->capacity(), local->size());

  // Resolve hands out that buffer too.
  SharedBytes resolved;
  ASSERT_TRUE(SysOk(c.tiered().Resolve(&c.node(0), path, resolved, nullptr,
                                       /*trace=*/false)));
  EXPECT_EQ(resolved->data(), local->data());
}

// In-place rot of one tier's copy (WriteAt on the shared buffer) stays
// on that tier: the restart falls back to the intact partner copy, and
// the partner and netfs copies keep their bytes.
TEST(TieredStore, InPlaceRotOfOneTierLeavesTheOtherCopiesIntact) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  os::PodId a = SpawnCounterPod(c, 0, "a");
  c.sim().RunFor(10 * kMillisecond);
  auto result = c.RunGenerationCheckpoint({c.MemberFor(0, a)},
                                          TieredOptions());
  ASSERT_TRUE(result.stats.success) << result.stats.abort_reason;
  c.sim().RunFor(2 * kSecond);
  const std::string path = result.stats.image_paths.at(0);
  const std::string guarded =
      std::string(ckpt::TieredStore::kPartnerPrefix) + path;
  Bytes intact;
  ASSERT_TRUE(SysOk(c.node(0).disk().ReadFile(path, intact)));

  Bytes flipped{static_cast<std::uint8_t>(intact[intact.size() / 2] ^ 0x40)};
  ASSERT_TRUE(SysOk(
      c.node(0).disk().WriteAt(path, intact.size() / 2, flipped, false)));
  Bytes partner, netfs;
  ASSERT_TRUE(SysOk(c.node(1).disk().ReadFile(guarded, partner)));
  ASSERT_TRUE(SysOk(c.fs().ReadFile(path, netfs)));
  EXPECT_EQ(partner, intact);
  EXPECT_EQ(netfs, intact);

  c.pods(0).DestroyPod(a);
  auto restart = c.RunGenerationRestart({c.MemberFor(0, a)}, TieredOptions());
  ASSERT_TRUE(restart.stats.success) << restart.stats.abort_reason;
  ASSERT_EQ(restart.stats.restore_sources.size(), 1u);
  EXPECT_EQ(restart.stats.restore_sources[0], kPartner);
  // Rebuild-on-restart replaced the rotten local copy with the partner's
  // buffer; the partner copy itself never changed.
  Bytes rebuilt;
  ASSERT_TRUE(SysOk(c.node(0).disk().ReadFile(path, rebuilt)));
  EXPECT_EQ(rebuilt, intact);
  ASSERT_TRUE(SysOk(c.node(1).disk().ReadFile(guarded, partner)));
  EXPECT_EQ(partner, intact);
}

}  // namespace
}  // namespace cruz
