// Tests for the §5.2 optimizations implemented as extensions:
// incremental checkpointing (dirty-page deltas with parent-chain restore)
// and copy-on-write checkpoint-and-continue.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "apps/programs.h"
#include "apps/slm.h"
#include "ckpt/engine.h"
#include "cruz/cluster.h"
#include "obs/trace_query.h"

namespace cruz::ckpt {
namespace {

// --- memory dirty tracking ----------------------------------------------------

TEST(DirtyTracking, WritesMarkPages) {
  os::Memory m;
  EXPECT_TRUE(m.dirty_pages().empty());
  m.WriteU64(0x5000, 1);
  EXPECT_TRUE(m.IsDirty(0x5));
  EXPECT_EQ(m.dirty_pages().size(), 1u);
  // Cross-page write dirties both pages.
  cruz::Bytes two_pages(os::kPageSize + 10, 7);
  m.WriteBytes(0x10000 - 5, two_pages);
  EXPECT_TRUE(m.IsDirty(0xF));
  EXPECT_TRUE(m.IsDirty(0x10));
  EXPECT_TRUE(m.IsDirty(0x11));
  m.ClearDirty();
  EXPECT_TRUE(m.dirty_pages().empty());
  // Reads do not dirty.
  m.ReadU64(0x5000);
  EXPECT_TRUE(m.dirty_pages().empty());
  // Rewrites re-dirty.
  m.WriteU64(0x5000, 2);
  EXPECT_EQ(m.dirty_pages().size(), 1u);
}

// --- image merge ---------------------------------------------------------------

TEST(IncrementalImage, MergeOverlaysPages) {
  PodCheckpoint base;
  base.pod_id = 7;
  ProcessRecord bp;
  bp.vpid = 1;
  bp.program = "cruz.counter";
  bp.pages.push_back(
      PageRecord{1, std::make_shared<cruz::Bytes>(os::kPageSize, 0xAA)});
  bp.pages.push_back(
      PageRecord{2, std::make_shared<cruz::Bytes>(os::kPageSize, 0xBB)});
  base.processes.push_back(bp);

  PodCheckpoint delta;
  delta.pod_id = 7;
  delta.incremental = true;
  delta.generation = 1;
  ProcessRecord dp;
  dp.vpid = 1;
  dp.program = "cruz.counter";
  dp.pages.push_back(
      PageRecord{2, std::make_shared<cruz::Bytes>(os::kPageSize, 0xCC)});
  dp.pages.push_back(
      PageRecord{3, std::make_shared<cruz::Bytes>(os::kPageSize, 0xDD)});
  delta.processes.push_back(dp);

  PodCheckpoint merged = delta.MergeOnto(base);
  EXPECT_FALSE(merged.incremental);
  ASSERT_EQ(merged.processes.size(), 1u);
  const auto& pages = merged.processes[0].pages;
  ASSERT_EQ(pages.size(), 3u);
  EXPECT_EQ(pages[0].page_index, 1u);
  EXPECT_EQ((*pages[0].content)[0], 0xAA);  // untouched base page
  EXPECT_EQ(pages[1].page_index, 2u);
  EXPECT_EQ((*pages[1].content)[0], 0xCC);  // delta wins
  EXPECT_EQ(pages[2].page_index, 3u);
  EXPECT_EQ((*pages[2].content)[0], 0xDD);  // new page
}

TEST(IncrementalImage, RoundTripKeepsChainFields) {
  PodCheckpoint ck;
  ck.pod_name = "x";
  ck.incremental = true;
  ck.generation = 5;
  ck.parent_image = "/ckpt/gen4.img";
  PodCheckpoint d = PodCheckpoint::Deserialize(ck.Serialize());
  EXPECT_TRUE(d.incremental);
  EXPECT_EQ(d.generation, 5u);
  EXPECT_EQ(d.parent_image, "/ckpt/gen4.img");
}

// --- engine: incremental capture + chain restore ------------------------------

TEST(Incremental, DeltaCapturesOnlyDirtyPages) {
  Cluster c;
  os::PodId id = c.CreatePod(0, "job");
  os::Pid vpid = c.pods(0).SpawnInPod(id, "cruz.counter",
                                      apps::CounterArgs(1u << 30));
  // Give the process a large, mostly-static working set.
  os::Process* proc =
      c.node(0).os().FindProcess(c.pods(0).ToRealPid(id, vpid));
  cruz::Bytes page(os::kPageSize, 0x42);
  for (std::uint64_t i = 0; i < 200; ++i) {
    proc->memory().InstallPage(0x100 + i, page);
  }
  c.sim().RunFor(10 * kMillisecond);

  // Full base checkpoint.
  PodCheckpoint base = CheckpointEngine::CapturePod(c.pods(0), id);
  std::size_t base_pages = base.processes[0].pages.size();
  EXPECT_GT(base_pages, 200u);
  c.node(0).os().fs().WriteFile("/ckpt/base.img", base.Serialize());
  CheckpointEngine::ResumePod(c.pods(0), id);
  c.sim().RunFor(10 * kMillisecond);  // the counter touches ~1 page

  CaptureOptions options;
  options.incremental = true;
  options.parent_image = "/ckpt/base.img";
  options.generation = 1;
  PodCheckpoint delta =
      CheckpointEngine::CapturePod(c.pods(0), id, options);
  c.node(0).os().fs().WriteFile("/ckpt/delta.img", delta.Serialize());
  // Only the pages the counter touched since the base are in the delta.
  EXPECT_LT(delta.processes[0].pages.size(), 5u);
  EXPECT_TRUE(delta.incremental);

  // Restore from the chain: the counter continues from the delta state.
  std::uint64_t at_delta = apps::ReadCounter(
      *c.node(0).os().FindProcess(c.pods(0).ToRealPid(id, vpid)));
  c.pods(0).DestroyPod(id);
  PodCheckpoint merged =
      CheckpointEngine::LoadImageChain(c.tiered(), nullptr,
                                       "/ckpt/delta.img");
  EXPECT_EQ(merged.processes[0].pages.size(), base_pages);
  os::PodId restored = CheckpointEngine::RestorePod(c.pods(0), merged);
  os::Process* rp =
      c.node(0).os().FindProcess(c.pods(0).ToRealPid(restored, vpid));
  ASSERT_NE(rp, nullptr);
  EXPECT_EQ(apps::ReadCounter(*rp), at_delta);
  // The static working set survived through the base image.
  EXPECT_EQ(rp->memory().ReadBytes(0x100 * os::kPageSize, 16),
            cruz::Bytes(16, 0x42));
}

TEST(Incremental, MissingParentLinkFails) {
  Cluster c;
  PodCheckpoint orphan;
  orphan.pod_name = "o";
  orphan.incremental = true;
  orphan.parent_image = "/ckpt/nonexistent.img";
  c.node(0).os().fs().WriteFile("/ckpt/orphan.img", orphan.Serialize());
  EXPECT_THROW(CheckpointEngine::LoadImageChain(c.tiered(), nullptr,
                                                "/ckpt/orphan.img"),
               UsageError);
}

// --- coordinated incremental checkpoints + restart from a chain ----------------

TEST(Incremental, CoordinatedChainRestartPreservesSlmResult) {
  apps::RegisterSlmProgram();
  ClusterConfig config;
  config.num_nodes = 4;  // ranks on 0,1; spares 2,3
  Cluster c(config);
  apps::SlmConfig base;
  base.nranks = 2;
  base.rows = 64;
  base.cols = 256;
  base.iterations = 300;
  base.compute_per_iteration = kMillisecond;
  base.exit_when_done = false;
  std::vector<os::PodId> pods;
  for (std::uint32_t r = 0; r < 2; ++r) {
    pods.push_back(c.CreatePod(r, "slm" + std::to_string(r)));
    base.peers.push_back(c.pods(r).Find(pods.back())->ip);
  }
  std::vector<os::Pid> vpids;
  for (std::uint32_t r = 0; r < 2; ++r) {
    apps::SlmConfig cfg = base;
    cfg.rank = r;
    vpids.push_back(c.pods(r).SpawnInPod(pods[r], "cruz.slm_rank",
                                         apps::SlmArgs(cfg)));
  }
  auto iterations = [&](std::size_t node, std::uint32_t r) {
    os::Process* p =
        c.node(node).os().FindProcess(c.pods(node).ToRealPid(pods[r],
                                                             vpids[r]));
    return p != nullptr ? apps::ReadSlmStatus(*p).iterations : 0;
  };

  // Generation 0: full; generations 1,2: incremental.
  std::vector<std::string> last_paths;
  std::uint64_t full_bytes = 0, delta_bytes = 0;
  for (int gen = 0; gen < 3; ++gen) {
    ASSERT_TRUE(c.sim().RunWhile(
        [&] {
          return iterations(0, 0) >=
                 static_cast<std::uint64_t>(50 * (gen + 1));
        },
        c.sim().Now() + 600 * kSecond));
    coord::Coordinator::Options options;
    options.incremental = true;  // agents fall back to full for gen 0
    options.image_prefix = "/ckpt/inc_g" + std::to_string(gen);
    auto stats = c.RunCheckpoint(
        {c.MemberFor(0, pods[0]), c.MemberFor(1, pods[1])}, options);
    ASSERT_TRUE(stats.success);
    last_paths = stats.image_paths;
    cruz::Bytes raw;
    c.fs().ReadFile(last_paths[0], raw);
    if (gen == 0) {
      full_bytes = raw.size();
    } else {
      delta_bytes = raw.size();
    }
  }
  // slm dirties only its boundary rows: deltas are far smaller than the
  // full image (which carries the whole grid).
  EXPECT_LT(delta_bytes, full_bytes / 4);

  // Kill both pods and restart ON SPARES from the last incremental image;
  // the agents resolve the chain through the shared FS.
  c.pods(0).DestroyPod(pods[0]);
  c.pods(1).DestroyPod(pods[1]);
  auto rs = c.RunRestart(
      {c.MemberFor(2, pods[0]), c.MemberFor(3, pods[1])}, last_paths, {});
  ASSERT_TRUE(rs.success);
  std::vector<std::size_t> nodes = {2, 3};
  ASSERT_TRUE(c.sim().RunWhile(
      [&] {
        return iterations(2, 0) >= base.iterations &&
               iterations(3, 1) >= base.iterations;
      },
      c.sim().Now() + 600 * kSecond));
  for (std::uint32_t r = 0; r < 2; ++r) {
    apps::SlmConfig cfg = base;
    cfg.rank = r;
    os::Process* p = c.node(nodes[r]).os().FindProcess(
        c.pods(nodes[r]).ToRealPid(pods[r], vpids[r]));
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(apps::ReadSlmStatus(*p).edge_checksum,
              apps::SlmReferenceChecksum(cfg, base.iterations))
        << "rank " << r;
  }
}

// --- copy-on-write -----------------------------------------------------------------

TEST(CopyOnWrite, PodResumesBeforeDiskWriteFinishes) {
  ClusterConfig config;
  config.num_nodes = 2;
  // Very slow disk: the write takes ~1 s, the capture microseconds.
  config.node_template.disk_write_bytes_per_sec = 1 * kMiB;
  Cluster c(config);
  os::PodId id = c.CreatePod(0, "job");
  os::Pid vpid = c.pods(0).SpawnInPod(id, "cruz.counter",
                                      apps::CounterArgs(1u << 30));
  os::Process* proc =
      c.node(0).os().FindProcess(c.pods(0).ToRealPid(id, vpid));
  cruz::Bytes page(os::kPageSize, 0x42);
  for (std::uint64_t i = 0; i < 256; ++i) {  // ~1 MiB of state
    proc->memory().InstallPage(0x100 + i, page);
  }
  c.sim().RunFor(10 * kMillisecond);
  std::uint64_t before = apps::ReadCounter(*proc);

  // Copy-on-write + Fig. 4: the pod should be running again long before
  // the ~1 s disk write completes.
  coord::Coordinator::Options options;
  options.variant = coord::ProtocolVariant::kOptimized;
  options.copy_on_write = true;
  options.image_prefix = "/ckpt/cow";
  bool finished = false;
  coord::Coordinator::OpStats stats;
  c.coordinator().Checkpoint({c.MemberFor(0, id)}, options,
                             [&](const coord::Coordinator::OpStats& s) {
                               stats = s;
                               finished = true;
                             });
  // 100 ms in (disk write still running), the counter must be moving.
  c.sim().RunFor(100 * kMillisecond);
  EXPECT_FALSE(finished);  // the <done> has not been sent yet
  EXPECT_GT(apps::ReadCounter(*proc), before);

  ASSERT_TRUE(c.sim().RunWhile([&] { return finished; },
                               c.sim().Now() + 600 * kSecond));
  EXPECT_TRUE(stats.success);
  // The image on disk is complete and restorable.
  c.pods(0).DestroyPod(id);
  PodCheckpoint ck = CheckpointEngine::LoadImageChain(
      c.tiered(), nullptr, stats.image_paths[0]);
  os::PodId restored = CheckpointEngine::RestorePod(c.pods(0), ck);
  CheckpointEngine::ResumePod(c.pods(0), restored);
  c.sim().RunFor(10 * kMillisecond);
  os::Process* rp =
      c.node(0).os().FindProcess(c.pods(0).ToRealPid(restored, vpid));
  ASSERT_NE(rp, nullptr);
  EXPECT_GT(apps::ReadCounter(*rp), 0u);
}

TEST(CopyOnWrite, StreamSurvivesCowCheckpoint) {
  ClusterConfig config;
  config.num_nodes = 2;
  config.node_template.disk_write_bytes_per_sec = 2 * kMiB;
  Cluster c(config);
  os::PodId rp = c.CreatePod(1, "recv");
  net::Ipv4Address rip = c.pods(1).Find(rp)->ip;
  os::Pid rv = c.pods(1).SpawnInPod(rp, "cruz.stream_receiver",
                                    apps::StreamReceiverArgs(9100));
  c.sim().RunFor(5 * kMillisecond);
  os::PodId sp = c.CreatePod(0, "send");
  c.pods(0).SpawnInPod(sp, "cruz.stream_sender",
                       apps::StreamSenderArgs(rip, 9100, 4 * kMiB));
  auto status = [&] {
    os::Process* p =
        c.node(1).os().FindProcess(c.pods(1).ToRealPid(rp, rv));
    return p != nullptr ? apps::ReadStreamStatus(*p) : apps::StreamStatus{};
  };
  ASSERT_TRUE(c.sim().RunWhile(
      [&] { return status().bytes > 512 * 1024; },
      c.sim().Now() + 60 * kSecond));
  coord::Coordinator::Options options;
  options.variant = coord::ProtocolVariant::kOptimized;
  options.copy_on_write = true;
  options.image_prefix = "/ckpt/cowstream";
  auto stats = c.RunCheckpoint(
      {c.MemberFor(0, sp), c.MemberFor(1, rp)}, options);
  ASSERT_TRUE(stats.success);
  apps::StreamStatus last;
  ASSERT_TRUE(c.sim().RunWhile(
      [&] {
        auto s = status();
        if (s.bytes != 0) last = s;
        return last.bytes >= 4 * kMiB;
      },
      c.sim().Now() + 600 * kSecond));
  EXPECT_EQ(last.mismatches, 0u);
}

// The dirty-page baseline resets at SNAPSHOT time, not at write-out
// completion: an incremental capture taken after a forked (COW) capture
// holds exactly the pages written after the snapshot point — pages that
// only exist in the (conceptually still-being-written) base image do not
// reappear in the delta.
TEST(Incremental, DeltaAfterCowCaptureHoldsOnlyPostSnapshotPages) {
  Cluster c;
  os::PodId id = c.CreatePod(0, "job");
  os::Pid vpid = c.pods(0).SpawnInPod(id, "cruz.counter",
                                      apps::CounterArgs(1u << 30));
  os::Process* proc =
      c.node(0).os().FindProcess(c.pods(0).ToRealPid(id, vpid));
  cruz::Bytes page(os::kPageSize, 0x42);
  for (std::uint64_t i = 0; i < 100; ++i) {
    proc->memory().InstallPage(0x1000 + i, page);
  }
  c.sim().RunFor(10 * kMillisecond);

  // Forked full capture: snapshot now, materialize later.
  PodSnapshot snap =
      CheckpointEngine::SnapshotPod(c.pods(0), id, CaptureOptions{});
  CheckpointEngine::ResumePod(c.pods(0), id);

  // Writes landing while the background write-out would still be running:
  // one snapshot page, one brand-new page, plus whatever the counter
  // touches while time passes.
  proc->memory().WriteU64((0x1000 + 3) * os::kPageSize + 8, 1);
  proc->memory().WriteU64(0x5000 * os::kPageSize, 2);
  c.sim().RunFor(5 * kMillisecond);

  // The base image materializes only now — after the delta's writes.
  c.fs().WriteFile("/ckpt/cowbase.img", snap.Materialize().Serialize());

  CaptureOptions options;
  options.incremental = true;
  options.parent_image = "/ckpt/cowbase.img";
  options.generation = 1;
  PodCheckpoint delta = CheckpointEngine::CapturePod(c.pods(0), id, options);

  std::set<std::uint64_t> indices;
  for (const PageRecord& p : delta.processes.at(0).pages) {
    indices.insert(p.page_index);
  }
  EXPECT_TRUE(indices.count(0x1000 + 3));
  EXPECT_TRUE(indices.count(0x5000));
  EXPECT_TRUE(indices.count(apps::kStatusAddr / os::kPageSize));
  EXPECT_LT(indices.size(), 8u);  // nothing beyond the post-snapshot set
  for (std::uint64_t i = 0; i < 100; ++i) {
    if (i != 3) EXPECT_FALSE(indices.count(0x1000 + i)) << i;
  }

  // The chain (raw base + compressed delta) restores to current state.
  std::uint64_t at_delta = apps::ReadCounter(*proc);
  c.fs().WriteFile("/ckpt/cowdelta.img", delta.Serialize(true));
  c.pods(0).DestroyPod(id);
  PodCheckpoint merged =
      CheckpointEngine::LoadImageChain(c.tiered(), nullptr,
                                       "/ckpt/cowdelta.img");
  os::PodId restored = CheckpointEngine::RestorePod(c.pods(0), merged);
  os::Process* rp =
      c.node(0).os().FindProcess(c.pods(0).ToRealPid(restored, vpid));
  ASSERT_NE(rp, nullptr);
  EXPECT_EQ(apps::ReadCounter(*rp), at_delta);
  EXPECT_EQ(rp->memory().ReadBytes((0x1000 + 5) * os::kPageSize, 8),
            cruz::Bytes(8, 0x42));
}

// --- restart chain accounting ------------------------------------------------

// Three committed generations of one counter pod: a full base and two
// incremental deltas, each writing fresh pages. Returns the image path
// of each generation, oldest first.
std::vector<std::string> CheckpointThreeLinkChain(Cluster& c, os::PodId id) {
  os::Process* proc = c.node(0).os().FindProcess(c.pods(0).ToRealPid(id, 1));
  std::vector<std::string> links;
  for (std::uint64_t gen = 0; gen < 3; ++gen) {
    for (std::uint64_t i = 0; i < 4 + gen; ++i) {
      cruz::Bytes page(os::kPageSize, static_cast<std::uint8_t>(gen + i));
      proc->memory().InstallPage(0x2000 + 16 * gen + i, page);
    }
    c.sim().RunFor(10 * kMillisecond);
    coord::Coordinator::Options options;
    options.incremental = true;  // the first capture falls back to full
    auto result = c.RunGenerationCheckpoint({c.MemberFor(0, id)}, options);
    EXPECT_TRUE(result.stats.success) << result.stats.abort_reason;
    links.push_back(result.stats.image_paths.at(0));
  }
  return links;
}

std::string ArgOf(const obs::TraceEvent& e, const std::string& key) {
  for (const auto& [k, v] : e.attrs.args) {
    if (k == key) return v;
  }
  return {};
}

// The restore cost model charges every byte read from storage: the
// agent.restore span's chain_bytes is the sum of all three link sizes,
// and the restart latency follows from it.
TEST(RestartChain, ChainBytesSumEveryLink) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  os::PodId id = c.CreatePod(0, "job");
  c.pods(0).SpawnInPod(id, "cruz.counter", apps::CounterArgs(1u << 30));
  std::vector<std::string> links = CheckpointThreeLinkChain(c, id);
  ASSERT_EQ(links.size(), 3u);

  std::uint64_t link_bytes = 0;
  for (std::size_t i = 0; i < links.size(); ++i) {
    cruz::Bytes raw;
    ASSERT_TRUE(SysOk(c.fs().ReadFile(links[i], raw)));
    link_bytes += raw.size();
    PodCheckpoint ck = PodCheckpoint::Deserialize(raw);
    EXPECT_EQ(ck.incremental, i > 0) << links[i];
    EXPECT_EQ(ck.parent_image, i > 0 ? links[i - 1] : "") << links[i];
  }

  c.pods(0).DestroyPod(id);
  c.sim().RunFor(5 * kMillisecond);
  auto restart = c.RunGenerationRestart({c.MemberFor(1, id)});
  ASSERT_TRUE(restart.stats.success) << restart.stats.abort_reason;
  EXPECT_FALSE(restart.fell_back);
  EXPECT_EQ(restart.stats.full_latency, 5625544);

  obs::TraceQuery query(c.sim().tracer());
  auto restores = query.Select(obs::TraceQuery::Filter{}.Name("agent.restore"));
  ASSERT_EQ(restores.size(), 1u);
  EXPECT_EQ(ArgOf(*restores[0], "chain_bytes"), std::to_string(link_bytes));
}

// A corrupt middle link makes the head image unreadable: the agent fails
// the restart op, and a generation restart falls back past both
// generations that depend on the damaged link.
TEST(RestartChain, CorruptMiddleLinkFailsAndFallsBack) {
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  os::PodId id = c.CreatePod(0, "job");
  c.pods(0).SpawnInPod(id, "cruz.counter", apps::CounterArgs(1u << 30));
  std::vector<std::string> links = CheckpointThreeLinkChain(c, id);
  ASSERT_EQ(links.size(), 3u);

  cruz::Bytes middle;
  ASSERT_TRUE(SysOk(c.fs().ReadFile(links[1], middle)));
  middle[middle.size() / 2] ^= 0x40;
  ASSERT_TRUE(SysOk(c.fs().WriteFile(links[1], middle)));

  c.pods(0).DestroyPod(id);
  c.sim().RunFor(5 * kMillisecond);
  auto failed = c.RunRestart({c.MemberFor(1, id)}, {links[2]});
  EXPECT_FALSE(failed.success);
  obs::TraceQuery query(c.sim().tracer());
  auto failures = query.Select(obs::TraceQuery::Filter{}.Name("agent.failed"));
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(ArgOf(*failures[0], "why"), "image unreadable");
  EXPECT_TRUE(
      query.Select(obs::TraceQuery::Filter{}.Name("agent.restore")).empty());

  auto restart = c.RunGenerationRestart({c.MemberFor(1, id)});
  ASSERT_TRUE(restart.stats.success) << restart.stats.abort_reason;
  EXPECT_TRUE(restart.fell_back);
  EXPECT_EQ(restart.generation + 2, restart.latest_committed);
}

}  // namespace
}  // namespace cruz::ckpt
