// Forked (copy-on-write) checkpointing and the compressed page codec.
//
// The central property under test: a PodSnapshot taken under the stop is
// byte-stable — materializing it AFTER the pod has resumed and run a
// write-heavy workload produces an image byte-identical to a
// stop-the-world capture taken at the snapshot point. This is verified
// differentially over many seeds with randomized working sets and write
// patterns (satellite 1 of the concurrent-COW issue).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "apps/programs.h"
#include "ckpt/engine.h"
#include "ckpt/page_codec.h"
#include "common/crc32.h"
#include "common/error.h"
#include "common/rng.h"
#include "cruz/cluster.h"

namespace cruz::ckpt {
namespace {

// --- os::Memory snapshot semantics -----------------------------------------

TEST(CowMemory, WritesAfterSnapshotCopyInsteadOfMutating) {
  os::Memory m;
  m.WriteU64(0x1000, 11);
  m.WriteU64(0x2000, 22);
  os::MemorySnapshot snap = m.Snapshot();
  EXPECT_EQ(snap.PageCount(), 2u);
  EXPECT_EQ(m.cow_faults(), 0u);

  m.WriteU64(0x1000, 99);  // shared page: must copy first
  EXPECT_EQ(m.cow_faults(), 1u);
  m.WriteU64(0x1008, 100);  // page is private now: no second fault
  EXPECT_EQ(m.cow_faults(), 1u);
  m.WriteU64(0x3000, 33);  // fresh page: never shared, no fault
  EXPECT_EQ(m.cow_faults(), 1u);

  // The snapshot still sees the snapshot-point bytes...
  const os::MemorySnapshot::Page* page = snap.Find(1);
  ASSERT_NE(page, nullptr);
  std::uint64_t v = 0;
  std::memcpy(&v, page->data(), sizeof(v));
  EXPECT_EQ(v, 11u);
  EXPECT_EQ(snap.Find(3), nullptr);  // post-snapshot page is not in it
  // ...while the live memory sees the new value.
  EXPECT_EQ(m.ReadU64(0x1000), 99u);

  // Dropping the live page does not disturb the snapshot either.
  m.Clear();
  page = snap.Find(2);
  ASSERT_NE(page, nullptr);
  std::memcpy(&v, page->data(), sizeof(v));
  EXPECT_EQ(v, 22u);
}

// --- page codec -------------------------------------------------------------

TEST(PageCodec, RoundTripsConstantAndRandomPages) {
  Rng rng(42);
  cruz::Bytes constant(os::kPageSize, 0x5A);
  cruz::Bytes encoded = EncodePage(constant, PageCodec::kRle);
  EXPECT_LT(encoded.size(), 64u);  // 4 KiB of one byte shrinks to tokens
  EXPECT_EQ(DecodePage(encoded), constant);

  cruz::Bytes random(os::kPageSize);
  for (auto& b : random) b = static_cast<std::uint8_t>(rng.NextBelow(256));
  encoded = EncodePage(random, PageCodec::kRle);
  // Incompressible data falls back to the raw codec: bounded overhead.
  EXPECT_EQ(encoded[0], static_cast<std::uint8_t>(PageCodec::kRaw));
  EXPECT_LE(encoded.size(), os::kPageSize + 5);
  EXPECT_EQ(DecodePage(encoded), random);
}

// Scalar bit-at-a-time CRC-32 (IEEE, reflected): the reference the
// sliced production implementation must match bit-for-bit.
std::uint32_t ReferenceCrc32(cruz::ByteSpan data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::uint8_t b : data) {
    c ^= b;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(PageCodec, SlicedCrcMatchesScalarReference) {
  // Empty input and the known check value for "123456789".
  EXPECT_EQ(cruz::Crc32({}), ReferenceCrc32({}));
  const char* check = "123456789";
  cruz::ByteSpan check_span(reinterpret_cast<const std::uint8_t*>(check), 9);
  EXPECT_EQ(cruz::Crc32(check_span), 0xCBF43926u);

  cruz::Bytes ff(os::kPageSize, 0xFF);
  EXPECT_EQ(cruz::Crc32(ff), ReferenceCrc32(ff));

  Rng rng(20260808);
  for (int trial = 0; trial < 16; ++trial) {
    // Odd lengths exercise the scalar tail after the 8-byte folds.
    std::size_t len = 1 + rng.NextBelow(os::kPageSize + 7);
    cruz::Bytes data(len);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.NextBelow(256));
    EXPECT_EQ(cruz::Crc32(data), ReferenceCrc32(data)) << "len " << len;

    // Incremental updates split at an arbitrary point must agree too.
    Crc32Accumulator acc;
    std::size_t cut = rng.NextBelow(len + 1);
    acc.Update(cruz::ByteSpan(data.data(), cut));
    acc.Update(cruz::ByteSpan(data.data() + cut, len - cut));
    EXPECT_EQ(acc.Finish(), ReferenceCrc32(data));
  }
}

TEST(PageCodec, PreChangeImagesDecodeUnchanged) {
  // Hand-encoded pages in the on-disk format produced BEFORE the codec
  // perf pass (format: u8 codec id, u32 CRC of the raw page, payload).
  // The rewrite must keep decoding them byte-for-byte.
  cruz::Bytes raw_page(os::kPageSize);
  for (std::size_t i = 0; i < raw_page.size(); ++i) {
    raw_page[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  cruz::ByteWriter v1;
  v1.PutU8(0);  // kRaw
  v1.PutU32(ReferenceCrc32(raw_page));
  v1.PutBytes(raw_page);
  EXPECT_EQ(DecodePage(v1.data()), raw_page);

  // RLE page with two runs: 4000 bytes of 0x11 then 96 of 0x22.
  cruz::Bytes rle_page;
  rle_page.insert(rle_page.end(), 4000, 0x11);
  rle_page.insert(rle_page.end(), 96, 0x22);
  ASSERT_EQ(rle_page.size(), os::kPageSize);
  cruz::ByteWriter v2;
  v2.PutU8(1);  // kRle
  v2.PutU32(ReferenceCrc32(rle_page));
  v2.PutU16(4000);
  v2.PutU8(0x11);
  v2.PutU16(96);
  v2.PutU8(0x22);
  EXPECT_EQ(DecodePage(v2.data()), rle_page);

  // And the encoder still emits exactly those bytes for the same pages,
  // so images written after the change are identical to before.
  EXPECT_EQ(EncodePage(raw_page, PageCodec::kRle), v1.data());
  EXPECT_EQ(EncodePage(rle_page, PageCodec::kRle), v2.data());
}

// Reference encoder: builds the full token stream first and keeps it
// iff it is smaller than the page — the decision EncodePage now makes by
// counting runs without building tokens.
cruz::Bytes ReferenceEncodeRle(cruz::ByteSpan page) {
  cruz::ByteWriter body;
  for (std::size_t i = 0; i < page.size();) {
    std::size_t run = 1;
    while (i + run < page.size() && page[i + run] == page[i]) ++run;
    body.PutU16(static_cast<std::uint16_t>(run));
    body.PutU8(page[i]);
    i += run;
  }
  cruz::ByteWriter out;
  bool rle = body.data().size() < page.size();
  out.PutU8(rle ? 1 : 0);
  out.PutU32(ReferenceCrc32(page));
  out.PutBytes(rle ? cruz::ByteSpan(body.data()) : page);
  return out.Take();
}

TEST(PageCodec, WordScanRleMatchesNaiveEncoderOnRandomPages) {
  // Differential check of the 8-byte-at-a-time run scanner against a
  // naive byte-by-byte encoder, over pages with RLE-friendly structure.
  Rng rng(7);
  for (int trial = 0; trial < 32; ++trial) {
    cruz::Bytes page;
    page.reserve(os::kPageSize);
    while (page.size() < os::kPageSize) {
      std::uint8_t value = static_cast<std::uint8_t>(rng.NextBelow(4));
      std::size_t run = 1 + rng.NextBelow(200);
      run = std::min(run, os::kPageSize - page.size());
      page.insert(page.end(), run, value);
    }
    cruz::Bytes encoded = EncodePage(page, PageCodec::kRle);
    EXPECT_EQ(encoded[0], static_cast<std::uint8_t>(PageCodec::kRle));
    EXPECT_EQ(encoded, ReferenceEncodeRle(page)) << "trial " << trial;
  }
}

// A page of exactly `runs` runs whose boundaries are drawn at random.
cruz::Bytes PageWithRuns(Rng& rng, std::size_t runs) {
  std::vector<bool> cut(os::kPageSize, false);
  for (std::size_t placed = 1; placed < runs;) {
    std::size_t at = 1 + rng.NextBelow(os::kPageSize - 1);
    if (!cut[at]) {
      cut[at] = true;
      ++placed;
    }
  }
  cruz::Bytes page(os::kPageSize);
  page[0] = static_cast<std::uint8_t>(rng.NextBelow(256));
  for (std::size_t i = 1; i < page.size(); ++i) {
    page[i] = page[i - 1];
    if (cut[i]) page[i] += static_cast<std::uint8_t>(1 + rng.NextBelow(255));
  }
  return page;
}

TEST(PageCodec, RunCountingMatchesFullTokenBuild) {
  Rng rng(1515);
  std::vector<cruz::Bytes> pages;
  for (std::uint8_t value : {0x00, 0x80, 0xFF}) {  // constant: one run
    pages.emplace_back(os::kPageSize, value);
  }
  for (int trial = 0; trial < 8; ++trial) {  // random: incompressible
    cruz::Bytes page(os::kPageSize);
    for (auto& b : page) b = static_cast<std::uint8_t>(rng.NextBelow(256));
    pages.push_back(page);
  }
  for (std::size_t stripe : {1, 2, 3, 4, 7, 8, 9, 64}) {  // striped
    cruz::Bytes page(os::kPageSize);
    for (std::size_t i = 0; i < page.size(); ++i) {
      page[i] = (i / stripe) % 2 ? 0xA5 : 0x5A;
    }
    pages.push_back(page);
  }
  // The run counter sums the transitions of each 8-byte word: pages with
  // a transition at every offset within a word, at word edges only, and
  // between bytes that differ only in their top or bottom bit pin that
  // sum.
  for (std::uint8_t flip : {0x01, 0x80, 0x81}) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      cruz::Bytes page(os::kPageSize, 0x40);
      for (std::size_t i = offset; i < page.size(); i += 8) page[i] ^= flip;
      pages.push_back(page);
    }
    cruz::Bytes alternating(os::kPageSize), edges(os::kPageSize);
    for (std::size_t i = 0; i < os::kPageSize; ++i) {
      alternating[i] = static_cast<std::uint8_t>(i % 2 ? flip : 0);
      edges[i] = static_cast<std::uint8_t>((i / 8) % 2 ? flip : 0);
    }
    pages.push_back(alternating);
    pages.push_back(edges);
  }
  for (int trial = 0; trial < 64; ++trial) {  // run counts near the cut
    pages.push_back(PageWithRuns(rng, 1300 + rng.NextBelow(130)));
  }
  for (int trial = 0; trial < 16; ++trial) {  // sparse
    pages.push_back(PageWithRuns(rng, 1 + rng.NextBelow(64)));
  }
  for (const cruz::Bytes& page : pages) {
    EXPECT_EQ(EncodePage(page, PageCodec::kRle), ReferenceEncodeRle(page));
    EXPECT_EQ(EncodedPageSize(page, PageCodec::kRle),
              ReferenceEncodeRle(page).size());
    EXPECT_EQ(DecodePage(EncodePage(page, PageCodec::kRle)), page);
  }
}

TEST(PageCodec, BorderlineRleBodiesChooseTheSmallerCodec) {
  // Three-byte tokens make every RLE body a multiple of 3, and kPageSize
  // is not, so the borderline bodies are the multiples of 3 around it:
  // kPageSize - 4 and kPageSize - 1 (RLE wins) and kPageSize + 2 (raw).
  static_assert(os::kPageSize % 3 == 1);
  Rng rng(4096);
  const std::size_t runs_at_cut = os::kPageSize / 3;  // body kPageSize - 1
  for (std::size_t runs : {runs_at_cut - 1, runs_at_cut, runs_at_cut + 1}) {
    cruz::Bytes page = PageWithRuns(rng, runs);
    cruz::Bytes encoded = EncodePage(page, PageCodec::kRle);
    const bool rle = 3 * runs < os::kPageSize;
    EXPECT_EQ(encoded[0], rle ? 1 : 0) << runs << " runs";
    EXPECT_EQ(encoded.size(), 5 + (rle ? 3 * runs : os::kPageSize))
        << runs << " runs";
    EXPECT_EQ(encoded, ReferenceEncodeRle(page)) << runs << " runs";
    EXPECT_EQ(DecodePage(encoded), page);
  }
}

TEST(PageCodec, SingleBitFlipRaisesCodecError) {
  cruz::Bytes page(os::kPageSize, 0);
  for (std::size_t i = 0; i < 512; ++i) {
    page[i * 8] = static_cast<std::uint8_t>(i);
  }
  cruz::Bytes encoded = EncodePage(page, PageCodec::kRle);
  ASSERT_EQ(DecodePage(encoded), page);
  for (std::size_t at : {std::size_t{0}, std::size_t{3},
                         encoded.size() / 2, encoded.size() - 1}) {
    cruz::Bytes damaged = encoded;
    damaged[at] ^= 0x10;
    EXPECT_THROW(DecodePage(damaged), CodecError) << "flip at " << at;
  }
  // Truncation is corruption too.
  cruz::Bytes truncated(encoded.begin(), encoded.end() - 1);
  EXPECT_THROW(DecodePage(truncated), CodecError);
}

TEST(PageCodec, CompressedImageIsVersion2AndEquivalent) {
  PodCheckpoint ck;
  ck.pod_name = "codec";
  ProcessRecord p;
  p.vpid = 1;
  p.program = "cruz.counter";
  p.pages.push_back(
      PageRecord{4, std::make_shared<cruz::Bytes>(os::kPageSize, 0xAB)});
  p.pages.push_back(
      PageRecord{9, std::make_shared<cruz::Bytes>(os::kPageSize, 0x00)});
  ck.processes.push_back(p);

  cruz::Bytes raw = ck.Serialize(false);
  cruz::Bytes compressed = ck.Serialize(true);
  EXPECT_LT(compressed.size(), raw.size() / 2);  // constant pages collapse
  // Both versions decode to the same checkpoint.
  PodCheckpoint from_raw = PodCheckpoint::Deserialize(raw);
  PodCheckpoint from_z = PodCheckpoint::Deserialize(compressed);
  EXPECT_EQ(from_raw.Serialize(false), from_z.Serialize(false));
  EXPECT_EQ(*from_z.processes.at(0).pages.at(0).content,
            cruz::Bytes(os::kPageSize, 0xAB));
}

// --- the differential test ---------------------------------------------------

// One seed: build a pod with a randomized working set (a mix of
// RLE-friendly constant pages and incompressible random pages), snapshot
// it, serialize the reference image immediately — this is exactly what a
// stop-the-world capture at the snapshot point writes, since CapturePod
// is SnapshotPod + Materialize — then resume the pod and hammer its
// memory concurrently with simulated time advancing (the counter program
// keeps writing too). Materializing the snapshot afterwards must produce
// the identical bytes, raw and compressed.
class CowDifferential : public ::testing::TestWithParam<int> {};

TEST_P(CowDifferential, LateMaterializeMatchesSnapshotPoint) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 1);
  ClusterConfig config;
  config.num_nodes = 1;
  config.seed = static_cast<std::uint64_t>(seed);
  Cluster c(config);
  os::PodId id = c.CreatePod(0, "job");
  os::Pid vpid = c.pods(0).SpawnInPod(id, "cruz.counter",
                                      apps::CounterArgs(1u << 30));
  os::Process* proc =
      c.node(0).os().FindProcess(c.pods(0).ToRealPid(id, vpid));
  ASSERT_NE(proc, nullptr);

  const std::uint64_t npages = 32 + rng.NextBelow(96);
  for (std::uint64_t i = 0; i < npages; ++i) {
    cruz::Bytes page(os::kPageSize);
    if (rng.NextBernoulli(0.5)) {
      page.assign(os::kPageSize,
                  static_cast<std::uint8_t>(rng.NextBelow(256)));
    } else {
      for (auto& b : page) {
        b = static_cast<std::uint8_t>(rng.NextBelow(256));
      }
    }
    proc->memory().InstallPage(0x100 + i, page);
  }
  c.sim().RunFor(kMillisecond + rng.NextBelow(20 * kMillisecond));

  CaptureStats stats;
  PodSnapshot snap =
      CheckpointEngine::SnapshotPod(c.pods(0), id, CaptureOptions{}, &stats);
  EXPECT_GE(stats.snapshot_pages, npages);
  cruz::Bytes ref_raw = snap.Materialize().Serialize(false);
  cruz::Bytes ref_compressed = snap.Materialize().Serialize(true);
  CheckpointEngine::ResumePod(c.pods(0), id);

  // Write-heavy concurrent phase: random overwrites of snapshot pages and
  // some brand-new pages, interleaved with simulated time (during which
  // the counter program writes as well).
  proc->memory().ResetCowFaults();
  for (int burst = 0; burst < 8; ++burst) {
    const int writes = 1 + static_cast<int>(rng.NextBelow(48));
    for (int w = 0; w < writes; ++w) {
      std::uint64_t page_index = 0x100 + rng.NextBelow(npages + 16);
      std::uint64_t offset = rng.NextBelow(os::kPageSize - 8);
      proc->memory().WriteU64(page_index * os::kPageSize + offset,
                              rng.NextU64());
    }
    c.sim().RunFor(rng.NextBelow(5 * kMillisecond) + 1);
  }
  EXPECT_GT(proc->memory().cow_faults(), 0u) << "seed " << seed;

  // The pod has been running and writing the whole time; the snapshot
  // must not have moved a byte.
  EXPECT_EQ(snap.Materialize().Serialize(false), ref_raw)
      << "seed " << seed;
  EXPECT_EQ(snap.Materialize().Serialize(true), ref_compressed)
      << "seed " << seed;

  // Restoring the late-materialized image reproduces the snapshot-point
  // state exactly (compare against the reference deserialization).
  PodCheckpoint expected = PodCheckpoint::Deserialize(ref_compressed);
  c.pods(0).DestroyPod(id);
  os::PodId restored =
      CheckpointEngine::RestorePod(c.pods(0), snap.Materialize());
  os::Process* rp =
      c.node(0).os().FindProcess(c.pods(0).ToRealPid(restored, vpid));
  ASSERT_NE(rp, nullptr);
  for (const PageRecord& page : expected.processes.at(0).pages) {
    EXPECT_EQ(rp->memory().ReadBytes(page.page_index * os::kPageSize,
                                     os::kPageSize),
              *page.content)
        << "seed " << seed << " page " << page.page_index;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CowDifferential, ::testing::Range(1, 25));

// --- coordinated downtime split ---------------------------------------------

// With copy-on-write the coordinator-visible downtime must cover only the
// in-memory snapshot, not the background serialize + disk write; with
// stop-the-world the two coincide.
TEST(CowCoordinated, DowntimeExcludesBackgroundWriteOut) {
  auto run = [](bool cow, bool compress) {
    ClusterConfig config;
    config.num_nodes = 1;
    config.node_template.disk_write_bytes_per_sec = 2 * kMiB;  // slow disk
    Cluster c(config);
    os::PodId id = c.CreatePod(0, "job");
    os::Pid vpid = c.pods(0).SpawnInPod(id, "cruz.counter",
                                        apps::CounterArgs(1u << 30));
    os::Process* proc =
        c.node(0).os().FindProcess(c.pods(0).ToRealPid(id, vpid));
    cruz::Bytes page(os::kPageSize, 0x42);
    for (std::uint64_t i = 0; i < 512; ++i) {  // ~2 MiB -> ~1 s disk write
      proc->memory().InstallPage(0x1000 + i, page);
    }
    c.sim().RunFor(10 * kMillisecond);
    coord::Coordinator::Options options;
    options.copy_on_write = cow;
    options.compress = compress;
    if (cow) options.variant = coord::ProtocolVariant::kOptimized;
    options.image_prefix = "/ckpt/downtime";
    auto stats = c.RunCheckpoint({c.MemberFor(0, id)}, options);
    EXPECT_TRUE(stats.success);
    return stats;
  };

  auto stw = run(false, false);
  EXPECT_GT(stw.max_downtime, 0u);
  EXPECT_EQ(stw.max_downtime, stw.max_local);  // stopped for the whole save

  auto cow = run(true, false);
  EXPECT_GT(cow.max_downtime, 0u);
  EXPECT_GT(cow.max_local, cow.max_downtime);
  // The issue's acceptance bar: COW downtime < 25% of stop-the-world.
  EXPECT_LT(cow.max_downtime, stw.max_downtime / 4);

  // Compression shrinks the committed image (constant pages collapse) and
  // keeps it restorable; downtime stays snapshot-bound.
  auto cowz = run(true, true);
  EXPECT_LT(cowz.max_downtime, stw.max_downtime / 4);
  EXPECT_TRUE(cowz.success);
}

// A coordinated COW+compressed checkpoint taken while the pod keeps
// writing commits an image that is valid and restorable.
TEST(CowCoordinated, CompressedCowImageRestores) {
  ClusterConfig config;
  config.num_nodes = 2;
  config.node_template.disk_write_bytes_per_sec = 2 * kMiB;
  Cluster c(config);
  os::PodId id = c.CreatePod(0, "job");
  os::Pid vpid = c.pods(0).SpawnInPod(id, "cruz.counter",
                                      apps::CounterArgs(1u << 30));
  os::Process* proc =
      c.node(0).os().FindProcess(c.pods(0).ToRealPid(id, vpid));
  cruz::Bytes page(os::kPageSize, 0x42);
  for (std::uint64_t i = 0; i < 512; ++i) {
    proc->memory().InstallPage(0x1000 + i, page);
  }
  c.sim().RunFor(10 * kMillisecond);

  coord::Coordinator::Options options;
  options.variant = coord::ProtocolVariant::kOptimized;
  options.copy_on_write = true;
  options.compress = true;
  options.image_prefix = "/ckpt/cowz";
  auto stats = c.RunCheckpoint({c.MemberFor(0, id)}, options);
  ASSERT_TRUE(stats.success);

  // The image on the shared FS is a version-2 (compressed) image and far
  // smaller than the raw working set.
  cruz::Bytes image;
  ASSERT_TRUE(SysOk(c.fs().ReadFile(stats.image_paths.at(0), image)));
  EXPECT_LT(image.size(), 512 * os::kPageSize / 4);

  // Restart the pod on the other node from the compressed image.
  c.pods(0).DestroyPod(id);
  auto rs = c.RunRestart({c.MemberFor(1, id)}, stats.image_paths, {});
  ASSERT_TRUE(rs.success);
  os::Process* rp =
      c.node(1).os().FindProcess(c.pods(1).ToRealPid(id, vpid));
  ASSERT_NE(rp, nullptr);
  EXPECT_EQ(rp->memory().ReadBytes(0x1000 * os::kPageSize, 16),
            cruz::Bytes(16, 0x42));
  std::uint64_t before = apps::ReadCounter(*rp);
  c.sim().RunFor(20 * kMillisecond);
  EXPECT_GT(apps::ReadCounter(*rp), before);  // resumed and running
}

// --- restore by adoption -------------------------------------------------

// A pod on node 0 running the counter over `npages` installed pages of
// distinct content.
struct BallastPod {
  os::PodId id = os::kNoPod;
  os::Pid vpid = os::kNoPid;
};

BallastPod SpawnBallastPod(Cluster& c, std::uint64_t npages) {
  BallastPod pod;
  pod.id = c.CreatePod(0, "job");
  pod.vpid = c.pods(0).SpawnInPod(pod.id, "cruz.counter",
                                  apps::CounterArgs(1u << 30));
  os::Process* proc =
      c.node(0).os().FindProcess(c.pods(0).ToRealPid(pod.id, pod.vpid));
  for (std::uint64_t i = 0; i < npages; ++i) {
    proc->memory().InstallPage(
        0x1000 + i, cruz::Bytes(os::kPageSize, static_cast<std::uint8_t>(i)));
  }
  c.sim().RunFor(5 * kMillisecond);
  return pod;
}

// Restoring adopts the image's page handles: no page byte is copied into
// the pod's memory, a write copies a page only while the image still
// holds it, and no write ever reaches the image, whose re-serialization
// stays byte-identical.
TEST(CowRestore, AdoptedPagesNeverWriteThroughToTheImage) {
  constexpr std::uint64_t kPages = 16;
  ClusterConfig config;
  config.num_nodes = 1;
  Cluster c(config);
  BallastPod pod = SpawnBallastPod(c, kPages);
  const cruz::Bytes image =
      CheckpointEngine::CapturePod(c.pods(0), pod.id).Serialize(true);
  c.pods(0).DestroyPod(pod.id);

  auto loaded = std::make_unique<PodCheckpoint>(
      PodCheckpoint::Deserialize(image));
  const std::uint64_t copied = os::MemoryBytesCopiedTotal();
  os::PodId restored = CheckpointEngine::RestorePod(c.pods(0), *loaded);
  EXPECT_EQ(os::MemoryBytesCopiedTotal(), copied) << "restore copied pages";
  os::Process* proc = c.node(0).os().FindProcess(
      c.pods(0).ToRealPid(restored, pod.vpid));
  ASSERT_NE(proc, nullptr);
  proc->memory().ResetCowFaults();

  // The first half is written while the image holds every page: each
  // write copies its page first.
  for (std::uint64_t i = 0; i < kPages / 2; ++i) {
    proc->memory().WriteBytes((0x1000 + i) * os::kPageSize,
                              cruz::Bytes(64, 0xFF));
  }
  EXPECT_EQ(proc->memory().cow_faults(), kPages / 2);
  CheckpointEngine::ResumePod(c.pods(0), restored);
  c.sim().RunFor(5 * kMillisecond);  // the counter writes its status page
  EXPECT_EQ(loaded->Serialize(true), image);
  const PodCheckpoint fresh = PodCheckpoint::Deserialize(image);
  ASSERT_EQ(loaded->processes.at(0).pages.size(),
            fresh.processes.at(0).pages.size());
  for (std::size_t i = 0; i < fresh.processes.at(0).pages.size(); ++i) {
    EXPECT_EQ(*loaded->processes.at(0).pages[i].content,
              *fresh.processes.at(0).pages[i].content);
  }

  // With the image gone the pod is each page's only holder: writes land
  // in place.
  loaded.reset();
  const std::uint64_t faults = proc->memory().cow_faults();
  for (std::uint64_t i = kPages / 2; i < kPages; ++i) {
    proc->memory().WriteBytes((0x1000 + i) * os::kPageSize,
                              cruz::Bytes(64, 0xFF));
  }
  EXPECT_EQ(proc->memory().cow_faults(), faults);
}

// Post-copy's stop, by hand: the target adopts the resident pages of an
// image materialized from the frozen snapshot, faults on the rest, and
// is filled from the snapshot. However the target writes, the pages the
// snapshot holds (and serves) keep the bytes they had at the stop.
TEST(CowRestore, PostCopyTargetWritesNeverReachTheFrozenSnapshot) {
  constexpr std::uint64_t kPages = 16;
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster c(config);
  BallastPod pod = SpawnBallastPod(c, kPages);
  PodSnapshot frozen = CheckpointEngine::SnapshotPod(c.pods(0), pod.id, {});
  std::map<std::uint64_t, cruz::Bytes> at_stop;
  for (std::uint64_t i = 0; i < kPages; ++i) {
    const os::MemorySnapshot::Page* page =
        frozen.FindPage(pod.vpid, 0x1000 + i);
    ASSERT_NE(page, nullptr);
    at_stop[0x1000 + i] = *page;
  }
  // Odd pages stay behind on the source.
  auto missing = [](std::uint64_t index) { return index % 2 == 1; };
  {
    PodCheckpoint ck = frozen.Materialize();
    for (ProcessRecord& p : ck.processes) {
      std::erase_if(p.pages, [&](const PageRecord& page) {
        return page.page_index >= 0x1000 && missing(page.page_index);
      });
    }
    c.pods(0).DestroyPod(pod.id);
    os::PodId restored = CheckpointEngine::RestorePod(c.pods(1), ck);
    ASSERT_EQ(restored, pod.id);
  }
  os::Pid real = c.pods(1).ToRealPid(pod.id, pod.vpid);
  os::Process* proc = c.node(1).os().FindProcess(real);
  ASSERT_NE(proc, nullptr);
  for (const auto& [index, bytes] : at_stop) {
    if (missing(index)) proc->memory().MarkMissing(index);
  }
  CheckpointEngine::ResumePod(c.pods(1), pod.id);
  c.sim().RunFor(5 * kMillisecond);

  for (const auto& [index, bytes] : at_stop) {
    if (missing(index)) {
      const os::MemorySnapshot::Page* page = frozen.FindPage(pod.vpid, index);
      ASSERT_TRUE(c.node(1).os().FillPage(
          real, index, cruz::ByteSpan(page->data(), page->size())));
    }
    proc->memory().WriteBytes(index * os::kPageSize, cruz::Bytes(128, 0xEE));
  }
  for (const auto& [index, bytes] : at_stop) {
    const os::MemorySnapshot::Page* page = frozen.FindPage(pod.vpid, index);
    ASSERT_NE(page, nullptr);
    EXPECT_EQ(*page, bytes) << "page " << index;
    EXPECT_EQ(proc->memory().ReadBytes(index * os::kPageSize, 1),
              cruz::Bytes{0xEE});
  }
}

}  // namespace
}  // namespace cruz::ckpt
