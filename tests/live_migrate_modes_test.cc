// Mode-differential live-migration tests (see tests/migrate_harness.h).
//
// For every seed, the same deterministic workload is migrated under all
// four MigrateModes; a correct migration is invisible to the
// application, so the four final memory images must be bit-identical —
// to each other AND to a plain-C++ reference model of the workload.
// Downtime must be ordered the way the modes are designed to order it,
// and the post-copy page accounting must balance exactly: no page lost,
// none served after the source released its image.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "apps/programs.h"
#include "ckpt/live_migrate.h"
#include "coord/message.h"
#include "migrate_harness.h"

namespace cruz::ckpt {
namespace {

using testing::ModeRun;
using testing::ProfileFromSeed;
using testing::RunScribblerMigration;
using testing::ScribProfile;

// The ckpt library encodes page-channel messages by raw wire byte so it
// does not have to link against coord; pin the bytes to the enum here,
// where both headers are visible.
static_assert(kPageRequestMsgByte ==
              static_cast<std::uint8_t>(coord::MsgType::kPageRequest));
static_assert(kPageResponseMsgByte ==
              static_cast<std::uint8_t>(coord::MsgType::kPageResponse));

constexpr int kSeeds = 24;

// Short hot-set window: the post-copy stop moves at most
// hot_window / 5us + a couple of pages, strictly below the >= 48-page
// pool every pre-copy final round re-dirties.
LiveMigrateOptions HarnessOptions() {
  LiveMigrateOptions options;
  options.hot_window = 200 * kMicrosecond;
  return options;
}

struct SeedMatrix {
  ScribProfile profile;
  std::map<MigrateMode, ModeRun> runs;
};

SeedMatrix RunAllModes(std::uint64_t seed) {
  SeedMatrix m;
  m.profile = ProfileFromSeed(seed);
  for (MigrateMode mode :
       {MigrateMode::kStopAndCopy, MigrateMode::kPreCopy,
        MigrateMode::kPostCopy, MigrateMode::kHybrid}) {
    m.runs[mode] = RunScribblerMigration(m.profile, mode, HarnessOptions());
  }
  return m;
}

TEST(LiveMigrateModes, AllModesProduceIdenticalOutcomes) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    SeedMatrix m = RunAllModes(seed);
    cruz::Bytes args = testing::ScribblerArgs(m.profile.scribble_seed,
                                              m.profile.iterations,
                                              m.profile.pool_pages);
    testing::ScribExpectation expected =
        testing::ExpectedScribblerState(m.profile, args);

    for (const auto& [mode, run] : m.runs) {
      SCOPED_TRACE(MigrateModeName(mode));
      ASSERT_TRUE(run.migrated);
      ASSERT_TRUE(run.completed);
      // Exactly one running copy: gone from the source, live on target.
      EXPECT_TRUE(run.source_empty);
      // App-visible output: the workload ran to completion and computed
      // the same checksum it computes on an unmigrated machine.
      EXPECT_EQ(run.count, m.profile.iterations);
      EXPECT_EQ(run.checksum, expected.checksum);
      // Bit-identical final memory image vs the reference model (which
      // also makes all four modes identical to each other).
      EXPECT_EQ(run.image, expected.image);
      EXPECT_EQ(run.stats.mode, mode);
      EXPECT_GT(run.stats.downtime, 0);
    }

    // Downtime ordering is the whole point of the mode ladder. The
    // scribbler writes continuously through every migration, so the
    // inequalities are strict: post-copy moves < 48 hot pages where
    // pre-copy's final round moves the whole >= 48-page working set,
    // and stop-and-copy moves ballast too.
    const ModeRun& stop = m.runs[MigrateMode::kStopAndCopy];
    const ModeRun& pre = m.runs[MigrateMode::kPreCopy];
    const ModeRun& post = m.runs[MigrateMode::kPostCopy];
    const ModeRun& hybrid = m.runs[MigrateMode::kHybrid];
    EXPECT_LT(post.stats.downtime, pre.stats.downtime);
    EXPECT_LT(pre.stats.downtime, stop.stats.downtime);
    // Hybrid's stop transfers kernel state only — the shortest of all.
    EXPECT_LE(hybrid.stats.downtime, post.stats.downtime);

    // Page accounting: nothing lost, nothing served after release.
    for (const ModeRun* r : {&post, &hybrid}) {
      EXPECT_EQ(r->stats.pages_resident_at_resume +
                    r->stats.pages_fetched_on_demand + r->stats.pages_pushed,
                r->stats.pages_total);
      EXPECT_EQ(r->stats.late_serves, 0u);
      // Fault-free channel: nothing times out. (duplicate_fills_dropped
      // may be nonzero even here — a background push can race a demand
      // fetch — but duplicates are idempotent, which the image equality
      // above already proved.)
      EXPECT_EQ(r->stats.requests_retransmitted, 0u);
      EXPECT_GT(r->stats.pages_total, 0u);
    }
    // Post-copy pays for its short stop with demand-fetch degradation;
    // the stop-bounded modes have none by construction.
    EXPECT_EQ(stop.stats.degradation, 0);
    EXPECT_EQ(pre.stats.degradation, 0);
    EXPECT_GT(post.stats.pages_fetched_on_demand +
                  post.stats.pages_pushed,
              0u);
    // Pre-copy did iterative rounds; its per-round breakdown is filled.
    EXPECT_EQ(pre.stats.round_breakdown.size(),
              static_cast<std::size_t>(pre.stats.rounds));
    EXPECT_GE(pre.stats.rounds, 1);
    EXPECT_GE(hybrid.stats.rounds, 1);
  }
}

// Every LiveMigrateStats field, one line, in declaration order.
std::string FormatStats(const LiveMigrateStats& s) {
  std::string out = std::string(MigrateModeName(s.mode)) +
                    " rounds=" + std::to_string(s.rounds) + " breakdown=[";
  for (const MigrateRound& r : s.round_breakdown) {
    out += std::to_string(r.dirty_bytes) + "/" + std::to_string(r.duration) +
           ",";
  }
  out += "] precopy=" + std::to_string(s.precopy_bytes) +
         " final=" + std::to_string(s.final_bytes) +
         " downtime=" + std::to_string(s.downtime) +
         " total=" + std::to_string(s.total_duration) +
         " degradation=" + std::to_string(s.degradation) +
         " pages=" + std::to_string(s.pages_total) + "/" +
         std::to_string(s.pages_resident_at_resume) + "/" +
         std::to_string(s.pages_fetched_on_demand) + "/" +
         std::to_string(s.pages_pushed) +
         " dup=" + std::to_string(s.duplicate_fills_dropped) +
         " late=" + std::to_string(s.late_serves) +
         " retx=" + std::to_string(s.requests_retransmitted) +
         " op=" + std::to_string(s.op_id) + " pod=" + std::to_string(s.pod);
  return out;
}

// Pins every stats field of all four modes for one seeded run, so a
// refactor of the migration driver must reproduce its byte charges,
// timings and page accounting exactly.
TEST(LiveMigrateModes, StatsOfEveryModeArePinned) {
  SeedMatrix m = RunAllModes(3);
  const std::map<MigrateMode, std::string> expected = {
      {MigrateMode::kStopAndCopy,
       "stop-and-copy rounds=0 breakdown=[] precopy=0 final=2401111 "
       "downtime=20817071 total=20817071 degradation=0 pages=0/0/0/0 dup=0 "
       "late=0 retx=0 op=4611686018427387905 pod=1001"},
      {MigrateMode::kPreCopy,
       "pre-copy rounds=5 breakdown=[2396160/20774147,217088/1882102,"
       "217088/1882102,217088/1882102,217088/1882102,] precopy=3264512 "
       "final=222039 downtime=1925026 total=30227581 degradation=0 "
       "pages=0/0/0/0 dup=0 late=0 retx=0 op=4611686018427387905 pod=1001"},
      {MigrateMode::kPostCopy,
       "post-copy rounds=0 breakdown=[] precopy=0 final=123735 "
       "downtime=1072753 total=28972753 degradation=904000 "
       "pages=585/29/4/552 dup=2 late=0 retx=0 op=4611686018427387905 "
       "pod=1001"},
      {MigrateMode::kHybrid,
       "hybrid rounds=5 breakdown=[2396160/20774147,217088/1882102,"
       "217088/1882102,217088/1882102,217088/1882102,] precopy=3264512 "
       "final=695 downtime=6025 total=30558580 degradation=2038000 "
       "pages=585/532/10/43 dup=1 late=0 retx=0 op=4611686018427387905 "
       "pod=1001"},
  };
  for (const auto& [mode, line] : expected) {
    EXPECT_EQ(FormatStats(m.runs[mode].stats), line);
  }
}

// A genuinely streaming pod — an unbounded TCP sender plus a scribbler
// that never stops writing — migrated under each stop-bounded mode plus
// post-copy. The write stream never pauses, so the downtime ladder is
// strict, and the TCP stream must keep flowing on the target.
TEST(LiveMigrateModes, StreamingWorkloadDowntimeLadderIsStrict) {
  testing::RegisterScribbler();
  std::map<MigrateMode, LiveMigrateStats> stats;
  for (MigrateMode mode :
       {MigrateMode::kStopAndCopy, MigrateMode::kPreCopy,
        MigrateMode::kPostCopy}) {
    ClusterConfig config;
    config.num_nodes = 3;
    Cluster c(config);
    net::Ipv4Address sink_ip = c.node(2).os().stack().interfaces()[0].ip;
    c.node(2).os().Spawn("cruz.stream_receiver",
                         apps::StreamReceiverArgs(7000));
    c.sim().RunFor(5 * kMillisecond);
    os::PodId id = c.CreatePod(0, "streamer");
    os::Pid sender_vpid = c.pods(0).SpawnInPod(
        id, "cruz.stream_sender", apps::StreamSenderArgs(sink_ip, 7000, 0));
    os::Pid scrib_vpid = c.pods(0).SpawnInPod(
        id, "harness.scribbler",
        testing::ScribblerArgs(7, std::uint64_t{1} << 40, 96));
    // Ballast so stop-and-copy has real bytes to move during the stop.
    os::Process* scrib =
        c.node(0).os().FindProcess(c.pods(0).ToRealPid(id, scrib_vpid));
    cruz::Bytes page(os::kPageSize, 0x37);
    for (std::uint64_t i = 0; i < 1024; ++i) {
      scrib->memory().InstallPage(testing::kScribBallastPage + i, page);
    }
    c.sim().RunFor(20 * kMillisecond);
    bool done = false;
    LiveMigrator::MigrateWithMode(c.pods(0), c.pods(1), id, mode,
                                  HarnessOptions(),
                                  [&](const LiveMigrateStats& s) {
                                    stats[mode] = s;
                                    done = true;
                                  });
    ASSERT_TRUE(c.sim().RunWhile([&] { return done; },
                                 c.sim().Now() + 600 * kSecond));
    // The stream keeps flowing after migration (TCP recovers from the
    // blackout via retransmission; give it a generous window).
    os::Process* moved =
        c.node(1).os().FindProcess(c.pods(1).ToRealPid(id, sender_vpid));
    ASSERT_NE(moved, nullptr);
    c.sim().RunWhile([&] { return !moved->memory().HasMissingPages(); },
                     c.sim().Now() + 600 * kSecond);
    std::uint64_t sent = apps::ReadStreamStatus(*moved).bytes;
    c.sim().RunFor(2 * kSecond);
    EXPECT_GT(apps::ReadStreamStatus(*moved).bytes, sent);
  }
  EXPECT_LT(stats[MigrateMode::kPostCopy].downtime,
            stats[MigrateMode::kPreCopy].downtime);
  EXPECT_LT(stats[MigrateMode::kPreCopy].downtime,
            stats[MigrateMode::kStopAndCopy].downtime);
}

}  // namespace
}  // namespace cruz::ckpt
