// Live pod migration: pre-copy, post-copy, and hybrid.
//
// The paper's migration path (§1: "reduce application downtime during
// hardware and operating system maintenance by migrating the application
// to a different machine") is stop-and-copy: downtime covers the whole
// state transfer. Two standard refinements move work out of the downtime
// window, in opposite directions:
//
//   * Pre-copy transfers memory iteratively *before* the stop — round 1
//     copies all pages while the pod runs, each later round copies the
//     pages dirtied during the previous round — then stops only for the
//     (small) final dirty set. The dirty-page tracking built for
//     incremental checkpointing (§5.2) provides exactly the machinery.
//   * Post-copy stops the pod briefly, moves only kernel state plus a
//     minimal hot set (the pages dirtied during a short observation
//     window just before the stop), resumes the pod on the target, and
//     fetches the remaining pages on demand over a page-request /
//     page-response channel, with a background push draining the residue.
//     Downtime is minimal; the cost reappears as *degradation* — time the
//     resumed pod spends stalled on demand fetches.
//   * Hybrid runs pre-copy rounds until the stop threshold or the round
//     cap, then post-copies the remainder: the stop transfers kernel state
//     only, pages still dirty at the stop are demand-paged. (VM-style
//     "pre-copy + post-copy residue".)
//
// The page channel is modeled on the simulated network's cost model:
// request/response latencies and a retransmit timer, with every message
// offered to a fault::Injector (the coord::MsgType bytes kPageRequest /
// kPageResponse) so FaultPlan-driven chaos tests can drop, duplicate, and
// delay page traffic. Duplicate deliveries are idempotent (os::Memory::
// FillPage drops fills for resident pages); a request arriving after the
// source released its frozen image is counted in `late_serves`, which
// must stay zero in any correct run — release happens only once every
// page is resident on the target.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "ckpt/engine.h"
#include "fault/fault.h"
#include "pod/pod.h"

namespace cruz::ckpt {

// Raw wire bytes of coord::MsgType::{kPageRequest, kPageResponse}. The
// ckpt library deliberately does not link against coord; a static_assert
// in tests/live_migrate_modes_test.cc pins these to the enum values.
inline constexpr std::uint8_t kPageRequestMsgByte = 22;
inline constexpr std::uint8_t kPageResponseMsgByte = 23;

enum class MigrateMode : std::uint8_t {
  kStopAndCopy = 0,
  kPreCopy = 1,
  kPostCopy = 2,
  kHybrid = 3,
};

const char* MigrateModeName(MigrateMode mode);

// The fixed cost model of the migration stream and the post-copy page
// channel.
//
// Pre-copy (and hybrid) stop once a round's dirty set is this small, or
// after this many rounds.
inline constexpr int kMaxPrecopyRounds = 5;
inline constexpr std::uint64_t kStopThresholdBytes = 128 * 1024;
// Migration-stream bandwidth (gigabit-class).
inline constexpr std::uint64_t kMigrateBytesPerSec = 110 * kMiB;
// One-way page-channel latency (request and response each pay it).
inline constexpr DurationNs kPageLatency = 100 * kMicrosecond;
// Demand-fetch retransmit timer: a missing page still absent this long
// after its request was sent is requested again. Also the age after
// which an unanswered background push is sent again.
inline constexpr DurationNs kPageRequestTimeout = 2 * kMillisecond;
// Pacing of the background residue push (one page per tick).
inline constexpr DurationNs kPushInterval = 50 * kMicrosecond;

struct LiveMigrateOptions {
  // Post-copy observation window before the stop: pages dirtied during
  // it form the hot set that moves with the pod (a cheap working-set
  // estimate).
  DurationNs hot_window = 2 * kMillisecond;
  // Consulted for every page-channel message (drop/duplicate/delay);
  // nullptr = fault-free channel.
  fault::Injector* injector = nullptr;

  // --- test-only protocol mutations (check/explorer.h) ---------------------
  // Post-copy and hybrid: skips the source-side pod destroy, so both
  // sides end up with a copy.
  bool test_resume_both_sides = false;
  // The source accounts pushed/served pages as delivered without sending
  // the response: "done" fires with pages still missing on the target.
  bool test_drop_page_response = false;
};

// One pre-copy round's work, for per-round breakdowns.
struct MigrateRound {
  std::uint64_t dirty_bytes = 0;  // transferred in this round
  DurationNs duration = 0;        // wall time of this round's transfer
};

struct LiveMigrateStats {
  MigrateMode mode = MigrateMode::kPreCopy;
  int rounds = 0;                   // pre-copy rounds executed
  std::vector<MigrateRound> round_breakdown;  // one entry per round
  std::uint64_t precopy_bytes = 0;  // transferred while running
  std::uint64_t final_bytes = 0;    // transferred during the stop
  DurationNs downtime = 0;          // pod stopped -> resumed on target
  DurationNs total_duration = 0;    // start -> fully migrated
  // Post-resume time the pod spent stalled on demand fetches (post-copy
  // and hybrid; 0 for the stop-bounded modes).
  DurationNs degradation = 0;

  // --- page accounting (post-copy / hybrid) --------------------------------
  std::uint64_t pages_total = 0;
  std::uint64_t pages_resident_at_resume = 0;
  std::uint64_t pages_fetched_on_demand = 0;
  std::uint64_t pages_pushed = 0;
  // Fills dropped because the page was already resident (retransmit or
  // push racing a demand fetch). Benign by design, counted for tests.
  std::uint64_t duplicate_fills_dropped = 0;
  // Requests served after the source released its frozen image. Must be
  // zero: release happens only at full residency.
  std::uint64_t late_serves = 0;
  std::uint64_t requests_retransmitted = 0;

  std::uint64_t op_id = 0;          // migrate.op.* trace span op id
  os::PodId pod = os::kNoPod;       // id on the target (preserved)
};

class LiveMigrator {
 public:
  using DoneFn = std::function<void(const LiveMigrateStats&)>;

  // Migrates `pod` from `source`'s node to `target`'s node. Asynchronous:
  // runs over simulated time and invokes `done` once the migration is
  // complete — at resume on the target for stop-and-copy and pre-copy,
  // at full residency for post-copy and hybrid. The pod id, addresses
  // and all connections are preserved exactly as in checkpoint-restart.
  //
  // Every mode ends in the same stop: capture the pod once, restore it
  // on the target with the pages the mode leaves behind marked missing
  // (none for stop-and-copy and pre-copy), resume, and serve the missing
  // pages from the frozen capture until the target holds them all.
  static void MigrateWithMode(pod::PodManager& source,
                              pod::PodManager& target, os::PodId pod,
                              MigrateMode mode,
                              const LiveMigrateOptions& options, DoneFn done);
};

}  // namespace cruz::ckpt
