// Self-tests for the simulation explorer's invariant oracle: every
// registered invariant must be falsifiable — a deliberately broken
// pipeline (Mutation) has to trip exactly the invariant it targets —
// and the whole explorer must be deterministic and shrinkable.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "check/explorer.h"
#include "check/scenario.h"
#include "check/shrink.h"
#include "golden_util.h"

namespace cruz::check {
namespace {

bool HasViolation(const std::vector<Violation>& violations,
                  const std::string& invariant) {
  return std::any_of(violations.begin(), violations.end(),
                     [&](const Violation& v) {
                       return v.invariant == invariant;
                     });
}

Scenario MustDecode(const std::string& repro) {
  std::optional<Scenario> s = Scenario::Decode(repro);
  EXPECT_TRUE(s.has_value()) << repro;
  return s.value_or(Scenario{});
}

// One hand-picked scenario per mutation, chosen so the sabotage has
// something to break: a checkpoint for the continue hooks, a failing
// checkpoint for the commit hook, a corrupt-latest generation for the
// blind restart, and so on.
struct MutationCase {
  Mutation mutation;
  std::string invariant;  // the invariant the mutation must trip
  std::string repro;
};

const std::vector<MutationCase>& MutationCases() {
  static const std::vector<MutationCase> kCases = {
      {Mutation::kAbandonWorkload, "workload-intact",
       "cruzrepro1 seed=1 nodes=2 wl=2 units=8000 op=0,10,0,0,0,0,0"},
      // A kvstore keeps segments in flight; with message delay stretching
      // the RTT, one lands inside the freeze window when the filter is
      // skipped (seed 16 of the generator, verbatim).
      {Mutation::kSkipDropFilter, "comm-silence",
       "cruzrepro1 seed=16 nodes=4 wl=1 units=250 op=0,11,1,1,1,1,1894681497 "
       "op=1,52,0,0,0,0,1157989296 op=0,41,0,0,0,0,2546676988 "
       "fault=2,1,151,8"},
      {Mutation::kCommitFailedGeneration, "gen-commit",
       "cruzrepro1 seed=2 nodes=2 wl=2 units=4000 op=0,10,0,0,0,0,0 "
       "fault=3,0,0,1"},
      {Mutation::kRestartBlindLatest, "restart-newest-intact",
       "cruzrepro1 seed=5 nodes=3 wl=2 units=4000 op=0,10,0,0,0,0,0 "
       "op=1,10,0,0,0,0,2 op=0,10,0,0,0,0,0 op=1,10,0,0,0,0,0 "
       "fault=4,2,0,1"},
      {Mutation::kWipeCoordinatorJournal, "protocol-order",
       "cruzrepro1 seed=3 nodes=2 wl=2 units=4000 op=0,10,0,0,0,0,0 "
       "op=3,10,0,0,0,0,0 op=0,10,0,0,0,0,0"},
      {Mutation::kDuplicateContinue, "continue-exactly-once",
       "cruzrepro1 seed=4 nodes=2 wl=2 units=4000 op=0,10,0,0,0,0,0"},
      {Mutation::kLeakPartialImage, "no-partial-state",
       "cruzrepro1 seed=6 nodes=2 wl=2 units=4000 op=0,10,0,0,0,0,0"},
      // One checkpoint then a restart: the sabotage drops every surviving
      // copy of the generation's last image after the intact check, so
      // the restart finds no restorable generation.
      {Mutation::kDropLastReplica, "replica-availability",
       "cruzrepro1 seed=9 nodes=3 wl=2 units=4000 tiered=1 "
       "op=0,10,0,0,0,0,0 op=1,10,0,0,0,0,2"},
      // Hierarchical checkpoint where every sub-coordinator acks its
      // shard request without forwarding to the agents: the generation
      // commits (fabricated shard-dones carry fake replicas) with zero
      // agent saves on the trace.
      {Mutation::kShardAckWithoutForward, "gen-commit",
       "cruzrepro1 seed=7 nodes=6 wl=2 units=4000 tiered=1 fanout=2 "
       "op=0,10,0,0,0,0,0"},
      // Hybrid migration of a still-running counter: the dirty-at-stop
      // residue is demand-paged, and the sabotaged source accounts those
      // pages as delivered without ever sending them, so "done" fires
      // with the counter parked on a missing page forever.
      {Mutation::kDropPageResponse, "resident-set-complete",
       "cruzrepro1 seed=21 nodes=3 wl=2 units=60000 migrate=3 "
       "op=2,10,0,0,0,0,0"},
      // node2's agent dies on <restart> after node1's agent restored its
      // counter pod; the heartbeat abort must destroy that pod, and the
      // sabotaged agent resumes it instead, so half of the failed restart
      // runs on.
      {Mutation::kResumeAbortedRestore, "restart-all-or-nothing",
       "cruzrepro1 seed=10 nodes=2 wl=2 units=4000 op=0,10,0,0,0,0,0 "
       "op=1,10,0,0,0,0,0 fault=5,1,0,5"},
      // Post-copy migration where the source-side destroy is skipped:
      // the pod ends up running on both nodes at once.
      {Mutation::kResumeBothSides, "migration-exactly-one-running-copy",
       "cruzrepro1 seed=22 nodes=3 wl=2 units=60000 migrate=2 "
       "op=2,10,0,0,0,0,0"},
  };
  return kCases;
}

// The same scenario must pass with the sabotage off and trip the
// targeted invariant with it on — otherwise the invariant either never
// fires (dead check) or fires spuriously (false positive).
TEST(OracleSelfTest, EachMutationTripsItsInvariant) {
  for (const MutationCase& mc : MutationCases()) {
    SCOPED_TRACE(MutationName(mc.mutation));
    Scenario scenario = MustDecode(mc.repro);

    Explorer clean;
    RunResult baseline = clean.RunScenario(scenario);
    EXPECT_TRUE(baseline.passed) << baseline.summary;

    Explorer broken(RunOptions{mc.mutation});
    RunResult run = broken.RunScenario(scenario);
    EXPECT_FALSE(run.passed);
    EXPECT_TRUE(HasViolation(run.violations, mc.invariant))
        << "expected a " << mc.invariant << " violation, got: "
        << run.summary;
  }
}

// Late image commits: in seeds 2056 and 7893 a delayed <checkpoint>
// reaches an agent after its generation was discarded (in 7893 one
// member's disk-write error aborts the op first, and the other member's
// <abort> never overtakes its request). The discard fence refuses the
// write; with the fence off (the paired mutation) the image outlives its
// generation and no-partial-state catches it.
TEST(OracleSelfTest, DiscardFenceRefusesLateImageCommits) {
  const std::vector<std::string> repros = {
      "cruzrepro1 seed=2056 nodes=2 wl=1 units=12 tiered=1 migrate=0 "
      "op=0,46,1,1,1,0,3320331193 fault=1,1,147,0 fault=0,0,73,0 "
      "fault=3,0,0,1 fault=2,0,113,13",
      "cruzrepro1 seed=7893 nodes=2 wl=1 units=292 migrate=3 "
      "op=3,61,1,0,1,0,2480400056 op=0,32,0,1,0,1,104857056 "
      "op=0,54,0,0,0,0,921054591 fault=0,0,161,0 fault=3,1,0,1 "
      "fault=2,1,96,7 fault=3,0,0,1",
  };
  for (const std::string& repro : repros) {
    SCOPED_TRACE(repro);
    Scenario scenario = MustDecode(repro);

    RunResult fenced = Explorer().RunScenario(scenario);
    EXPECT_TRUE(fenced.passed) << fenced.summary;

    RunResult unfenced =
        Explorer(RunOptions{Mutation::kSkipDiscardFence}).RunScenario(scenario);
    EXPECT_TRUE(HasViolation(unfenced.violations, "no-partial-state"))
        << unfenced.summary;
  }
}

// Coverage: the mutation table above must reach every invariant the
// default oracle registers, so no check can silently go dead.
TEST(OracleSelfTest, EveryRegisteredInvariantIsCovered) {
  std::set<std::string> covered;
  for (const MutationCase& mc : MutationCases()) covered.insert(mc.invariant);
  Explorer explorer;
  for (const std::string& name : explorer.oracle().names()) {
    EXPECT_TRUE(covered.count(name) == 1)
        << "invariant " << name << " has no breaking-mutation self-test";
  }
  EXPECT_EQ(covered.size(), explorer.oracle().names().size());
}

TEST(ScenarioCodec, EncodeDecodeRoundTrips) {
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    Scenario original = ScenarioGenerator::FromSeed(seed);
    std::optional<Scenario> decoded = Scenario::Decode(original.Encode());
    ASSERT_TRUE(decoded.has_value()) << original.Encode();
    EXPECT_EQ(decoded->Encode(), original.Encode());
  }
}

// Regression: the codec and topology used to top out at small clusters
// (node/pod IPs were carved out of one /24). Scale scenarios need
// hundreds of nodes plus a fan-out token, and old flat repro strings
// must keep decoding with fan_out absent.
TEST(ScenarioCodec, AcceptsLargeNodeCountsWithFanOut) {
  std::optional<Scenario> s = Scenario::Decode(
      "cruzrepro1 seed=1 nodes=200 wl=2 units=4000 fanout=32 "
      "op=0,10,0,0,0,0,0");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->num_nodes, 200u);
  EXPECT_EQ(s->fan_out, 32u);
  EXPECT_EQ(Scenario::Decode(s->Encode())->Encode(), s->Encode());

  // Out-of-range fan-outs are rejected, absent fan-out stays flat.
  EXPECT_FALSE(Scenario::Decode(
                   "cruzrepro1 seed=1 nodes=4 wl=0 units=1 fanout=1")
                   .has_value());
  EXPECT_FALSE(Scenario::Decode(
                   "cruzrepro1 seed=1 nodes=4 wl=0 units=1 fanout=300")
                   .has_value());
  EXPECT_EQ(MustDecode("cruzrepro1 seed=1 nodes=4 wl=0 units=1").fan_out, 0u);
}

// The migrate token selects the live-migration mode; absent = pre-copy,
// so every pre-post-copy repro string replays exactly as before.
TEST(ScenarioCodec, MigrateModeTokenRoundTripsAndRejects) {
  Scenario s = MustDecode(
      "cruzrepro1 seed=1 nodes=3 wl=2 units=4000 migrate=2 "
      "op=2,10,0,0,0,0,0");
  EXPECT_EQ(s.migrate_mode, 2u);
  EXPECT_EQ(Scenario::Decode(s.Encode())->Encode(), s.Encode());
  EXPECT_EQ(MustDecode("cruzrepro1 seed=1 nodes=2 wl=0 units=1").migrate_mode,
            1u);
  EXPECT_FALSE(
      Scenario::Decode("cruzrepro1 seed=1 nodes=2 wl=0 units=1 migrate=4")
          .has_value());
}

TEST(ScenarioCodec, RejectsMalformedRepros) {
  EXPECT_FALSE(Scenario::Decode("").has_value());
  EXPECT_FALSE(Scenario::Decode("bogus").has_value());
  EXPECT_FALSE(Scenario::Decode("cruzrepro1 seed=1 nodes=1 wl=0 units=1")
                   .has_value());  // single-node clusters are invalid
  EXPECT_FALSE(
      Scenario::Decode("cruzrepro1 seed=1 nodes=2 wl=9 units=1").has_value());
  // Op variant 2 names a retired protocol variant.
  EXPECT_FALSE(Scenario::Decode(
                   "cruzrepro1 seed=1 nodes=2 wl=0 units=1 op=0,10,2,0,0,0,0")
                   .has_value());
  EXPECT_TRUE(Scenario::Decode(
                  "cruzrepro1 seed=1 nodes=2 wl=0 units=1 op=0,10,1,0,0,0,0")
                  .has_value());
}

TEST(ScenarioCodec, GenerationIsDeterministic) {
  for (std::uint64_t seed : {0ull, 11ull, 155ull, 9999ull}) {
    EXPECT_EQ(ScenarioGenerator::FromSeed(seed).Encode(),
              ScenarioGenerator::FromSeed(seed).Encode());
  }
}

TEST(ExplorerRuns, SameScenarioSameVerdict) {
  Explorer a;
  Explorer b;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    RunResult ra = a.RunSeed(seed);
    RunResult rb = b.RunSeed(seed);
    EXPECT_EQ(ra.passed, rb.passed) << "seed " << seed;
    EXPECT_EQ(ra.summary, rb.summary) << "seed " << seed;
    EXPECT_EQ(ra.violations.size(), rb.violations.size()) << "seed " << seed;
  }
}

// Acceptance criterion: a seeded injected bug shrinks to a repro with at
// most three fault-plan events (here: to none — the mutation alone
// reproduces it), and the minimal scenario still fails.
TEST(ShrinkerTest, ReducesInjectedBugToSmallRepro) {
  Scenario failing = ScenarioGenerator::FromSeed(5);
  ASSERT_GE(failing.faults.size(), 2u);

  RunOptions options;
  options.mutation = Mutation::kDuplicateContinue;
  Explorer broken(options);
  ASSERT_FALSE(broken.RunScenario(failing).passed);

  Shrinker shrinker(options);
  ShrinkResult shrunk = shrinker.Shrink(failing, 100);
  EXPECT_LE(shrunk.minimal.faults.size(), 3u);
  EXPECT_LE(shrunk.minimal.ops.size(), failing.ops.size());
  EXPECT_FALSE(shrunk.violations.empty());
  EXPECT_TRUE(
      HasViolation(shrunk.violations, "continue-exactly-once"));
  EXPECT_GT(shrunk.runs, 0u);
  EXPECT_LE(shrunk.runs, 100u);

  // The emitted repro string replays to the same failure.
  Scenario replay = MustDecode(shrunk.repro);
  RunResult rerun = broken.RunScenario(replay);
  EXPECT_FALSE(rerun.passed);
}

// The tiered sabotage also shrinks: tier-scoped faults and the trailing
// checkpoint are irrelevant to the dropped replica, so the minimal plan
// is just checkpoint + restart (the mutation alone reproduces it).
TEST(ShrinkerTest, DropLastReplicaShrinksToCheckpointRestart) {
  Scenario failing = MustDecode(
      "cruzrepro1 seed=9 nodes=3 wl=2 units=4000 tiered=1 "
      "op=0,10,0,0,0,0,0 op=1,10,0,0,0,0,2 op=0,15,0,0,0,0,0 "
      "fault=6,1,0,40 fault=9,2,0,200");

  RunOptions options;
  options.mutation = Mutation::kDropLastReplica;
  Explorer broken(options);
  ASSERT_FALSE(broken.RunScenario(failing).passed);

  Shrinker shrinker(options);
  ShrinkResult shrunk = shrinker.Shrink(failing, 100);
  EXPECT_TRUE(shrunk.minimal.tiered);
  EXPECT_TRUE(shrunk.minimal.faults.empty());
  EXPECT_LE(shrunk.minimal.ops.size(), 2u);
  EXPECT_TRUE(HasViolation(shrunk.violations, "replica-availability"));

  Scenario replay = MustDecode(shrunk.repro);
  EXPECT_FALSE(broken.RunScenario(replay).passed);
}

// The migration sabotage also shrinks to a minimal proof: the flanking
// checkpoints and the channel faults are irrelevant — the mutation alone
// breaks the lone migrate op.
TEST(ShrinkerTest, DropPageResponseShrinksToLoneMigrate) {
  Scenario failing = MustDecode(
      "cruzrepro1 seed=23 nodes=3 wl=2 units=60000 migrate=3 "
      "op=0,10,0,0,0,0,0 op=2,10,0,0,0,0,0 op=0,15,0,0,0,0,0 "
      "fault=0,1,80,0 fault=2,2,100,5");

  RunOptions options;
  options.mutation = Mutation::kDropPageResponse;
  Explorer broken(options);
  ASSERT_FALSE(broken.RunScenario(failing).passed);

  Shrinker shrinker(options);
  ShrinkResult shrunk = shrinker.Shrink(failing, 100);
  EXPECT_TRUE(shrunk.minimal.faults.empty());
  EXPECT_LE(shrunk.minimal.ops.size(), 2u);
  EXPECT_TRUE(HasViolation(shrunk.violations, "resident-set-complete"));

  Scenario replay = MustDecode(shrunk.repro);
  EXPECT_FALSE(broken.RunScenario(replay).passed);
}

TEST(ShrinkerTest, PassingScenarioIsReturnedUnshrunk) {
  Scenario passing = ScenarioGenerator::FromSeed(1);
  Shrinker shrinker;
  ShrinkResult r = shrinker.Shrink(passing, 10);
  EXPECT_EQ(r.runs, 1u);  // one run to discover it does not reproduce
  EXPECT_EQ(r.minimal.Encode(), passing.Encode());
  EXPECT_TRUE(r.violations.empty());
}

// Cross-kernel golden sweep: seeds 0..63 expand, run, and judge exactly
// as before any simulator-hot-path rewrite — per-seed oracle verdicts,
// violation lists, and cruzrepro1 strings are pinned byte-for-byte. A
// queue/pooling refactor that perturbs event order would flip a verdict
// or reshuffle a violation here before it ever reached production.
TEST(ExplorerTest, GoldenSweepVerdictsAndReprosSeeds0To63) {
  Explorer explorer;
  std::string out;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    out += explorer.RunSeed(seed).verdict + "\n";
  }
  // The committed sweep covers seeds 0..199 (the cruz_explore_baseline
  // ctest checks all of it through the CLI); this pins its first 64 lines
  // in-process.
  std::ifstream golden(
      cruz::testing::GoldenPath("explorer_sweep_seeds_0_199.txt"));
  ASSERT_TRUE(golden.good());
  std::string expected;
  std::string line;
  for (int i = 0; i < 64 && std::getline(golden, line); ++i) {
    expected += line + "\n";
  }
  EXPECT_EQ(out, expected);
}

}  // namespace
}  // namespace cruz::check
