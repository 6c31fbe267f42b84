// Runs one scenario end to end and judges it with the InvariantOracle.
//
// The Explorer owns the glue between a plain-data Scenario and a live
// Cluster: it builds the topology, spawns the workload, arms the fault
// plan, executes the operation schedule (checkpoints, restarts,
// migrations, coordinator crashes), drains the workload, and hands the
// collected OpRecords plus the trace to the oracle. A Mutation injects
// one deliberate bug into the pipeline — the oracle self-tests use these
// to prove every invariant can actually fail.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/oracle.h"
#include "check/scenario.h"

namespace cruz::check {

// Deliberately broken behaviors, one per default invariant.
enum class Mutation : std::uint8_t {
  kNone = 0,
  kAbandonWorkload,          // skip the final drain (workload-intact)
  kSkipDropFilter,           // freeze without filtering (comm-silence)
  kCommitFailedGeneration,   // commit a failed op's generation (gen-commit)
  kRestartBlindLatest,       // restore the latest committed generation
                             // with no fallback past a damaged one
                             // (restart-newest-intact)
  kWipeCoordinatorJournal,   // lose the intent journal across a crash
                             // (protocol-order: epoch reuse)
  kDuplicateContinue,        // double <continue> broadcast
                             // (continue-exactly-once)
  kLeakPartialImage,         // stray file under the generation root
                             // (no-partial-state)
  kDropLastReplica,          // silently lose every copy of one image after
                             // the pre-restart intact check
                             // (replica-availability; tiered scenarios)
  kShardAckWithoutForward,   // sub-coordinators ack shard requests with
                             // fabricated <shard-done>s, never forwarding
                             // to their agents (gen-commit: a generation
                             // commits with zero agent saves; tiered
                             // hierarchical scenarios)
  kDropPageResponse,         // the migration source accounts residue
                             // pages as delivered without sending them,
                             // so "done" fires with pages still missing
                             // on the target (resident-set-complete)
  kResumeBothSides,          // skip the source-side pod destroy after the
                             // post-copy stop: two running copies
                             // (migration-exactly-one-running-copy)
  kSkipDiscardFence,         // a discarded generation still accepts late
                             // image commits (no-partial-state)
  kResumeAbortedRestore,     // an aborted restart resumes the pods it
                             // already restored instead of destroying
                             // them (restart-all-or-nothing)
};

const char* MutationName(Mutation mutation);
// Parses a MutationName() string; kNone for "none", nullopt-like false
// return via the bool for unknown names.
bool MutationFromName(const std::string& name, Mutation& out);

struct RunOptions {
  Mutation mutation = Mutation::kNone;
};

struct RunResult {
  Scenario scenario;
  bool passed = false;
  std::vector<Violation> violations;
  std::string summary;  // one line: scenario + outcome
  // One line a sweep baseline stores and compares ("seed=N ok|FAIL",
  // each violated invariant, then the repro string), the format of
  // tests/goldens/explorer_sweep_seeds_0_199.txt.
  std::string verdict;
  // Filled only on failure: the run's trace export (JSONL, feeds
  // cruz_analyze) and the flight-recorder artifact for the violation
  // (bounded pre-fault window + causal slice + repro string).
  std::string trace_jsonl;
  std::string flight_record;
};

class Explorer {
 public:
  explicit Explorer(RunOptions options = {});

  RunResult RunScenario(const Scenario& scenario);
  RunResult RunSeed(std::uint64_t seed) {
    return RunScenario(ScenarioGenerator::FromSeed(seed));
  }

  const InvariantOracle& oracle() const { return oracle_; }

 private:
  RunOptions options_;
  InvariantOracle oracle_;
};

}  // namespace cruz::check
