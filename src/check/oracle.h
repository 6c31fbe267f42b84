// Whole-run invariants over a finished scenario.
//
// The oracle is the shared "what must always hold" half of the explorer:
// every chaos test and every seed of a sweep asserts through the same
// registered checks instead of private per-test asserts. Checks read the
// run's trace (obs::TraceQuery), the per-operation records collected by
// the Explorer, and the final shared-FS state, and emit Violations — a
// passing run emits none. Defaults() registers the catalog documented in
// DESIGN.md §9; tests can Register() extra checks.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "check/scenario.h"
#include "ckpt/generation.h"
#include "ckpt/live_migrate.h"
#include "cruz/cluster.h"
#include "obs/trace_query.h"

namespace cruz::check {

// What the explorer recorded about one scheduled operation.
struct OpRecord {
  OpKind kind = OpKind::kCheckpoint;
  // False when the op was skipped (e.g. a restart with no committed
  // generation to restore from, or a migration with no legal target).
  bool attempted = true;
  Cluster::GenerationOpResult result;
  // Generation number allocated for a checkpoint attempt (committed or
  // discarded); 0 for non-checkpoint ops.
  std::uint64_t allocated_generation = 0;
  // NewestIntactGeneration() sampled immediately before a restart.
  std::uint64_t newest_intact_before = 0;
  std::size_t members = 0;
  coord::ProtocolVariant variant = coord::ProtocolVariant::kBlocking;
  bool copy_on_write = false;
  // Any agent process was in the crashed state right after the op (a
  // legitimate reason for the op to fail).
  bool any_agent_crashed = false;
  // Restart: each member pod found running after a failed attempt, by
  // that attempt's op id (sampled once its aborts had time to land).
  struct RunningPod {
    std::uint64_t op_id = 0;
    os::PodId pod = os::kNoPod;
    std::string node;
  };
  std::vector<RunningPod> running_after_failed_restart;
  // Live migration (kMigrate): which pod moved and the migrator's final
  // stats snapshot (page accounting for resident-set-complete).
  os::PodId migrated_pod = os::kNoPod;
  ckpt::LiveMigrateStats migrate;
};

// Host-side reference for restart's choice of generation, computed
// outside any message and in zero simulated time. Generation `gen` under
// `root` is intact iff its manifest is, and for every member image the
// head copy the store resolves has the manifest's size and frame trailer
// and the whole incremental chain decodes, a copy that fails falling back
// to the next tier. Restart itself never calls this: each agent decodes
// its own chain, and one that does not load fails the attempt.
bool GenerationIntact(
    ckpt::TieredStore& store, std::uint64_t gen,
    const std::string& root = ckpt::GenerationStore::kDefaultRoot);
// The newest committed generation under `root` that is GenerationIntact;
// 0 if there is none.
std::uint64_t NewestIntactGeneration(
    ckpt::TieredStore& store,
    const std::string& root = ckpt::GenerationStore::kDefaultRoot);

struct WorkloadResult {
  bool completed = false;
  std::uint64_t units = 0;       // bytes / operations / iterations done
  std::uint64_t mismatches = 0;  // verification failures
  std::uint64_t target = 0;
};

// Everything an invariant may inspect about one finished run.
struct RunContext {
  const Scenario* scenario = nullptr;
  Cluster* cluster = nullptr;
  obs::TraceQuery* trace = nullptr;
  std::vector<OpRecord> ops;
  WorkloadResult workload;
  std::string gen_root;
  // Workload pod addresses, for spotting pod traffic in tcp.rx conns.
  std::vector<std::string> member_pod_ips;
};

struct Violation {
  std::string invariant;
  std::string detail;
};

class InvariantOracle {
 public:
  using CheckFn =
      std::function<void(const RunContext&, std::vector<Violation>&)>;

  void Register(std::string name, CheckFn check);

  // The full catalog (see DESIGN.md §9): workload-intact, comm-silence,
  // gen-commit, restart-newest-intact, restart-all-or-nothing,
  // protocol-order, continue-exactly-once, no-partial-state,
  // replica-availability, migration-exactly-one-running-copy,
  // resident-set-complete.
  static InvariantOracle Defaults();

  // Runs every registered invariant; empty result = run passed.
  std::vector<Violation> Check(const RunContext& ctx) const;

  std::vector<std::string> names() const;

 private:
  std::vector<std::pair<std::string, CheckFn>> checks_;
};

}  // namespace cruz::check
