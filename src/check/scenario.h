// Seed-derived whole-system test scenarios.
//
// FoundationDB-style simulation testing needs the entire run — topology,
// workload, protocol options, operation schedule, and fault plan — to be
// a pure function of one 64-bit seed, so a failure anywhere in a sweep is
// reproducible from a single number. A Scenario is that function's
// output, kept as plain data so the Shrinker can delete parts of it and
// re-run. Encode()/Decode() round-trip a scenario through a one-line,
// self-contained repro string (`cruzrepro1 ...`) that survives being
// pasted into a bug report.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/units.h"
#include "coord/message.h"

namespace cruz::check {

enum class WorkloadKind : std::uint8_t {
  kStream = 0,    // verified TCP stream (sender -> receiver)
  kKvStore = 1,   // kv server + verifying client
  kCounters = 2,  // two independent CPU counters with a finite target
};

enum class OpKind : std::uint8_t {
  kCheckpoint = 0,        // coordinated generation checkpoint
  kRestart = 1,           // kill pods + restart from newest intact gen
  kMigrate = 2,           // live-migrate one workload pod
  kCoordinatorCrash = 3,  // crash the coordinator mid-checkpoint
};

// One step of the scenario's operation schedule.
struct OpSpec {
  OpKind kind = OpKind::kCheckpoint;
  DurationNs pre_delay = 0;  // workload progress before this op
  bool incremental = false;
  bool copy_on_write = false;
  bool compress = false;
  coord::ProtocolVariant variant = coord::ProtocolVariant::kBlocking;
  // Deterministic per-op randomness for placement choices (restart
  // target nodes, migration target).
  std::uint32_t placement_salt = 0;
};

enum class FaultSpecKind : std::uint8_t {
  kMessageLoss = 0,     // permille = drop probability
  kMessageDup = 1,      // permille = duplication probability
  kMessageDelay = 2,    // permille = probability, extra = max delay (ms)
  kDiskFail = 3,        // node-scoped, extra = count
  kImageCorrupt = 4,    // node-scoped, extra = count
  kAgentCrashOnMsg = 5, // node-scoped, extra = raw coord::MsgType byte
  // Tier-scoped faults (meaningful when Scenario::tiered is set).
  kLocalDiskLoss = 6,   // node-scoped, extra = wipe time (ms)
  kPartnerUnreachable = 7,  // node-scoped: partner writes to/from it skip
  kNetfsOutage = 8,     // permille = start (ms), extra = duration (ms)
  kNoSpace = 9,         // node-scoped, extra = local disk capacity (KiB)
};

struct FaultSpec {
  FaultSpecKind kind = FaultSpecKind::kMessageLoss;
  std::uint32_t node = 0;      // node index (node-scoped kinds)
  std::uint32_t permille = 0;  // probability for channel faults
  std::uint32_t extra = 0;     // delay ms / count / message-type byte
};

struct Scenario {
  std::uint64_t seed = 0;
  std::uint32_t num_nodes = 2;
  WorkloadKind workload = WorkloadKind::kStream;
  // Workload size: stream bytes / kv operations / counter iterations.
  std::uint64_t workload_units = 256 * 1024;
  // Checkpoint storage policy: ops commit to local + partner disks with
  // a background netfs flush. Encoded as "tiered=1"; absent = the
  // one-tier policy, the netfs alone (so pre-tier repro strings replay
  // exactly as before).
  bool tiered = false;
  // Hierarchical coordination (DESIGN.md §13): coordinated ops run
  // through a sub-coordinator tree with this per-shard fan-out, and the
  // explorer pads the member list with one pod per extra node so the
  // tree has real shards to drive. Encoded as "fanout=F"; absent = flat
  // (so pre-hierarchy repro strings replay exactly as before).
  std::uint32_t fan_out = 0;
  // Live-migration mode for kMigrate ops: the raw ckpt::MigrateMode value
  // (0 stop-and-copy, 1 pre-copy, 2 post-copy, 3 hybrid). Encoded as
  // "migrate=M"; absent = pre-copy, so pre-post-copy repro strings replay
  // exactly as before.
  std::uint8_t migrate_mode = 1;
  std::vector<OpSpec> ops;
  std::vector<FaultSpec> faults;

  // Human-oriented one-liner ("seed=5 nodes=3 wl=stream ops=3 faults=2").
  std::string Summary() const;
  // Machine round-trippable repro string (see file comment).
  std::string Encode() const;
  static std::optional<Scenario> Decode(const std::string& repro);
};

// Derives a bounded scenario from a seed. Same seed, same scenario.
class ScenarioGenerator {
 public:
  static Scenario FromSeed(std::uint64_t seed);
};

}  // namespace cruz::check
