#include "check/scenario.h"

#include <sstream>

#include "common/rng.h"

namespace cruz::check {

namespace {

const char* WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kStream: return "stream";
    case WorkloadKind::kKvStore: return "kvstore";
    case WorkloadKind::kCounters: return "counters";
  }
  return "unknown";
}

// Splits on single spaces; the repro format never quotes or escapes.
std::vector<std::string> Tokens(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream in(s);
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

// Parses "k1,k2,...": fixed-width comma-separated u64 fields.
bool SplitU64(const std::string& s, std::vector<std::uint64_t>& out) {
  std::uint64_t value = 0;
  bool have_digit = false;
  for (char c : s) {
    if (c == ',') {
      if (!have_digit) return false;
      out.push_back(value);
      value = 0;
      have_digit = false;
    } else if (c >= '0' && c <= '9') {
      value = value * 10 + static_cast<std::uint64_t>(c - '0');
      have_digit = true;
    } else {
      return false;
    }
  }
  if (!have_digit) return false;
  out.push_back(value);
  return true;
}

}  // namespace

std::string Scenario::Summary() const {
  std::ostringstream out;
  out << "seed=" << seed << " nodes=" << num_nodes << " wl="
      << WorkloadName(workload) << " units=" << workload_units
      << (tiered ? " tiered" : "");
  if (fan_out > 0) out << " fanout=" << fan_out;
  if (migrate_mode != 1) {
    out << " migrate=" << static_cast<unsigned>(migrate_mode);
  }
  out << " ops=" << ops.size() << " faults=" << faults.size();
  return out.str();
}

std::string Scenario::Encode() const {
  std::ostringstream out;
  out << "cruzrepro1 seed=" << seed << " nodes=" << num_nodes << " wl="
      << static_cast<unsigned>(workload) << " units=" << workload_units;
  if (tiered) out << " tiered=1";
  if (fan_out > 0) out << " fanout=" << fan_out;
  if (migrate_mode != 1) {
    out << " migrate=" << static_cast<unsigned>(migrate_mode);
  }
  for (const OpSpec& op : ops) {
    out << " op=" << static_cast<unsigned>(op.kind) << ','
        << op.pre_delay / kMillisecond << ','
        << static_cast<unsigned>(op.variant) << ',' << (op.incremental ? 1 : 0)
        << ',' << (op.copy_on_write ? 1 : 0) << ',' << (op.compress ? 1 : 0)
        << ',' << op.placement_salt;
  }
  for (const FaultSpec& f : faults) {
    out << " fault=" << static_cast<unsigned>(f.kind) << ',' << f.node << ','
        << f.permille << ',' << f.extra;
  }
  return out.str();
}

std::optional<Scenario> Scenario::Decode(const std::string& repro) {
  std::vector<std::string> tokens = Tokens(repro);
  if (tokens.empty() || tokens[0] != "cruzrepro1") return std::nullopt;
  Scenario s;
  s.ops.clear();
  s.faults.clear();
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::string& tok = tokens[i];
    std::size_t eq = tok.find('=');
    if (eq == std::string::npos) return std::nullopt;
    std::string key = tok.substr(0, eq);
    std::string value = tok.substr(eq + 1);
    std::vector<std::uint64_t> fields;
    if (!SplitU64(value, fields)) return std::nullopt;
    if (key == "seed" && fields.size() == 1) {
      s.seed = fields[0];
    } else if (key == "nodes" && fields.size() == 1) {
      s.num_nodes = static_cast<std::uint32_t>(fields[0]);
    } else if (key == "wl" && fields.size() == 1 && fields[0] <= 2) {
      s.workload = static_cast<WorkloadKind>(fields[0]);
    } else if (key == "units" && fields.size() == 1) {
      s.workload_units = fields[0];
    } else if (key == "tiered" && fields.size() == 1) {
      s.tiered = fields[0] != 0;
    } else if (key == "fanout" && fields.size() == 1 && fields[0] >= 2 &&
               fields[0] <= 256) {
      s.fan_out = static_cast<std::uint32_t>(fields[0]);
    } else if (key == "migrate" && fields.size() == 1 && fields[0] <= 3) {
      s.migrate_mode = static_cast<std::uint8_t>(fields[0]);
    } else if (key == "op" && fields.size() == 7 && fields[0] <= 3 &&
               fields[2] <= 1) {
      OpSpec op;
      op.kind = static_cast<OpKind>(fields[0]);
      op.pre_delay = static_cast<DurationNs>(fields[1]) * kMillisecond;
      op.variant = static_cast<coord::ProtocolVariant>(fields[2]);
      op.incremental = fields[3] != 0;
      op.copy_on_write = fields[4] != 0;
      op.compress = fields[5] != 0;
      op.placement_salt = static_cast<std::uint32_t>(fields[6]);
      s.ops.push_back(op);
    } else if (key == "fault" && fields.size() == 4 && fields[0] <= 9) {
      FaultSpec f;
      f.kind = static_cast<FaultSpecKind>(fields[0]);
      f.node = static_cast<std::uint32_t>(fields[1]);
      f.permille = static_cast<std::uint32_t>(fields[2]);
      f.extra = static_cast<std::uint32_t>(fields[3]);
      s.faults.push_back(f);
    } else {
      return std::nullopt;
    }
  }
  if (s.num_nodes < 2) return std::nullopt;
  return s;
}

Scenario ScenarioGenerator::FromSeed(std::uint64_t seed) {
  // Decorrelate from the cluster's own use of the seed (the Cluster
  // constructor seeds its Simulator with the same value).
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0xC2B2AE3D27D4EB4Full);
  Scenario s;
  s.seed = seed;
  s.num_nodes = 2 + static_cast<std::uint32_t>(rng.NextBelow(3));  // 2..4
  s.workload = static_cast<WorkloadKind>(rng.NextBelow(3));
  switch (s.workload) {
    case WorkloadKind::kStream:
      s.workload_units = (128 + rng.NextBelow(385)) * 1024;  // 128..512 KiB
      break;
    case WorkloadKind::kKvStore:
      s.workload_units = 100 + rng.NextBelow(201);  // operations
      break;
    case WorkloadKind::kCounters:
      s.workload_units = 5000 + rng.NextBelow(15001);  // iterations
      break;
  }

  std::size_t num_ops = 1 + rng.NextBelow(3);  // 1..3
  for (std::size_t i = 0; i < num_ops; ++i) {
    OpSpec op;
    // Weighted mix: checkpoints dominate, disturbances ride along.
    std::uint64_t k = rng.NextBelow(10);
    op.kind = k < 5   ? OpKind::kCheckpoint
              : k < 7 ? OpKind::kRestart
              : k < 9 ? OpKind::kMigrate
                      : OpKind::kCoordinatorCrash;
    op.pre_delay = (5 + rng.NextBelow(60)) * kMillisecond;
    op.incremental = rng.NextBernoulli(0.4);
    op.copy_on_write = rng.NextBernoulli(0.4);
    // Copy-on-write requires the early-continue variant (the pod resumes
    // before disk-done, so the blocking handshake does not apply). The
    // draw stays three-way, with the retired third variant folded into
    // blocking, so every other seed keeps its exact schedule.
    op.variant = op.copy_on_write || rng.NextBelow(3) == 1
                     ? coord::ProtocolVariant::kOptimized
                     : coord::ProtocolVariant::kBlocking;
    op.compress = rng.NextBernoulli(0.3);
    op.placement_salt = static_cast<std::uint32_t>(rng.NextU64());
    s.ops.push_back(op);
  }

  std::size_t num_faults = rng.NextBelow(5);  // 0..4
  for (std::size_t i = 0; i < num_faults; ++i) {
    FaultSpec f;
    f.kind = static_cast<FaultSpecKind>(rng.NextBelow(6));
    f.node = static_cast<std::uint32_t>(rng.NextBelow(s.num_nodes));
    switch (f.kind) {
      case FaultSpecKind::kMessageLoss:
        f.permille = 50 + static_cast<std::uint32_t>(rng.NextBelow(201));
        break;
      case FaultSpecKind::kMessageDup:
        f.permille = 50 + static_cast<std::uint32_t>(rng.NextBelow(251));
        break;
      case FaultSpecKind::kMessageDelay:
        f.permille = 50 + static_cast<std::uint32_t>(rng.NextBelow(251));
        f.extra = 1 + static_cast<std::uint32_t>(rng.NextBelow(30));  // ms
        break;
      case FaultSpecKind::kDiskFail:
      case FaultSpecKind::kImageCorrupt:
        f.extra = 1;
        break;
      case FaultSpecKind::kAgentCrashOnMsg: {
        // Crash on one of the protocol messages an agent receives.
        static constexpr std::uint8_t kTriggers[] = {
            static_cast<std::uint8_t>(coord::MsgType::kCheckpoint),
            static_cast<std::uint8_t>(coord::MsgType::kContinue),
            static_cast<std::uint8_t>(coord::MsgType::kRestart),
        };
        f.extra = kTriggers[rng.NextBelow(3)];
        break;
      }
      default:  // tier-scoped kinds are drawn separately below
        break;
    }
    s.faults.push_back(f);
  }

  // Tiered storage mode, drawn after everything else so pre-tier seeds
  // keep their exact op/fault schedules (pinned repro strings and the
  // shrinker's golden cases replay unchanged). kNetfsOutage is decode-only
  // here: an outage window also blanks the coordinator's intent journal
  // (appends fail silently), which perturbs epoch bookkeeping in ways the
  // protocol oracles would mis-attribute; tests exercise it directly.
  s.tiered = rng.NextBernoulli(0.5);
  if (s.tiered) {
    std::size_t extra = rng.NextBelow(3);  // 0..2 tier-scoped faults
    for (std::size_t i = 0; i < extra; ++i) {
      FaultSpec f;
      std::uint64_t k = rng.NextBelow(3);
      f.kind = k == 0   ? FaultSpecKind::kLocalDiskLoss
               : k == 1 ? FaultSpecKind::kPartnerUnreachable
                        : FaultSpecKind::kNoSpace;
      f.node = static_cast<std::uint32_t>(rng.NextBelow(s.num_nodes));
      switch (f.kind) {
        case FaultSpecKind::kLocalDiskLoss:
          f.extra = 10 + static_cast<std::uint32_t>(rng.NextBelow(120));
          break;
        case FaultSpecKind::kNoSpace:
          // Local-disk byte budget in KiB: tight enough to trigger
          // eviction, loose enough to hold one image.
          f.extra = 96 + static_cast<std::uint32_t>(rng.NextBelow(161));
          break;
        default:
          break;
      }
      s.faults.push_back(f);
    }
  }

  // Hierarchical coordination, drawn after everything else for the same
  // reason as tiered mode: flat seeds keep their exact schedules.
  // Hierarchical scenarios widen the cluster so the tree has more than
  // one shard; the explorer pads the member list with one pod per extra
  // node. Fault node indices stay valid (they were drawn below the
  // original num_nodes).
  if (rng.NextBernoulli(0.25)) {
    s.fan_out = 2 + static_cast<std::uint32_t>(rng.NextBelow(3));  // 2..4
    s.num_nodes = std::max(
        s.num_nodes, 5 + static_cast<std::uint32_t>(rng.NextBelow(4)));
  }

  // Migration mode, drawn last (same reason again: earlier draws — and
  // hence every pre-post-copy seed's schedule — stay bit-identical).
  s.migrate_mode = static_cast<std::uint8_t>(rng.NextBelow(4));
  return s;
}

}  // namespace cruz::check
