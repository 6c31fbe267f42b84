#include "check/oracle.h"

#include <algorithm>
#include <sstream>

#include "ckpt/engine.h"
#include "ckpt/generation.h"
#include "ckpt/store/tiered_store.h"
#include "common/error.h"

namespace cruz::check {

namespace {

using obs::TraceEvent;
using obs::TraceQuery;

std::string ArgValue(const TraceEvent& e, const std::string& key) {
  for (const auto& [k, v] : e.attrs.args) {
    if (k == key) return v;
  }
  return {};
}

void Violate(std::vector<Violation>& out, const std::string& invariant,
             std::string detail) {
  out.push_back(Violation{invariant, std::move(detail)});
}

// True for records that ran a coordinated checkpoint (a coordinator
// crash still allocates a generation and may complete the op).
bool IsCheckpointAttempt(const OpRecord& rec) {
  return rec.attempted && (rec.kind == OpKind::kCheckpoint ||
                           rec.kind == OpKind::kCoordinatorCrash);
}

// The workload must finish what it started, without corruption. Catches
// any disturbance that silently kills or damages application state.
void CheckWorkloadIntact(const RunContext& ctx,
                         std::vector<Violation>& out) {
  const char* name = "workload-intact";
  if (!ctx.workload.completed) {
    std::ostringstream d;
    d << "workload did not complete: " << ctx.workload.units << "/"
      << ctx.workload.target << " units";
    Violate(out, name, d.str());
    return;
  }
  if (ctx.workload.mismatches != 0) {
    Violate(out, name,
            "workload saw " + std::to_string(ctx.workload.mismatches) +
                " verification failure(s)");
  }
  if (ctx.workload.target != 0 && ctx.workload.units != ctx.workload.target) {
    std::ostringstream d;
    d << "workload finished at " << ctx.workload.units << " units, expected "
      << ctx.workload.target;
    Violate(out, name, d.str());
  }
}

// Paper §5: consistency comes from dropping pod traffic during the
// coordinated window. Between the last filter install and the first
// resume of a successful checkpoint, no TCP segment may be delivered on
// a workload pod's connection.
void CheckCommSilence(const RunContext& ctx, std::vector<Violation>& out) {
  const char* name = "comm-silence";
  for (const OpRecord& rec : ctx.ops) {
    if (rec.kind != OpKind::kCheckpoint || !rec.result.stats.success) {
      continue;
    }
    std::uint64_t op_id = rec.result.stats.op_id;
    auto installs = ctx.trace->Select(
        TraceQuery::Filter{}.Name("agent.filter.install").Op(op_id));
    auto resumes = ctx.trace->Select(
        TraceQuery::Filter{}.Name("agent.resume").Op(op_id));
    if (installs.size() != rec.members || resumes.size() != rec.members) {
      continue;  // partial window (duplicated/aborted edges): no claim
    }
    TimeNs filters_up = 0;
    TimeNs first_resume = ~TimeNs{0};
    for (const TraceEvent* e : installs)
      filters_up = std::max(filters_up, e->ts);
    for (const TraceEvent* e : resumes)
      first_resume = std::min(first_resume, e->ts);
    if (filters_up >= first_resume) continue;
    std::size_t during = 0;
    for (const TraceEvent& e : ctx.trace->events()) {
      if (e.name != "tcp.rx" || e.ts <= filters_up || e.ts >= first_resume) {
        continue;
      }
      for (const std::string& ip : ctx.member_pod_ips) {
        if (e.attrs.conn.find(ip) != std::string::npos) {
          ++during;
          break;
        }
      }
    }
    if (during > 0) {
      std::ostringstream d;
      d << "op " << op_id << ": " << during
        << " pod TCP segment(s) delivered inside the filter window";
      Violate(out, name, d.str());
    }
  }
}

// The coordinator's own verdict on an op, from the end of its op span.
bool CoordinatorDeclaredSuccess(const RunContext& ctx, std::uint64_t op_id) {
  for (const TraceEvent* e :
       ctx.trace->Select(TraceQuery::Filter{}.Category("coord").Op(op_id))) {
    if (e->name.rfind("coord.op.", 0) == 0) {
      return ArgValue(*e, "success") == "true";
    }
  }
  return false;
}

// A generation manifest commits exactly once per successful epoch, only
// after every agent's save (disk-done), and never for a failed epoch.
void CheckGenCommit(const RunContext& ctx, std::vector<Violation>& out) {
  const char* name = "gen-commit";
  for (const OpRecord& rec : ctx.ops) {
    if (!IsCheckpointAttempt(rec) || rec.allocated_generation == 0) continue;
    std::vector<const TraceEvent*> commits;
    for (const TraceEvent& e : ctx.trace->events()) {
      if (e.name == "ckpt.generation.commit" &&
          ArgValue(e, "gen") == std::to_string(rec.allocated_generation)) {
        commits.push_back(&e);
      }
    }
    std::uint64_t op_id = rec.result.stats.op_id;
    auto saves =
        ctx.trace->Select(TraceQuery::Filter{}.Name("agent.save").Op(op_id));
    if (rec.result.stats.success) {
      if (commits.size() != 1) {
        std::ostringstream d;
        d << "generation " << rec.allocated_generation << " (op " << op_id
          << ") committed " << commits.size() << " time(s), expected 1";
        Violate(out, name, d.str());
        continue;
      }
      if (saves.size() < rec.members) {
        // A committed generation with fewer saves than members means some
        // layer acked without doing the work (e.g. a sub-coordinator that
        // never forwarded to its agents).
        std::ostringstream d;
        d << "generation " << rec.allocated_generation << " (op " << op_id
          << ") committed with only " << saves.size() << " of "
          << rec.members << " agent save(s) on the trace";
        Violate(out, name, d.str());
      } else {
        TimeNs disk_done = 0;
        for (const TraceEvent* e : saves)
          disk_done = std::max(disk_done, e->end_ts());
        if (commits.front()->ts < disk_done) {
          std::ostringstream d;
          d << "generation " << rec.allocated_generation
            << " committed at " << commits.front()->ts
            << " before the last save finished at " << disk_done;
          Violate(out, name, d.str());
        }
      }
    } else if (!commits.empty()) {
      std::ostringstream d;
      d << "generation " << rec.allocated_generation
        << " committed although op " << op_id << " failed";
      Violate(out, name, d.str());
    } else if (saves.size() < rec.members &&
               CoordinatorDeclaredSuccess(ctx, op_id)) {
      // Settling refused the epoch (an image had no commit record), but
      // the coordinator had declared it successful without the work.
      std::ostringstream d;
      d << "op " << op_id << " declared successful with only "
        << saves.size() << " of " << rec.members
        << " agent save(s) on the trace";
      Violate(out, name, d.str());
    }
  }
}

// Restart must land on the newest generation that verifies intact —
// never on a damaged newer one, and never fail while an intact
// generation exists (unless an agent genuinely died).
void CheckRestartNewestIntact(const RunContext& ctx,
                              std::vector<Violation>& out) {
  const char* name = "restart-newest-intact";
  for (const OpRecord& rec : ctx.ops) {
    if (rec.kind != OpKind::kRestart || !rec.attempted) continue;
    if (rec.result.stats.success) {
      if (rec.result.generation != rec.newest_intact_before) {
        std::ostringstream d;
        d << "restart used generation " << rec.result.generation
          << " but the newest intact generation was "
          << rec.newest_intact_before;
        Violate(out, name, d.str());
      }
    } else if (!rec.any_agent_crashed && rec.newest_intact_before != 0) {
      std::ostringstream d;
      d << "restart failed (" << rec.result.stats.abort_reason
        << ") although generation " << rec.newest_intact_before
        << " was intact and no agent had crashed";
      Violate(out, name, d.str());
    }
  }
}

// Restart is all-or-nothing: until its <continue> commits it, a failed
// attempt leaves nothing of the application running. An agent that had
// restored its pod when the attempt aborted destroys it, so no member pod
// restored by a restart that aborted in its freeze phase runs after the
// abort. (Once <continue> went out the restored pods legitimately run.)
void CheckRestartAllOrNothing(const RunContext& ctx,
                              std::vector<Violation>& out) {
  const char* name = "restart-all-or-nothing";
  for (const OpRecord& rec : ctx.ops) {
    for (const OpRecord::RunningPod& p : rec.running_after_failed_restart) {
      if (ctx.trace->Count(TraceQuery::Filter{}
                               .Name("coord.phase.commit")
                               .Op(p.op_id)) > 0) {
        continue;
      }
      std::ostringstream d;
      d << "restart op " << p.op_id << " aborted before <continue>, yet pod "
        << p.pod << " runs on " << p.node;
      Violate(out, name, d.str());
    }
  }
}

// Fig. 2 structure: fencing epochs strictly increase across operations,
// and for blocking stop-the-world checkpoints the freeze phase closes
// before commit opens, with every save inside the freeze.
void CheckProtocolOrder(const RunContext& ctx, std::vector<Violation>& out) {
  const char* name = "protocol-order";
  std::uint64_t last_epoch = 0;
  for (const OpRecord& rec : ctx.ops) {
    if (!rec.attempted || rec.result.stats.epoch == 0) continue;
    if (rec.result.stats.epoch <= last_epoch) {
      std::ostringstream d;
      d << "epoch " << rec.result.stats.epoch
        << " does not exceed the preceding epoch " << last_epoch
        << " (stale coordinator state?)";
      Violate(out, name, d.str());
    }
    last_epoch = std::max(last_epoch, rec.result.stats.epoch);
  }
  for (const OpRecord& rec : ctx.ops) {
    if (rec.kind != OpKind::kCheckpoint || !rec.result.stats.success ||
        rec.copy_on_write ||
        rec.variant != coord::ProtocolVariant::kBlocking) {
      continue;
    }
    std::uint64_t op_id = rec.result.stats.op_id;
    const TraceEvent* op = ctx.trace->First(
        TraceQuery::Filter{}.Name("coord.op.checkpoint").Op(op_id));
    const TraceEvent* freeze = ctx.trace->First(
        TraceQuery::Filter{}.Name("coord.phase.freeze").Op(op_id));
    const TraceEvent* commit = ctx.trace->First(
        TraceQuery::Filter{}.Name("coord.phase.commit").Op(op_id));
    if (op == nullptr || freeze == nullptr || commit == nullptr) {
      Violate(out, name,
              "op " + std::to_string(op_id) +
                  ": missing op/freeze/commit span in the trace");
      continue;
    }
    if (freeze->end_ts() > commit->ts) {
      std::ostringstream d;
      d << "op " << op_id << ": freeze ends at " << freeze->end_ts()
        << " after commit begins at " << commit->ts;
      Violate(out, name, d.str());
    }
    if (!TraceQuery::Within(*freeze, *op) ||
        !TraceQuery::Within(*commit, *op)) {
      Violate(out, name,
              "op " + std::to_string(op_id) +
                  ": phase span extends outside the operation span");
    }
    for (const TraceEvent* save : ctx.trace->Select(
             TraceQuery::Filter{}.Name("agent.save").Op(op_id))) {
      if (!TraceQuery::Within(*save, *freeze)) {
        Violate(out, name,
                "op " + std::to_string(op_id) + ": agent.save of " +
                    save->attrs.agent + " outside the freeze phase");
      }
    }
  }
}

// The <continue> broadcast happens exactly once per member per
// successful op (Fig. 4: the optimized variant must not double-fire the
// early continue under duplicated <comm-disabled> messages).
void CheckContinueExactlyOnce(const RunContext& ctx,
                              std::vector<Violation>& out) {
  const char* name = "continue-exactly-once";
  for (const OpRecord& rec : ctx.ops) {
    if (!IsCheckpointAttempt(rec) || !rec.result.stats.success) continue;
    std::uint64_t op_id = rec.result.stats.op_id;
    std::size_t sends = 0;
    std::size_t retransmits = 0;
    for (const TraceEvent& e : ctx.trace->events()) {
      if (e.attrs.op != op_id || ArgValue(e, "type") != "continue") continue;
      if (e.name == "coord.msg.send") ++sends;
      if (e.name == "coord.retransmit") ++retransmits;
    }
    if (sends - retransmits != rec.members) {
      std::ostringstream d;
      d << "op " << op_id << ": " << sends << " <continue> send(s) with "
        << retransmits << " retransmit(s) for " << rec.members
        << " member(s)";
      Violate(out, name, d.str());
    }
    std::size_t commit_spans = ctx.trace->Count(
        TraceQuery::Filter{}.Name("coord.phase.commit").Op(op_id));
    if (commit_spans != 1) {
      std::ostringstream d;
      d << "op " << op_id << ": " << commit_spans
        << " commit phase span(s), expected 1";
      Violate(out, name, d.str());
    }
  }
}

// Tiered storage (DESIGN.md §11): a restart must succeed whenever every
// image of some committed generation still has at least one intact
// replica on any tier. NewestIntactGeneration() resolves across tiers in
// tiered runs, so a nonzero pre-restart sample is exactly that witness —
// a subsequent failure means a replica silently vanished between the
// check and the restore, the resolver missed a surviving copy, or the
// fallback stopped short of the intact generation.
void CheckReplicaAvailability(const RunContext& ctx,
                              std::vector<Violation>& out) {
  const char* name = "replica-availability";
  if (ctx.scenario == nullptr || !ctx.scenario->tiered) return;
  for (const OpRecord& rec : ctx.ops) {
    if (rec.kind != OpKind::kRestart || !rec.attempted) continue;
    if (rec.result.stats.success || rec.any_agent_crashed ||
        rec.newest_intact_before == 0) {
      continue;
    }
    std::ostringstream d;
    d << "restart failed (" << rec.result.stats.abort_reason
      << ") although every image of generation " << rec.newest_intact_before
      << " had an intact replica on some tier";
    Violate(out, name, d.str());
  }
}

// Abort/discard paths never leak: every file under the generation root,
// on every tier (node disks, partner copies, netfs), belongs to a
// committed generation.
void CheckNoPartialState(const RunContext& ctx, std::vector<Violation>& out) {
  const char* name = "no-partial-state";
  ckpt::TieredStore& store = ctx.cluster->tiered();
  std::vector<std::uint64_t> committed =
      ckpt::GenerationStore(store, ctx.gen_root).Committed();
  const std::string prefix = ctx.gen_root + "/gen_";
  for (const std::string& path : store.ListAll(prefix)) {
    std::uint64_t gen = 0;
    for (std::size_t i = prefix.size();
         i < path.size() && path[i] >= '0' && path[i] <= '9'; ++i) {
      gen = gen * 10 + static_cast<std::uint64_t>(path[i] - '0');
    }
    if (std::find(committed.begin(), committed.end(), gen) ==
        committed.end()) {
      Violate(out, name,
              "file " + path + " belongs to no committed generation");
    }
  }
}

// Migration moves a pod; it must never fork it or lose it. After every
// successful migrate, exactly one node in the cluster hosts the pod —
// two copies (a source that was never released) would split brain the
// application, zero means the pod fell through the cracks.
void CheckMigrationExactlyOneRunningCopy(const RunContext& ctx,
                                         std::vector<Violation>& out) {
  const char* name = "migration-exactly-one-running-copy";
  for (const OpRecord& rec : ctx.ops) {
    if (rec.kind != OpKind::kMigrate || !rec.attempted ||
        !rec.result.stats.success || rec.migrated_pod == os::kNoPod) {
      continue;
    }
    std::size_t copies = 0;
    std::string holders;
    for (std::size_t n = 0; n < ctx.cluster->num_nodes(); ++n) {
      if (ctx.cluster->pods(n).Find(rec.migrated_pod) != nullptr) {
        ++copies;
        if (!holders.empty()) holders += ", ";
        holders += ctx.cluster->node(n).name();
      }
    }
    if (copies != 1) {
      std::ostringstream d;
      d << "migrated pod " << rec.migrated_pod << " exists on " << copies
        << " node(s)" << (copies == 0 ? "" : " (" + holders + ")")
        << ", expected exactly 1";
      Violate(out, name, d.str());
    }
  }
}

// A migration is complete only when the target holds every page. The
// migrator's page accounting must balance, no request may have been
// served after the source released its frozen image, and — decisively —
// no process of the migrated pod may still have missing (demand-paged)
// pages at the end of the run.
void CheckResidentSetComplete(const RunContext& ctx,
                              std::vector<Violation>& out) {
  const char* name = "resident-set-complete";
  for (const OpRecord& rec : ctx.ops) {
    if (rec.kind != OpKind::kMigrate || !rec.attempted ||
        !rec.result.stats.success || rec.migrated_pod == os::kNoPod) {
      continue;
    }
    const ckpt::LiveMigrateStats& m = rec.migrate;
    if (m.pages_resident_at_resume + m.pages_fetched_on_demand +
            m.pages_pushed !=
        m.pages_total) {
      std::ostringstream d;
      d << "pod " << rec.migrated_pod << ": page accounting off: "
        << m.pages_resident_at_resume << " resident + "
        << m.pages_fetched_on_demand << " fetched + " << m.pages_pushed
        << " pushed != " << m.pages_total << " total";
      Violate(out, name, d.str());
    }
    if (m.late_serves != 0) {
      Violate(out, name,
              "pod " + std::to_string(rec.migrated_pod) + ": " +
                  std::to_string(m.late_serves) +
                  " page(s) served after the source released its image");
    }
    for (std::size_t n = 0; n < ctx.cluster->num_nodes(); ++n) {
      os::Os& os = ctx.cluster->node(n).os();
      if (ctx.cluster->pods(n).Find(rec.migrated_pod) == nullptr) continue;
      for (os::Pid pid : os.PodProcesses(rec.migrated_pod)) {
        os::Process* proc = os.FindProcess(pid);
        if (proc == nullptr || !proc->memory().HasMissingPages()) continue;
        std::ostringstream d;
        d << "pod " << rec.migrated_pod << " process " << pid << " on "
          << ctx.cluster->node(n).name() << " still has "
          << proc->memory().missing_pages().size()
          << " missing page(s) after migration reported done";
        Violate(out, name, d.str());
      }
    }
  }
}

}  // namespace

bool GenerationIntact(ckpt::TieredStore& store, std::uint64_t gen,
                      const std::string& root) {
  std::optional<std::vector<ckpt::ManifestEntry>> manifest =
      ckpt::GenerationStore(store, root).ReadManifest(gen);
  if (!manifest.has_value()) return false;
  // Every image needs one intact copy on some tier. The probe reads
  // untraced (it is not a restore); decoding the chain is each copy's
  // check, and the head copy must also be the one the manifest records.
  for (const ckpt::ManifestEntry& e : *manifest) {
    ckpt::TieredStore::ResolveResult head;
    try {
      ckpt::CheckpointEngine::LoadImageChain(store, /*reader=*/nullptr,
                                             e.image_path, /*trace=*/false,
                                             &head);
    } catch (const cruz::CruzError&) {
      return false;
    }
    if (head.size != e.size || head.crc32 != e.crc32) return false;
  }
  return true;
}

std::uint64_t NewestIntactGeneration(ckpt::TieredStore& store,
                                     const std::string& root) {
  std::vector<std::uint64_t> gens =
      ckpt::GenerationStore(store, root).Committed();
  for (auto it = gens.rbegin(); it != gens.rend(); ++it) {
    if (GenerationIntact(store, *it, root)) return *it;
  }
  return 0;
}

void InvariantOracle::Register(std::string name, CheckFn check) {
  checks_.emplace_back(std::move(name), std::move(check));
}

InvariantOracle InvariantOracle::Defaults() {
  InvariantOracle oracle;
  oracle.Register("workload-intact", CheckWorkloadIntact);
  oracle.Register("comm-silence", CheckCommSilence);
  oracle.Register("gen-commit", CheckGenCommit);
  oracle.Register("restart-newest-intact", CheckRestartNewestIntact);
  oracle.Register("restart-all-or-nothing", CheckRestartAllOrNothing);
  oracle.Register("protocol-order", CheckProtocolOrder);
  oracle.Register("continue-exactly-once", CheckContinueExactlyOnce);
  oracle.Register("no-partial-state", CheckNoPartialState);
  oracle.Register("replica-availability", CheckReplicaAvailability);
  oracle.Register("migration-exactly-one-running-copy",
                  CheckMigrationExactlyOneRunningCopy);
  oracle.Register("resident-set-complete", CheckResidentSetComplete);
  return oracle;
}

std::vector<Violation> InvariantOracle::Check(const RunContext& ctx) const {
  std::vector<Violation> violations;
  for (const auto& [name, check] : checks_) {
    check(ctx, violations);
  }
  return violations;
}

std::vector<std::string> InvariantOracle::names() const {
  std::vector<std::string> out;
  for (const auto& [name, check] : checks_) out.push_back(name);
  return out;
}

}  // namespace cruz::check
