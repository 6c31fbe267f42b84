#include "check/explorer.h"

#include <algorithm>
#include <sstream>

#include "apps/kvstore.h"
#include "apps/programs.h"
#include "ckpt/generation.h"
#include "ckpt/live_migrate.h"
#include "common/error.h"
#include "coord/journal.h"
#include "fault/fault.h"
#include "obs/causal/flight_recorder.h"

namespace cruz::check {

namespace {

constexpr const char* kGenRoot = "/ckpt/explore";
constexpr std::uint16_t kStreamPort = 9100;
constexpr std::uint16_t kKvPort = 9200;

// The two workload pods and how to observe their progress, wherever
// restarts and migrations have placed them.
struct WorkloadDriver {
  WorkloadKind kind = WorkloadKind::kStream;
  std::uint64_t target = 0;
  os::PodId pod_a = os::kNoPod;  // sender / kv server / counter
  os::PodId pod_b = os::kNoPod;  // receiver / kv client / counter
  os::Pid vpid_a = os::kNoPid;
  os::Pid vpid_b = os::kNoPid;
  std::size_t node_a = 0;
  std::size_t node_b = 1;
  std::string ip_a;
  std::string ip_b;
  // Latest observed progress; exit hooks latch the final values because
  // finished processes disappear from the process table.
  std::uint64_t units_a = 0;
  std::uint64_t units_b = 0;
  std::uint64_t mismatches = 0;
  bool exited_a = false;
  bool exited_b = false;

  os::Process* Live(Cluster& c, std::size_t node, os::PodId pod,
                    os::Pid vpid) {
    os::Pid real = c.pods(node).ToRealPid(pod, vpid);
    return real == os::kNoPid ? nullptr : c.node(node).os().FindProcess(real);
  }

  void Sample(Cluster& c) {
    // Mid-migration a process may be demand-paged: reading its memory
    // from outside throws PageFault. Skip the sample; the next tick (or
    // the exit hook) will see the filled-in state.
    try {
      SampleOrFault(c);
    } catch (const os::PageFault&) {
    }
  }

  void SampleOrFault(Cluster& c) {
    switch (kind) {
      case WorkloadKind::kStream:
        if (os::Process* p = Live(c, node_b, pod_b, vpid_b)) {
          apps::StreamStatus s = apps::ReadStreamStatus(*p);
          units_b = s.bytes;
          mismatches = s.mismatches;
        }
        break;
      case WorkloadKind::kKvStore:
        if (os::Process* p = Live(c, node_b, pod_b, vpid_b)) {
          apps::KvClientStatus s = apps::ReadKvClientStatus(*p);
          units_b = s.operations_done;
          mismatches = s.verification_failures;
        }
        break;
      case WorkloadKind::kCounters:
        if (os::Process* p = Live(c, node_a, pod_a, vpid_a)) {
          units_a = apps::ReadCounter(*p);
        }
        if (os::Process* p = Live(c, node_b, pod_b, vpid_b)) {
          units_b = apps::ReadCounter(*p);
        }
        break;
    }
  }

  bool Completed() const {
    switch (kind) {
      case WorkloadKind::kStream:
      case WorkloadKind::kKvStore:
        return exited_b || units_b >= target;
      case WorkloadKind::kCounters:
        return (exited_a || units_a >= target) &&
               (exited_b || units_b >= target);
    }
    return false;
  }

  WorkloadResult Result() const {
    WorkloadResult r;
    r.completed = Completed();
    r.target = target;
    r.units = kind == WorkloadKind::kCounters ? std::min(units_a, units_b)
                                              : units_b;
    r.mismatches = mismatches;
    return r;
  }
};

void SpawnWorkload(Cluster& c, const Scenario& s, WorkloadDriver& w) {
  w.kind = s.workload;
  w.target = s.workload_units;
  switch (s.workload) {
    case WorkloadKind::kStream: {
      w.pod_b = c.CreatePod(w.node_b, "wl-recv");
      net::Ipv4Address rip = c.pods(w.node_b).Find(w.pod_b)->ip;
      w.ip_b = rip.ToString();
      w.vpid_b = c.pods(w.node_b).SpawnInPod(
          w.pod_b, "cruz.stream_receiver", apps::StreamReceiverArgs(
                                               kStreamPort));
      c.sim().RunFor(5 * kMillisecond);
      w.pod_a = c.CreatePod(w.node_a, "wl-send");
      w.ip_a = c.pods(w.node_a).Find(w.pod_a)->ip.ToString();
      w.vpid_a = c.pods(w.node_a).SpawnInPod(
          w.pod_a, "cruz.stream_sender",
          apps::StreamSenderArgs(rip, kStreamPort, w.target));
      break;
    }
    case WorkloadKind::kKvStore: {
      apps::RegisterKvPrograms();
      w.pod_a = c.CreatePod(w.node_a, "wl-kv-server");
      net::Ipv4Address sip = c.pods(w.node_a).Find(w.pod_a)->ip;
      w.ip_a = sip.ToString();
      w.vpid_a = c.pods(w.node_a).SpawnInPod(w.pod_a, "cruz.kv_server",
                                             apps::KvServerArgs(kKvPort));
      c.sim().RunFor(5 * kMillisecond);
      w.pod_b = c.CreatePod(w.node_b, "wl-kv-client");
      w.ip_b = c.pods(w.node_b).Find(w.pod_b)->ip.ToString();
      w.vpid_b = c.pods(w.node_b).SpawnInPod(
          w.pod_b, "cruz.kv_client",
          apps::KvClientArgs(sip, kKvPort,
                             static_cast<std::uint32_t>(w.target), s.seed,
                             200 * kMicrosecond));
      break;
    }
    case WorkloadKind::kCounters: {
      w.pod_a = c.CreatePod(w.node_a, "wl-count-a");
      w.ip_a = c.pods(w.node_a).Find(w.pod_a)->ip.ToString();
      w.vpid_a = c.pods(w.node_a).SpawnInPod(w.pod_a, "cruz.counter",
                                             apps::CounterArgs(w.target));
      w.pod_b = c.CreatePod(w.node_b, "wl-count-b");
      w.ip_b = c.pods(w.node_b).Find(w.pod_b)->ip.ToString();
      w.vpid_b = c.pods(w.node_b).SpawnInPod(w.pod_b, "cruz.counter",
                                             apps::CounterArgs(w.target));
      break;
    }
  }
  // Latch final progress from whichever node the workload process exits
  // on (it may have been restarted or migrated anywhere by then).
  for (std::size_t n = 0; n < c.num_nodes(); ++n) {
    c.node(n).os().set_process_exit_hook([&c, &w, n](os::Pid p, int) {
      os::Process* proc = c.node(n).os().FindProcess(p);
      if (proc == nullptr) return;
      // A pod torn down mid-demand-paging has unreadable missing pages;
      // keep the last sampled progress instead of faulting.
      if (proc->memory().HasMissingPages()) return;
      if (proc->pod() == w.pod_b) {
        switch (w.kind) {
          case WorkloadKind::kStream: {
            apps::StreamStatus s = apps::ReadStreamStatus(*proc);
            w.units_b = s.bytes;
            w.mismatches = s.mismatches;
            break;
          }
          case WorkloadKind::kKvStore: {
            apps::KvClientStatus s = apps::ReadKvClientStatus(*proc);
            w.units_b = s.operations_done;
            w.mismatches = s.verification_failures;
            break;
          }
          case WorkloadKind::kCounters:
            w.units_b = apps::ReadCounter(*proc);
            break;
        }
        w.exited_b = true;
      } else if (proc->pod() == w.pod_a &&
                 w.kind == WorkloadKind::kCounters) {
        w.units_a = apps::ReadCounter(*proc);
        w.exited_a = true;
      }
    });
  }
}

void ArmScenarioFaults(const Scenario& s, Cluster& c,
                       fault::FaultPlan& plan) {
  for (const FaultSpec& f : s.faults) {
    std::size_t node_index = f.node % s.num_nodes;
    std::string node_name = "node" + std::to_string(node_index + 1);
    switch (f.kind) {
      case FaultSpecKind::kMessageLoss:
        plan.ArmMessageLoss(f.permille / 1000.0);
        break;
      case FaultSpecKind::kMessageDup:
        plan.ArmMessageDuplication(f.permille / 1000.0);
        break;
      case FaultSpecKind::kMessageDelay:
        plan.ArmMessageDelay(f.permille / 1000.0, f.extra * kMillisecond);
        break;
      case FaultSpecKind::kDiskFail:
        plan.ArmDiskWriteFailure(node_name, f.extra);
        break;
      case FaultSpecKind::kImageCorrupt:
        plan.ArmImageCorruption(node_name, f.extra);
        break;
      case FaultSpecKind::kAgentCrashOnMsg:
        plan.ArmAgentCrash(node_name, static_cast<std::uint8_t>(f.extra));
        break;
      case FaultSpecKind::kLocalDiskLoss:
        plan.ArmLocalDiskLoss(node_index, f.extra * kMillisecond);
        break;
      case FaultSpecKind::kPartnerUnreachable:
        plan.ArmPartnerUnreachable(node_name);
        break;
      case FaultSpecKind::kNetfsOutage:
        plan.ArmNetfsOutage(f.permille * kMillisecond, f.extra * kMillisecond);
        break;
      case FaultSpecKind::kNoSpace:
        // Capacity is a property of the node's disk, not of the injector.
        c.node(node_index).disk().set_capacity_bytes(
            static_cast<std::uint64_t>(f.extra) * 1024);
        break;
    }
  }
}

bool AnyAgentCrashed(Cluster& c) {
  for (std::size_t i = 0; i < c.num_nodes(); ++i) {
    if (c.agent(i).crashed()) return true;
  }
  return false;
}

// Operator-style recovery: restart crashed agent processes so their
// pods resume. Returns true if any agent needed it.
bool ResetCrashedAgents(Cluster& c) {
  bool any = false;
  for (std::size_t i = 0; i < c.num_nodes(); ++i) {
    if (c.agent(i).crashed()) {
      c.agent(i).Reset();
      any = true;
    }
  }
  return any;
}

void DestroyEverywhere(Cluster& c, os::PodId pod) {
  for (std::size_t n = 0; n < c.num_nodes(); ++n) {
    if (c.pods(n).Find(pod) != nullptr) c.pods(n).DestroyPod(pod);
  }
}

// After a failed restart attempt, before anything else touches the
// members: every member pod with a process that runs (neither stopped
// nor exited), on any node. The attempt started with every member pod
// destroyed, so whatever runs now was restored by it.
void NoteRunningAfterFailedRestart(
    Cluster& c, const std::vector<coord::Coordinator::Member>& members,
    OpRecord& rec) {
  for (const coord::Coordinator::Member& m : members) {
    for (std::size_t n = 0; n < c.num_nodes(); ++n) {
      if (c.pods(n).Find(m.pod) == nullptr) continue;
      os::Os& os = c.node(n).os();
      for (os::Pid pid : os.PodProcesses(m.pod)) {
        os::Process* proc = os.FindProcess(pid);
        if (proc != nullptr && proc->state() == os::ProcessState::kLive) {
          rec.running_after_failed_restart.push_back(
              {rec.result.stats.op_id, m.pod, c.node(n).name()});
          break;
        }
      }
    }
  }
}

coord::Coordinator::Options OpOptions(const OpSpec& spec,
                                      const Scenario& s) {
  coord::Coordinator::Options options;
  options.tiered = s.tiered;
  options.fan_out = s.fan_out;
  options.variant = spec.variant;
  options.incremental = spec.incremental;
  options.copy_on_write = spec.copy_on_write;
  options.compress = spec.compress;
  options.retransmit_interval = 300 * kMillisecond;
  options.timeout = 30 * kSecond;
  options.heartbeat_interval = 500 * kMillisecond;
  options.max_missed_heartbeats = 3;
  return options;
}

}  // namespace

const char* MutationName(Mutation mutation) {
  switch (mutation) {
    case Mutation::kNone: return "none";
    case Mutation::kAbandonWorkload: return "abandon-workload";
    case Mutation::kSkipDropFilter: return "skip-drop-filter";
    case Mutation::kCommitFailedGeneration: return "commit-failed-generation";
    case Mutation::kRestartBlindLatest: return "restart-blind-latest";
    case Mutation::kWipeCoordinatorJournal: return "wipe-coordinator-journal";
    case Mutation::kDuplicateContinue: return "duplicate-continue";
    case Mutation::kLeakPartialImage: return "leak-partial-image";
    case Mutation::kDropLastReplica: return "drop-last-replica";
    case Mutation::kShardAckWithoutForward:
      return "shard-ack-without-forward";
    case Mutation::kDropPageResponse: return "drop-page-response";
    case Mutation::kResumeBothSides: return "resume-both-sides";
    case Mutation::kSkipDiscardFence: return "skip-discard-fence";
    case Mutation::kResumeAbortedRestore: return "resume-aborted-restore";
  }
  return "none";
}

bool MutationFromName(const std::string& name, Mutation& out) {
  static constexpr Mutation kAll[] = {
      Mutation::kNone,
      Mutation::kAbandonWorkload,
      Mutation::kSkipDropFilter,
      Mutation::kCommitFailedGeneration,
      Mutation::kRestartBlindLatest,
      Mutation::kWipeCoordinatorJournal,
      Mutation::kDuplicateContinue,
      Mutation::kLeakPartialImage,
      Mutation::kDropLastReplica,
      Mutation::kShardAckWithoutForward,
      Mutation::kDropPageResponse,
      Mutation::kResumeBothSides,
      Mutation::kSkipDiscardFence,
      Mutation::kResumeAbortedRestore,
  };
  for (Mutation m : kAll) {
    if (name == MutationName(m)) {
      out = m;
      return true;
    }
  }
  return false;
}

Explorer::Explorer(RunOptions options)
    : options_(options), oracle_(InvariantOracle::Defaults()) {}

RunResult Explorer::RunScenario(const Scenario& scenario) {
  const Mutation mutation = options_.mutation;
  ClusterConfig config;
  config.seed = scenario.seed;
  config.num_nodes = scenario.num_nodes;
  Cluster c(config);
  // Whole-run verbose capture: comm-silence needs per-segment rx
  // instants around every checkpoint window.
  c.sim().tracer().set_capacity(1 << 18);
  c.sim().tracer().set_verbose(true);

  if (mutation == Mutation::kSkipDropFilter) {
    for (std::size_t i = 0; i < c.num_nodes(); ++i) {
      c.agent(i).set_test_skip_filter(true);
    }
  }
  if (mutation == Mutation::kDuplicateContinue) {
    c.coordinator().set_test_duplicate_continue(true);
  }
  if (mutation == Mutation::kSkipDiscardFence) {
    c.tiered().set_test_skip_discard_fence(true);
  }
  if (mutation == Mutation::kResumeAbortedRestore) {
    for (std::size_t i = 0; i < c.num_nodes(); ++i) {
      c.agent(i).set_test_resume_restored(true);
    }
  }
  if (mutation == Mutation::kShardAckWithoutForward) {
    for (std::size_t i = 0; i < c.num_nodes(); ++i) {
      c.shard_coordinator(i).set_test_ack_without_forward(true);
    }
  }

  fault::FaultPlan plan(scenario.seed * 9176 + 0x5eed);
  if (!scenario.faults.empty()) {
    ArmScenarioFaults(scenario, c, plan);
    c.ArmFaults(plan);
  }

  WorkloadDriver w;
  SpawnWorkload(c, scenario, w);
  c.sim().RunFor(10 * kMillisecond);

  // Hierarchical scenarios: one extra long-running member pod per node
  // beyond the two workload nodes, so coordinated ops span enough
  // members to form several shards. Not tracked by the workload driver.
  std::vector<os::PodId> pad_pods(c.num_nodes(), os::kNoPod);
  if (scenario.fan_out > 0) {
    for (std::size_t n = 0; n < c.num_nodes(); ++n) {
      if (n == w.node_a || n == w.node_b) continue;
      pad_pods[n] = c.CreatePod(n, "hier-pad" + std::to_string(n));
      c.pods(n).SpawnInPod(pad_pods[n], "cruz.counter",
                           apps::CounterArgs(1u << 30));
    }
    c.sim().RunFor(5 * kMillisecond);
  }

  std::vector<OpRecord> records;
  for (const OpSpec& spec : scenario.ops) {
    c.sim().RunFor(spec.pre_delay);
    OpRecord rec;
    rec.kind = spec.kind;
    rec.variant = spec.variant;
    rec.copy_on_write = spec.copy_on_write;
    coord::Coordinator::Options options = OpOptions(spec, scenario);
    std::vector<coord::Coordinator::Member> members = {
        c.MemberFor(w.node_a, w.pod_a), c.MemberFor(w.node_b, w.pod_b)};
    if (spec.kind != OpKind::kMigrate) {
      for (std::size_t n = 0; n < pad_pods.size(); ++n) {
        if (pad_pods[n] != os::kNoPod) {
          members.push_back(c.MemberFor(n, pad_pods[n]));
        }
      }
    }
    rec.members = members.size();

    switch (spec.kind) {
      case OpKind::kCheckpoint: {
        auto pending = c.StartGenerationCheckpoint(members, options,
                                                   kGenRoot);
        c.sim().RunWhile([&] { return pending->finished; },
                         c.sim().Now() + options.timeout + 2 * kSecond);
        rec.result = c.SettleGenerationCheckpoint(pending);
        rec.allocated_generation = rec.result.allocated;
        if (mutation == Mutation::kCommitFailedGeneration &&
            !rec.result.stats.success) {
          // Sabotage: publish a manifest for the discarded generation
          // anyway (pointing at the images the op meant to write).
          ckpt::GenerationStore store(c.tiered(), kGenRoot);
          store.set_tracer(&c.sim().tracer());
          std::vector<ckpt::ManifestEntry> entries;
          for (const auto& m : members) {
            ckpt::ManifestEntry e;
            e.pod = m.pod;
            e.image_path = coord::Coordinator::ImagePath(
                store.Prefix(rec.allocated_generation), m.pod);
            entries.push_back(std::move(e));
          }
          store.Commit(rec.allocated_generation, entries);
        }
        break;
      }
      case OpKind::kCoordinatorCrash: {
        auto pending = c.StartGenerationCheckpoint(members, options,
                                                   kGenRoot);
        c.sim().RunFor(2 * kMillisecond);
        if (mutation == Mutation::kWipeCoordinatorJournal) {
          c.fs().Remove(coord::IntentJournal::kDefaultPath);
        }
        c.RestartCoordinator();
        if (mutation == Mutation::kDuplicateContinue) {
          c.coordinator().set_test_duplicate_continue(true);
        }
        // Journal recovery aborts the orphaned op and resumes the
        // members; give those aborts time to land.
        c.sim().RunFor(500 * kMillisecond);
        rec.result = c.SettleGenerationCheckpoint(pending);
        rec.allocated_generation = rec.result.allocated;
        // A lost abort (or a wiped journal) leaves pods frozen behind
        // filters with no coordinator op to release them; restart the
        // agent processes, as an operator would after the incident.
        for (std::size_t i = 0; i < c.num_nodes(); ++i) c.agent(i).Reset();
        c.sim().RunFor(10 * kMillisecond);
        break;
      }
      case OpKind::kRestart: {
        options.variant = coord::ProtocolVariant::kBlocking;
        options.copy_on_write = false;
        ckpt::GenerationStore store(c.tiered(), kGenRoot);
        rec.newest_intact_before = NewestIntactGeneration(c.tiered(),
                                                          kGenRoot);
        if (mutation == Mutation::kDropLastReplica &&
            rec.newest_intact_before != 0) {
          // Sabotage: after the intact check, silently lose every copy of
          // one image on every tier — the storage equivalent of bit rot
          // between verification and restore.
          auto manifest = store.ReadManifest(rec.newest_intact_before);
          if (manifest.has_value() && !manifest->empty()) {
            c.tiered().RemoveEverywhere(manifest->back().image_path);
          }
        }
        const bool blind = mutation == Mutation::kRestartBlindLatest;
        std::uint64_t blind_gen = store.LatestCommitted().value_or(0);
        if ((blind ? blind_gen : rec.newest_intact_before) == 0) {
          rec.attempted = false;
          break;
        }
        std::size_t n = c.num_nodes();
        std::size_t new_a = w.node_a;
        std::size_t new_b = w.node_b;
        if (scenario.fan_out == 0) {
          // Flat scenarios relocate freely. Hierarchical ones restart in
          // place: every other node already hosts a pad member pod, and a
          // coordinated op drives at most one pod per agent.
          new_a = spec.placement_salt % n;
          new_b = (new_a + 1 + (spec.placement_salt / 7) % (n - 1)) % n;
        }
        members = {coord::Coordinator::Member{c.node(new_a).ip(), w.pod_a},
                   coord::Coordinator::Member{c.node(new_b).ip(), w.pod_b}};
        for (std::size_t pn = 0; pn < pad_pods.size(); ++pn) {
          if (pad_pods[pn] != os::kNoPod) {
            members.push_back(c.MemberFor(pn, pad_pods[pn]));
          }
        }
        // Armed agent crashes can legitimately kill a restart attempt;
        // reset and retry until the one-shot faults are used up.
        for (int attempt = 0; attempt < 6; ++attempt) {
          if (attempt > 0) NoteRunningAfterFailedRestart(c, members, rec);
          DestroyEverywhere(c, w.pod_a);
          DestroyEverywhere(c, w.pod_b);
          for (os::PodId pad : pad_pods) {
            if (pad != os::kNoPod) DestroyEverywhere(c, pad);
          }
          c.sim().RunFor(5 * kMillisecond);
          if (blind) {
            std::vector<ckpt::ManifestEntry> manifest =
                store.ReadManifest(blind_gen).value();
            std::vector<std::string> paths;
            for (const auto& m : members) {
              for (const ckpt::ManifestEntry& e : manifest) {
                if (e.pod == m.pod) paths.push_back(e.image_path);
              }
            }
            rec.result = Cluster::GenerationOpResult{};
            rec.result.stats = c.RunRestart(members, paths, options);
            rec.result.generation = blind_gen;
            rec.result.latest_committed = blind_gen;
          } else {
            rec.result = c.RunGenerationRestart(members, options, kGenRoot);
          }
          rec.any_agent_crashed = AnyAgentCrashed(c) || rec.any_agent_crashed;
          if (rec.result.stats.success) break;
          if (!ResetCrashedAgents(c)) break;
          c.sim().RunFor(5 * kMillisecond);
        }
        if (rec.result.stats.success) {
          w.node_a = new_a;
          w.node_b = new_b;
          // Destroying the pods fired the exit hooks; the restored
          // processes are alive again and will exit on their own.
          w.exited_a = false;
          w.exited_b = false;
        }
        break;
      }
      case OpKind::kMigrate: {
        rec.members = 1;
        // A target distinct from both pods' nodes (one pod per agent per
        // coordinated op); impossible on a two-node cluster.
        std::vector<std::size_t> candidates;
        for (std::size_t i = 0; i < c.num_nodes(); ++i) {
          if (i != w.node_a && i != w.node_b &&
              pad_pods[i] == os::kNoPod) {
            candidates.push_back(i);
          }
        }
        if (candidates.empty()) {
          rec.attempted = false;
          break;
        }
        std::size_t target =
            candidates[spec.placement_salt % candidates.size()];
        bool done = false;
        ckpt::LiveMigrateOptions mopt;
        // Page-channel traffic goes through the scenario's fault plan
        // (page-request loss/dup/delay exercise the retransmit path).
        mopt.injector = &plan;
        mopt.test_drop_page_response =
            mutation == Mutation::kDropPageResponse;
        mopt.test_resume_both_sides =
            mutation == Mutation::kResumeBothSides;
        auto mode = static_cast<ckpt::MigrateMode>(
            scenario.migrate_mode <= 3 ? scenario.migrate_mode : 1);
        rec.migrated_pod = w.pod_a;
        ckpt::LiveMigrator::MigrateWithMode(
            c.pods(w.node_a), c.pods(target), w.pod_a, mode, mopt,
            [&](const ckpt::LiveMigrateStats& s) {
              done = true;
              rec.migrate = s;
            });
        c.sim().RunWhile([&] { return done; }, c.sim().Now() + 60 * kSecond);
        rec.result.stats.success = done;
        if (done) {
          w.node_a = target;
          // Tearing down the source pod fired the exit hook for a
          // still-running process; the migrated copy is live again.
          if (w.units_a < w.target) w.exited_a = false;
        }
        break;
      }
    }
    // Any armed agent crash that fired leaves wreckage an operator would
    // clean up: note it (it excuses op failure) and restart the agent.
    if (spec.kind != OpKind::kRestart) {
      rec.any_agent_crashed = AnyAgentCrashed(c);
      ResetCrashedAgents(c);
    }
    c.sim().RunFor(5 * kMillisecond);
    if (spec.kind == OpKind::kRestart && rec.attempted &&
        !rec.result.stats.success) {
      NoteRunningAfterFailedRestart(c, members, rec);
    }
    records.push_back(std::move(rec));
  }

  if (mutation != Mutation::kAbandonWorkload) {
    c.sim().RunWhile(
        [&] {
          w.Sample(c);
          return w.Completed();
        },
        c.sim().Now() + 600 * kSecond);
  }
  w.Sample(c);

  if (mutation == Mutation::kLeakPartialImage) {
    c.fs().WriteFile(std::string(kGenRoot) + "/gen_999998/pod_1.img",
                     Bytes{0xde, 0xad});
  }

  obs::TraceQuery query(c.sim().tracer());
  RunContext ctx;
  ctx.scenario = &scenario;
  ctx.cluster = &c;
  ctx.trace = &query;
  ctx.ops = std::move(records);
  ctx.workload = w.Result();
  ctx.gen_root = kGenRoot;
  ctx.member_pod_ips = {w.ip_a, w.ip_b};

  RunResult result;
  result.scenario = scenario;
  result.violations = oracle_.Check(ctx);
  result.passed = result.violations.empty();
  if (!result.passed) {
    result.trace_jsonl = c.sim().tracer().ExportJsonl();
    obs::causal::FlightTrigger trigger;
    trigger.ts = c.sim().Now();
    for (const OpRecord& r : ctx.ops) {
      if (r.result.stats.op_id != 0) trigger.op = r.result.stats.op_id;
    }
    trigger.kind = "invariant-violation";
    trigger.detail = result.violations.front().invariant + ": " +
                     result.violations.front().detail;
    trigger.repro = scenario.Encode();
    obs::causal::FlightRecorderOptions fr;
    // The oracle fires at end of run, which can be long after the faulty
    // op: keep the whole (ring-bounded) history in scope and let the
    // event cap bound the artifact instead.
    fr.window = trigger.ts;
    fr.max_events = 16384;
    std::vector<obs::TraceEvent> window(c.sim().tracer().events().begin(),
                                        c.sim().tracer().events().end());
    result.flight_record = obs::causal::FlightRecorder::Capture(
        std::move(window), trigger, fr);
  }
  std::ostringstream summary;
  summary << scenario.Summary() << " -> "
          << (result.passed ? "ok"
                            : std::to_string(result.violations.size()) +
                                  " violation(s)");
  result.summary = summary.str();
  result.verdict = "seed=" + std::to_string(scenario.seed) +
                   (result.passed ? " ok" : " FAIL");
  for (const Violation& v : result.violations) {
    result.verdict += " violation=" + v.invariant;
  }
  result.verdict += " " + scenario.Encode();
  return result;
}

}  // namespace cruz::check
