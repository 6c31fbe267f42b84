#include "ckpt/live_migrate.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "common/error.h"
#include "common/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace cruz::ckpt {

const char* MigrateModeName(MigrateMode mode) {
  switch (mode) {
    case MigrateMode::kStopAndCopy: return "stop-and-copy";
    case MigrateMode::kPreCopy: return "pre-copy";
    case MigrateMode::kPostCopy: return "post-copy";
    case MigrateMode::kHybrid: return "hybrid";
  }
  return "unknown";
}

namespace {

DurationNs TransferTime(std::uint64_t bytes) {
  return bytes * kSecond / kMigrateBytesPerSec;
}

// A raw (v1) image is its bare kernel state plus, per page, the page
// index and the page: full = bare + (kPageIndexBytes + kPageSize) * pages.
constexpr std::uint64_t kPageIndexBytes = sizeof(std::uint64_t);

// Sums `bytes(memory)` over the pod's processes.
template <typename Fn>
std::uint64_t PodBytes(pod::PodManager& pods, os::PodId id, Fn bytes) {
  os::Os& os = pods.node().os();
  std::uint64_t total = 0;
  for (os::Pid pid : os.PodProcesses(id)) {
    if (os::Process* proc = os.FindProcess(pid)) total += bytes(proc->memory());
  }
  return total;
}

std::uint64_t ResidentBytes(pod::PodManager& pods, os::PodId id) {
  return PodBytes(pods, id, [](os::Memory& m) { return m.ResidentBytes(); });
}

std::uint64_t DirtyBytes(pod::PodManager& pods, os::PodId id) {
  return PodBytes(pods, id, [](os::Memory& m) {
    return m.DirtyPageCount() * os::kPageSize;
  });
}

// Counts the pod's current dirty bytes and clears the tracking, starting
// the next pre-copy window. The pod keeps running.
std::uint64_t SweepDirtyBytes(pod::PodManager& pods, os::PodId id) {
  return PodBytes(pods, id, [](os::Memory& m) {
    std::uint64_t bytes = m.DirtyPageCount() * os::kPageSize;
    m.ClearDirty();
    return bytes;
  });
}

// Migrate op ids live in their own namespace (bit 62 set) so they can
// never collide with coordinator op ids in shared traces.
std::uint64_t NextMigrateOpId(sim::Simulator& sim) {
  obs::Counter& ops = sim.metrics().counter("migrate.ops_total");
  ops.Add();
  return (1ull << 62) | ops.value();
}

// One in-flight migration, from the first pre-copy round (or hot window)
// to completion. After the stop it is also the post-copy page server:
// the source's frozen capture, the target's residue bookkeeping, and the
// demand/push protocol state. Lives until the migration completes.
struct Migration : std::enable_shared_from_this<Migration> {
  using PageKey = std::pair<os::Pid, std::uint64_t>;  // (vpid, page index)

  sim::Simulator* sim = nullptr;
  pod::PodManager* source = nullptr;
  pod::PodManager* target = nullptr;
  os::PodId pod_id = os::kNoPod;
  LiveMigrateOptions options;
  LiveMigrateStats stats;
  TimeNs started = 0;
  TimeNs stop_time = 0;
  obs::SpanId op_span = obs::kInvalidSpanId;
  obs::SpanId downtime_span = obs::kInvalidSpanId;
  LiveMigrator::DoneFn done;

  // Post-copy and hybrid leave pages on the source and demand-page them.
  bool Paged() const {
    return stats.mode == MigrateMode::kPostCopy ||
           stats.mode == MigrateMode::kHybrid;
  }

  // Fault-hook attribution: page requests travel target -> source, page
  // responses source -> target.
  std::string source_node;
  std::string target_node;
  std::uint32_t source_ip = 0;
  std::uint32_t target_ip = 0;

  // The capture taken at the stop. Paged modes keep it as the frozen
  // page store until full residency; a request arriving later is
  // refused, never served.
  PodSnapshot frozen;
  bool released = false;

  std::map<os::Pid, os::Pid> real_pid;  // vpid -> real pid on the target
  std::map<os::Pid, std::set<std::uint64_t>> residue;  // not yet resident
  std::uint64_t remaining = 0;
  bool finished = false;

  std::set<PageKey> demand_pending;         // fault outstanding
  std::map<PageKey, TimeNs> fault_started;  // degradation accounting
  std::map<PageKey, obs::SpanId> fetch_span;
  std::map<PageKey, TimeNs> push_sent;  // in-flight pushes (loss re-push)

  // One pre-copy round: copy this round's pages while the pod runs
  // (round 1 the whole resident set, later rounds what the previous
  // round dirtied), then either run another round or stop.
  void PrecopyRound() {
    std::uint64_t round_bytes;
    if (stats.rounds == 0) {
      SweepDirtyBytes(*source, pod_id);  // start the first dirty window
      round_bytes = ResidentBytes(*source, pod_id);
    } else {
      round_bytes = SweepDirtyBytes(*source, pod_id);
    }
    stats.rounds += 1;
    stats.precopy_bytes += round_bytes;
    DurationNs transfer = TransferTime(round_bytes);
    stats.round_breakdown.push_back(MigrateRound{round_bytes, transfer});
    auto self = shared_from_this();
    sim->Schedule(transfer, [self] {
      if (self->source->Find(self->pod_id) == nullptr) return;  // vanished
      // Peek at what got dirtied while this round was in flight.
      std::uint64_t dirty_now = DirtyBytes(*self->source, self->pod_id);
      if (dirty_now > kStopThresholdBytes &&
          self->stats.rounds < kMaxPrecopyRounds) {
        self->PrecopyRound();
        return;
      }
      // Pre-copy moves the dirty remainder during the stop; hybrid
      // demand-pages it.
      if (self->stats.mode == MigrateMode::kPreCopy) {
        self->stats.final_bytes = dirty_now;
      }
      self->Stop();
    });
  }

  // The one stop of every mode: capture once, charge what crosses the
  // network while the pod is stopped, and restore on the target after
  // that transfer. `stats.final_bytes` holds the page payload the mode
  // moves during the stop (stop-and-copy: every page; pre-copy: the
  // final dirty set); post-copy's hot set is charged here.
  void Stop() {
    os::Os& src_os = source->node().os();
    stop_time = sim->Now();
    downtime_span = sim->tracer().BeginSpan(
        "migrate", "migrate.downtime",
        obs::TraceAttrs{}
            .Agent(src_os.node_name())
            .Op(stats.op_id)
            .Pod(pod_id)
            .Phase("stop-copy"));
    CheckpointEngine::StopPod(*source, pod_id);

    // The pages left behind, sampled before the capture resets the dirty
    // baseline. Post-copy moves the hot (dirty) set and leaves the rest;
    // hybrid already pre-copied the clean pages and leaves the dirty ones.
    if (Paged()) {
      bool leave_dirty = stats.mode == MigrateMode::kHybrid;
      for (os::Pid pid : src_os.PodProcesses(pod_id)) {
        os::Process* proc = src_os.FindProcess(pid);
        if (proc == nullptr) continue;
        std::set<std::uint64_t>& miss =
            residue[source->ToVirtualPid(pod_id, pid)];
        for (const auto& [index, page] : proc->memory().pages()) {
          if (proc->memory().IsDirty(index) == leave_dirty) {
            miss.insert(index);
          }
        }
        remaining += miss.size();
      }
    }

    frozen = CheckpointEngine::SnapshotPod(*source, pod_id, CaptureOptions{});
    PodCheckpoint ck = frozen.Materialize();
    std::uint64_t resident_pages = 0;
    for (ProcessRecord& p : ck.processes) {
      const std::set<std::uint64_t>& miss = residue[p.vpid];
      std::erase_if(p.pages, [&miss](const PageRecord& page) {
        return miss.count(page.page_index) != 0;
      });
      resident_pages += p.pages.size();
    }
    // The stop moves the bare kernel structures (registers, fd tables,
    // connections, pipes, IPC — the image with its pages removed), one
    // page index per missing page (the directory the target faults on),
    // and whatever of each resident page record has not crossed yet:
    // its index for the stop-bounded modes (the payload is in
    // final_bytes), the whole record for post-copy's hot set, nothing
    // for hybrid's pre-copied pages.
    std::uint64_t resident_record_bytes = kPageIndexBytes;
    if (stats.mode == MigrateMode::kPostCopy) {
      resident_record_bytes += os::kPageSize;
    } else if (stats.mode == MigrateMode::kHybrid) {
      resident_record_bytes = 0;
    }
    std::uint64_t bare = frozen.meta().Serialize(/*compress=*/false).size();
    stats.final_bytes += bare + kPageIndexBytes * remaining +
                         resident_record_bytes * resident_pages;
    if (Paged()) {
      stats.pages_total = resident_pages + remaining;
      stats.pages_resident_at_resume = resident_pages;
    } else {
      frozen = PodSnapshot{};  // nothing left to serve
    }

    if (Paged() && options.test_resume_both_sides) {
      // Breaking mutation: the source keeps its (running!) copy.
      CheckpointEngine::ResumePod(*source, pod_id);
    } else {
      source->DestroyPod(pod_id);
    }
    auto self = shared_from_this();
    sim->Schedule(TransferTime(stats.final_bytes),
                  [self, ck = std::move(ck)] { self->Resume(ck); });
  }

  // Target side of the stop: restore with the residue marked missing,
  // resume, and start serving the residue (or finish if there is none).
  void Resume(const PodCheckpoint& ck) {
    os::Os& os = target->node().os();
    os::PodId restored = CheckpointEngine::RestorePod(*target, ck);
    if (Paged()) {
      for (const ProcessRecord& p : ck.processes) {
        os::Pid real = target->ToRealPid(restored, p.vpid);
        if (real == os::kNoPid) continue;
        os::Process* proc = os.FindProcess(real);
        if (proc == nullptr) continue;
        real_pid[p.vpid] = real;
        for (std::uint64_t page : residue[p.vpid]) {
          proc->memory().MarkMissing(page);
        }
        auto self = shared_from_this();
        os::Pid vpid = p.vpid;
        os.SetPageFaultHandler(real, [self, vpid](std::uint64_t page) {
          self->OnFault(vpid, page);
        });
      }
    }
    CheckpointEngine::ResumePod(*target, restored);
    stats.pod = restored;
    stats.downtime = sim->Now() - stop_time;
    sim->tracer().EndSpan(downtime_span);
    if (Paged()) {
      sim->tracer().Instant("migrate", "migrate.postcopy.resume",
                            obs::TraceAttrs{}
                                .Op(stats.op_id)
                                .Pod(restored)
                                .Arg("resident",
                                     stats.pages_resident_at_resume)
                                .Arg("residue", remaining));
    }
    if (remaining == 0) {
      Finish();
    } else {
      SchedulePush();
    }
  }

  bool IsMissing(const PageKey& key) const {
    auto it = residue.find(key.first);
    return it != residue.end() && it->second.count(key.second) != 0;
  }

  fault::MessageFate RequestFate() {
    return options.injector == nullptr
               ? fault::MessageFate{}
               : options.injector->OnControlSend(target_node, source_ip,
                                                kPageRequestMsgByte);
  }
  fault::MessageFate ResponseFate() {
    return options.injector == nullptr
               ? fault::MessageFate{}
               : options.injector->OnControlSend(source_node, target_ip,
                                                kPageResponseMsgByte);
  }

  // Missing-page trap: the target OS invokes this with the faulting
  // process already parked.
  void OnFault(os::Pid vpid, std::uint64_t page) {
    if (finished) return;
    PageKey key{vpid, page};
    fault_started.emplace(key, sim->Now());
    fetch_span.emplace(
        key, sim->tracer().BeginSpan(
                 "migrate", "migrate.postcopy.fetch",
                 obs::TraceAttrs{}
                     .Agent(target_node)
                     .Op(stats.op_id)
                     .Pod(pod_id)
                     .Phase("postcopy-fetch")
                     .Arg("vpid", static_cast<std::uint64_t>(vpid))
                     .Arg("page", page)));
    if (sim->tracer().VerboseSample()) {
      sim->tracer().Instant("migrate", "migrate.postcopy.fault",
                            obs::TraceAttrs{}
                                .Op(stats.op_id)
                                .Pod(pod_id)
                                .Arg("page", page));
    }
    SendRequest(key, /*retransmit=*/false);
  }

  // Target -> source demand fetch, with a retransmit timer.
  void SendRequest(PageKey key, bool retransmit) {
    if (finished || !IsMissing(key)) return;
    if (retransmit) stats.requests_retransmitted += 1;
    demand_pending.insert(key);
    auto self = shared_from_this();
    fault::MessageFate fate = RequestFate();
    int deliveries = fate.drop ? 0 : (fate.duplicate ? 2 : 1);
    for (int i = 0; i < deliveries; ++i) {
      sim->Schedule(kPageLatency + fate.delay,
                    [self, key] { self->ServeRequest(key); });
    }
    sim->Schedule(kPageRequestTimeout, [self, key] {
      if (self->finished || !self->IsMissing(key)) return;
      if (self->demand_pending.count(key) == 0) return;
      self->SendRequest(key, /*retransmit=*/true);
    });
  }

  // A crashed source machine serves nothing: its frozen image died with
  // it. Demand fetches go unanswered (the target stalls, cleanly) and
  // the background push stops. Latched — a later reboot brings back an
  // empty machine, not the frozen image.
  mutable bool source_dead = false;
  bool SourceDead() const {
    if (!source_dead && source->node().failed()) source_dead = true;
    return source_dead;
  }

  // Source side: a request arrived at the frozen page store.
  void ServeRequest(PageKey key) {
    if (SourceDead()) return;
    if (released) {
      // The fence: after release the source refuses — it can no longer
      // serve, and counting proves it never does (late_serves == 0).
      sim->metrics().counter("migrate.postcopy.late_requests_total").Add();
      return;
    }
    SendResponse(key, /*demand=*/true);
  }

  // Source -> target page delivery (demand response or background push).
  void SendResponse(PageKey key, bool demand) {
    if (released) {
      stats.late_serves += 1;
      return;
    }
    if (frozen.FindPage(key.first, key.second) == nullptr) return;
    if (options.test_drop_page_response) {
      // Breaking mutation: the page is accounted as delivered but never
      // sent, so "done" fires with pages still missing on the target.
      Account(key, demand);
      return;
    }
    fault::MessageFate fate = ResponseFate();
    int deliveries = fate.drop ? 0 : (fate.duplicate ? 2 : 1);
    auto self = shared_from_this();
    for (int i = 0; i < deliveries; ++i) {
      sim->Schedule(kPageLatency + fate.delay, [self, key, demand] {
        self->DeliverPage(key, demand);
      });
    }
  }

  // Target side: page content arrived.
  void DeliverPage(PageKey key, bool demand) {
    if (finished) {
      stats.duplicate_fills_dropped += 1;
      return;
    }
    const os::MemorySnapshot::Page* content =
        frozen.FindPage(key.first, key.second);
    if (content == nullptr) return;
    auto pit = real_pid.find(key.first);
    if (pit == real_pid.end()) return;
    os::Os& os = target->node().os();
    if (!os.FillPage(pit->second, key.second,
                     cruz::ByteSpan(content->data(), content->size()))) {
      stats.duplicate_fills_dropped += 1;
      return;
    }
    Account(key, demand);
  }

  // A page became resident (or, under the drop-response mutation, was
  // falsely accounted as such).
  void Account(PageKey key, bool demand) {
    auto rit = residue.find(key.first);
    if (rit == residue.end() || rit->second.erase(key.second) == 0) return;
    remaining -= 1;
    push_sent.erase(key);
    bool was_pending = demand_pending.erase(key) != 0;
    if (demand) {
      stats.pages_fetched_on_demand += 1;
    } else {
      stats.pages_pushed += 1;
    }
    if (was_pending) {
      auto ts = fault_started.find(key);
      if (ts != fault_started.end()) {
        DurationNs stall = sim->Now() - ts->second;
        stats.degradation += stall;
        sim->metrics()
            .histogram("migrate.postcopy.fault_latency_ns")
            .Record(static_cast<std::uint64_t>(stall));
        fault_started.erase(ts);
      }
      auto sp = fetch_span.find(key);
      if (sp != fetch_span.end()) {
        sim->tracer().EndSpan(sp->second);
        fetch_span.erase(sp);
      }
    }
    if (remaining == 0) Finish();
  }

  // Background active push: drains the residue sequentially, skipping
  // pages with an outstanding demand fetch or a recent in-flight push.
  void SchedulePush() {
    auto self = shared_from_this();
    sim->Schedule(kPushInterval, [self] { self->PushNext(); });
  }

  void PushNext() {
    if (finished || SourceDead()) return;
    TimeNs now = sim->Now();
    for (const auto& [vpid, pages] : residue) {
      for (std::uint64_t page : pages) {
        PageKey key{vpid, page};
        if (demand_pending.count(key) != 0) continue;
        auto sent = push_sent.find(key);
        if (sent != push_sent.end() &&
            now - sent->second < kPageRequestTimeout) {
          continue;  // in flight; re-eligible if the response was lost
        }
        push_sent[key] = now;
        SendResponse(key, /*demand=*/false);
        SchedulePush();
        return;
      }
    }
    if (remaining > 0) SchedulePush();  // everything in flight: poll again
  }

  // Completion: every page is resident on the target. Releases the
  // frozen capture, detaches the fault handlers, and reports. This is
  // the only place the source lets go of its copy.
  void Finish() {
    if (finished) return;
    finished = true;
    released = true;
    frozen = PodSnapshot{};
    os::Os& os = target->node().os();
    for (const auto& [vpid, real] : real_pid) {
      os.ClearPageFaultHandler(real);
    }
    stats.total_duration = sim->Now() - started;
    if (Paged()) {
      sim->tracer().EndSpan(
          op_span, {{"pages_fetched",
                     std::to_string(stats.pages_fetched_on_demand)},
                    {"pages_pushed", std::to_string(stats.pages_pushed)}});
      sim->metrics()
          .counter("migrate.postcopy.pages_fetched_total")
          .Add(stats.pages_fetched_on_demand);
      sim->metrics()
          .counter("migrate.postcopy.pages_pushed_total")
          .Add(stats.pages_pushed);
    } else {
      sim->tracer().EndSpan(op_span);
    }
    CRUZ_INFO("migrate") << "pod " << stats.pod << " migrated ("
                         << MigrateModeName(stats.mode)
                         << "): rounds=" << stats.rounds << " downtime="
                         << ToMillis(stats.downtime) << "ms degradation="
                         << ToMillis(stats.degradation) << "ms fetched="
                         << stats.pages_fetched_on_demand << " pushed="
                         << stats.pages_pushed;
    if (done) done(stats);
  }
};

}  // namespace

void LiveMigrator::MigrateWithMode(pod::PodManager& source,
                                   pod::PodManager& target, os::PodId pod,
                                   MigrateMode mode,
                                   const LiveMigrateOptions& options,
                                   DoneFn done) {
  CRUZ_CHECK(source.Find(pod) != nullptr, "MigrateWithMode: no such pod");
  os::Os& src_os = source.node().os();
  os::Os& dst_os = target.node().os();
  auto m = std::make_shared<Migration>();
  m->sim = &src_os.sim();
  m->source = &source;
  m->target = &target;
  m->pod_id = pod;
  m->options = options;
  m->done = std::move(done);
  m->source_node = source.node().name();
  m->target_node = target.node().name();
  if (!src_os.stack().interfaces().empty()) {
    m->source_ip = src_os.stack().interfaces().front().ip.value;
  }
  if (!dst_os.stack().interfaces().empty()) {
    m->target_ip = dst_os.stack().interfaces().front().ip.value;
  }
  m->stats.mode = mode;
  m->stats.op_id = NextMigrateOpId(*m->sim);
  // The op span is charged to the source node (the migrator runs there);
  // attribution reads the agent attr to name a straggler node.
  m->op_span = m->sim->tracer().BeginSpan(
      "migrate", std::string("migrate.op.") + MigrateModeName(mode),
      obs::TraceAttrs{}.Agent(src_os.node_name()).Op(m->stats.op_id).Pod(pod));
  m->started = m->sim->Now();
  switch (mode) {
    case MigrateMode::kStopAndCopy:
      m->stats.final_bytes = ResidentBytes(source, pod);
      m->Stop();
      return;
    case MigrateMode::kPreCopy:
    case MigrateMode::kHybrid:
      m->PrecopyRound();
      return;
    case MigrateMode::kPostCopy:
      // Hot-set observation window: clear the dirty tracking, let the pod
      // run briefly, and take what it dirtied as the working-set estimate.
      SweepDirtyBytes(source, pod);
      m->sim->Schedule(options.hot_window, [m] {
        if (m->source->Find(m->pod_id) == nullptr) return;  // pod vanished
        m->Stop();
      });
      return;
  }
}

}  // namespace cruz::ckpt
