#include "coord/agent.h"

#include "ckpt/store/tiered_store.h"
#include "common/error.h"
#include "common/log.h"
#include "coord/phase_driver.h"
#include "sim/simulator.h"

namespace cruz::coord {

namespace {
// Local operation cost model (gigahertz-era machine, per paper §6).
constexpr DurationNs kFilterConfigCost = 10 * kMicrosecond;
constexpr DurationNs kPerProcessStopCost = 20 * kMicrosecond;
constexpr DurationNs kPerProcessResumeCost = 10 * kMicrosecond;
constexpr std::uint64_t kSerializeBytesPerSec = 1 * kGiB;
}  // namespace

CheckpointAgent::CheckpointAgent(os::Node& node, pod::PodManager& pods,
                                 ckpt::TieredStore& store)
    : Participant(node, PhaseDriver::kAgents, "agent",
                  /*sent_metric=*/nullptr, /*resend_continue_done=*/true),
      pods_(pods),
      store_(store) {}

void CheckpointAgent::EndOpSpans(const char* outcome) {
  obs::Tracer& tracer = node_.os().sim().tracer();
  std::vector<std::pair<std::string, std::string>> args = {
      {"outcome", outcome}};
  tracer.EndSpan(op_.save_span, args);
  op_.save_span = obs::kInvalidSpanId;
  tracer.EndSpan(op_.downtime_span, args);
  op_.downtime_span = obs::kInvalidSpanId;
  tracer.EndSpan(op_.continue_span, args);
  op_.continue_span = obs::kInvalidSpanId;
}

void CheckpointAgent::Crash() {
  if (crashed()) return;
  port_.set_deaf(true);
  EndOpSpans("agent-crash");
  node_.os().sim().tracer().Instant(
      "agent", "agent.crash", obs::TraceAttrs{}.Agent(node_.name()));
  CRUZ_WARN("agent") << node_.name() << ": agent process CRASHED";
}

void CheckpointAgent::Reset() {
  port_.set_deaf(false);
  if (active_) {
    // Recover the wreckage of the interrupted op: the pod may be stopped
    // behind a drop filter, and a checkpoint may have left a partial
    // image that will never be committed.
    EndOpSpans("agent-reset");
    ReleasePod();
    RemoveDropFilter();
    if (!op_.image_path.empty()) {
      DiscardCheckpointImage(op_.pod, op_.image_path);
    }
  }
  op_ = ActiveOp{};
  // Volatile agent state does not survive a process restart.
  Forget();
  last_image_.clear();
  CRUZ_INFO("agent") << node_.name() << ": agent process restarted";
}

bool CheckpointAgent::Accept(const CoordMessage& m) {
  // After the receive instant: even a message that crashes the agent was
  // delivered, and the flight recorder wants that edge on record.
  if (port_.fault() != nullptr &&
      port_.fault()->CrashAgentOnMessage(node_.name(),
                                         static_cast<std::uint8_t>(m.type))) {
    Crash();
    return false;
  }
  return true;
}

void CheckpointAgent::Serve(const CoordMessage& m) {
  if (m.type == MsgType::kRestart) {
    StartRestart(m);
    return;
  }
  op_ = ActiveOp{};
  op_.pod = m.pod_id;
  StartLocalCheckpoint(m);
}

void CheckpointAgent::ReleasePod() {
  if (op_.restored && !test_resume_restored_) {
    pods_.DestroyPod(op_.pod);
  } else {
    ckpt::CheckpointEngine::ResumePod(pods_, op_.pod);
  }
}

void CheckpointAgent::InstallDropFilter(net::Ipv4Address pod_ip) {
  if (!test_skip_filter_) {
    op_.filter_id = node_.stack().AddFilter(
        [pod_ip](const net::Ipv4Header& pkt) {
          return pkt.src == pod_ip || pkt.dst == pod_ip;
        });
  }
  node_.os().sim().tracer().Instant(
      "agent", "agent.filter.install",
      obs::TraceAttrs{}.Op(op_id()).Agent(node_.name()).Pod(op_.pod));
}

void CheckpointAgent::RemoveDropFilter() {
  if (op_.filter_id != 0) {
    node_.stack().RemoveFilter(op_.filter_id);
    op_.filter_id = 0;
    node_.os().sim().tracer().Instant(
        "agent", "agent.filter.remove",
        obs::TraceAttrs{}.Op(op_id()).Agent(node_.name()).Pod(op_.pod));
  }
}

void CheckpointAgent::FailLocalOp(const char* why) {
  active_ = false;
  CRUZ_WARN("agent") << node_.name() << ": op " << op_id()
                     << " failed locally: " << why;
  node_.os().sim().tracer().Instant(
      "agent", "agent.failed",
      obs::TraceAttrs{}.Op(op_id()).Agent(node_.name()).Pod(
          request_.pod_id).Arg("why", why));
  node_.os().sim().metrics().counter("agent.local_failures_total").Add();
  Send(coordinator_, Reply(MsgType::kFailed));
}

void CheckpointAgent::DiscardCheckpointImage(os::PodId pod,
                                             const std::string& path) {
  // Every tier (local, partner, pending netfs flush): an aborted op
  // leaves zero orphan bytes anywhere.
  if (!path.empty()) store_.RemoveEverywhere(path);
  // The deleted image may be the head of this pod's incremental chain;
  // force the next capture to be full rather than referencing it.
  last_image_.erase(pod);
}

void CheckpointAgent::AnnounceCommDisabled() {
  Send(coordinator_, Reply(MsgType::kCommDisabled));
  node_.os().sim().tracer().Instant(
      "agent", "agent.comm_disabled",
      obs::TraceAttrs{}.Op(op_id()).Agent(node_.name()).Pod(op_.pod));
}

const char* CheckpointAgent::StoreImage(const std::string& path,
                                        cruz::Bytes image, bool tiered,
                                        DurationNs* duration) {
  SysResult w = store_.CommitImage(node_, path, std::move(image), tiered,
                                   &op_.replicas, duration);
  if (SysOk(w)) return nullptr;
  return SysErrno(w) == CRUZ_ENOSPC ? "disk full" : "image write refused";
}

void CheckpointAgent::CountImage(std::uint64_t image_bytes,
                                 std::uint64_t state_bytes) {
  obs::MetricsRegistry& metrics = node_.os().sim().metrics();
  metrics.counter("ckpt.images_written_total").Add();
  metrics.counter("ckpt.image_bytes_total").Add(image_bytes);
  if (state_bytes > 0) {
    metrics.gauge("ckpt.codec_ratio")
        .Set(static_cast<double>(image_bytes) /
             static_cast<double>(state_bytes));
  }
}

void CheckpointAgent::FailSave(const char* why) {
  EndOpSpans("save-failed");
  DiscardCheckpointImage(op_.pod, op_.image_path);
  if (!op_.resumed) {
    ckpt::CheckpointEngine::ResumePod(pods_, op_.pod);
    RemoveDropFilter();
  }
  FailLocalOp(why);
}

void CheckpointAgent::BeginSaveSpans(const char* mode,
                                     const ckpt::CaptureStats& stats,
                                     const std::optional<cruz::Bytes>& image) {
  obs::TraceAttrs save;
  save.Op(op_id())
      .Phase("save")
      .Agent(node_.name())
      .Pod(op_.pod)
      .Arg("mode", mode)
      .Arg("state_bytes", stats.state_bytes)
      .Arg("pages", stats.snapshot_pages);
  if (image.has_value()) save.Arg("image_bytes", image->size());
  obs::Tracer& tracer = node_.os().sim().tracer();
  op_.save_span = tracer.BeginSpan("agent", "agent.save", std::move(save));
  op_.downtime_span = tracer.BeginSpan(
      "agent", "agent.downtime",
      obs::TraceAttrs{}
          .Op(op_id())
          .Phase("downtime")
          .Agent(node_.name())
          .Pod(op_.pod));
}

void CheckpointAgent::EndDowntime() {
  op_.resume_ready = true;
  node_.os().sim().tracer().EndSpan(op_.downtime_span);
  op_.downtime_span = obs::kInvalidSpanId;
  node_.os().sim().metrics().histogram("agent.downtime_us")
      .Record(op_.downtime / kMicrosecond);
}

void CheckpointAgent::ReportDone() {
  op_.resume_ready = true;
  CoordMessage done = Reply(MsgType::kDone);
  done.local_duration = op_.local_duration;
  done.downtime = op_.downtime;
  done.replicas = op_.replicas;
  done.restore_source = op_.restore_source;
  SendDone(done);
  MaybeResume();
  Complete();
}

// ---------------------------------------------------------------------------
// Checkpoint
// ---------------------------------------------------------------------------

void CheckpointAgent::StartLocalCheckpoint(const CoordMessage& m) {
  pod::Pod* pod = pods_.Find(m.pod_id);
  if (pod == nullptr) {
    CRUZ_WARN("agent") << node_.name() << ": checkpoint for unknown pod "
                       << m.pod_id;
    FailLocalOp("unknown pod");
    return;
  }
  // A pod mid post-copy migration still has demand-paged (missing)
  // pages; its memory cannot be snapshotted until the residue arrives.
  // Fail the op cleanly instead of capturing a hole-filled image.
  for (os::Pid pid : node_.os().PodProcesses(m.pod_id)) {
    os::Process* proc = node_.os().FindProcess(pid);
    if (proc != nullptr && proc->memory().HasMissingPages()) {
      FailLocalOp("pod is demand-paging (migration)");
      return;
    }
  }
  // Step 1: configure the packet filter; in-flight pod traffic is
  // dropped, not drained (TCP retransmits it after the resume).
  InstallDropFilter(pod->ip);

  // Step 2: stop the pod's processes and snapshot its state. Kernel state
  // is extracted eagerly, memory is frozen as shared COW page handles.
  // The durations below model how long the real extraction, the
  // serialization and the disk write take.
  ckpt::CaptureOptions capture;
  auto previous = last_image_.find(m.pod_id);
  if (m.incremental && previous != last_image_.end()) {
    capture.incremental = true;
    capture.parent_image = previous->second.first;
    capture.generation = previous->second.second + 1;
  }
  ckpt::CaptureStats stats;
  auto serialize = [snap = ckpt::CheckpointEngine::SnapshotPod(
                        pods_, m.pod_id, capture, &stats),
                    compress = m.compress] {
    return snap.Materialize().Serialize(compress);
  };
  // From here on the snapshot has consumed the dirty bits: an abort or a
  // failed save must discard the image path and the incremental baseline.
  op_.image_path = m.image_path;
  ++checkpoints_served_;

  // The mode decides when the image is serialized and what the serialize
  // window bills. Stop-the-world: the pod stays stopped, so its image is
  // final now and the window bills the image's size. Copy-on-write (§5.2):
  // the pod runs on, the frozen snapshot is serialized at the write
  // instant, and the window bills the state bytes.
  const bool cow = m.copy_on_write;
  std::optional<cruz::Bytes> image;
  if (!cow) image = serialize();
  const std::uint64_t billed = image ? image->size() : stats.state_bytes;
  const DurationNs capture_cost = kFilterConfigCost +
                                  stats.processes * kPerProcessStopCost +
                                  stats.network_lock_hold;
  const DurationNs window =
      capture_cost + billed * kSecond / kSerializeBytesPerSec;
  op_.local_duration = window;  // + disk, known at the write instant
  op_.downtime = capture_cost;  // stop-the-world: the whole save, below
  BeginSaveSpans(cow ? "copy-on-write" : "stop-the-world", stats, image);

  // The mode's other decision: when the pod may resume. Copy-on-write:
  // as soon as the snapshot exists; its writes from here on hit COW
  // faults instead of the frozen pages. Stop-the-world: at <done>.
  const std::uint64_t op_id = this->op_id();
  if (cow) {
    node_.os().sim().Schedule(capture_cost, [this, op_id] {
      if (Stale(op_id)) return;
      EndDowntime();
      MaybeResume();
    });
  }

  // Fig. 4 optimization: announce communication-disabled immediately so
  // the coordinator can grant early resume permission (with copy-on-write
  // it overlaps the background save).
  if (m.variant == ProtocolVariant::kOptimized) AnnounceCommDisabled();

  // Write instant, at the end of the serialize window: the file appears
  // in storage now but counts as partial until <done> commits it; an
  // abort or crash before then GCs it.
  node_.os().sim().Schedule(
      window, [this, op_id, cow, serialize = std::move(serialize),
               image = std::move(image), tiered = m.tiered,
               generation = capture.generation,
               state_bytes = stats.state_bytes]() mutable {
        if (Stale(op_id)) return;
        cruz::Bytes bytes = image ? std::move(*image) : serialize();
        const std::uint64_t image_bytes = bytes.size();
        if (port_.fault() != nullptr) {
          // Silent media corruption: the write "succeeds" but the stored
          // bytes differ. Only the CRC check on restore/verify catches it.
          port_.fault()->MaybeCorruptImage(node_.name(), op_.image_path,
                                           bytes);
        }
        DurationNs disk = 0;
        if (const char* why =
                StoreImage(op_.image_path, std::move(bytes), tiered, &disk)) {
          FailSave(why);
          return;
        }
        CountImage(image_bytes, state_bytes);
        op_.local_duration += disk;

        // Step 3, the done instant: the disk write completes.
        node_.os().sim().Schedule(disk, [this, op_id, cow, generation] {
          if (Stale(op_id)) return;
          if (port_.fault() != nullptr &&
              port_.fault()->FailImageWrite(node_.name(), op_.image_path)) {
            // Disk write error: GC the partial image, invalidate the
            // incremental baseline, resume the pod if still stopped, and
            // fail the op. The previous generation stays latest.
            FailSave("image write I/O error");
            return;
          }
          last_image_[op_.pod] = {op_.image_path, generation};
          node_.os().sim().tracer().EndSpan(op_.save_span,
                                            {{"outcome", "ok"}});
          op_.save_span = obs::kInvalidSpanId;
          if (!cow) {
            // Stop-the-world: the pod was stopped for the entire save.
            op_.downtime = op_.local_duration;
            EndDowntime();
          }
          node_.os().sim().metrics().histogram("agent.save_us")
              .Record(op_.local_duration / kMicrosecond);
          ReportDone();
        });
      });
}

// ---------------------------------------------------------------------------
// Restart
// ---------------------------------------------------------------------------

void CheckpointAgent::StartRestart(const CoordMessage& m) {
  // Read through the store's resolver (a tiered image: local → partner →
  // netfs, with rebuild-on-restart), so every link of an incremental
  // chain finds the best intact copy independently.
  ckpt::TieredStore::ResolveResult head;
  // Total bytes read from storage: the image plus any incremental
  // parents the chain resolves through (restore cost model).
  std::uint64_t chain_bytes = 0;
  ckpt::PodCheckpoint ck;
  try {
    ck = ckpt::CheckpointEngine::LoadImageChain(
        store_, &node_, m.image_path, /*trace=*/true, &head, &chain_bytes);
  } catch (const cruz::CruzError& e) {
    // Missing or corrupt (CRC-failing) image on every tier: report
    // instead of going silent so the coordinator can abort and fall back.
    CRUZ_WARN("agent") << node_.name() << ": restart failed: " << e.what();
    FailLocalOp("image unreadable");
    return;
  }

  op_ = ActiveOp{};
  op_.pod = ck.pod_id;

  // Communication is disabled as the FIRST step of restart, before any
  // state is restored: restored TCP state must not transmit until all
  // pods are restored (paper §5).
  InstallDropFilter(ck.ip);

  DurationNs local = kFilterConfigCost +
                     node_.DiskReadDuration(chain_bytes) +
                     chain_bytes * kSecond / kSerializeBytesPerSec;
  op_.local_duration = local;
  ++restarts_served_;

  obs::TraceAttrs restore_attrs;
  restore_attrs.Op(op_id())
      .Phase("restore")
      .Agent(node_.name())
      .Pod(op_.pod)
      .Arg("chain_bytes", chain_bytes);
  // Which tier actually served the head image — this is what
  // cruz_analyze aggregates into the restore-source attribution.
  op_.restore_source = static_cast<std::uint8_t>(head.source);
  restore_attrs.Arg("source", ckpt::TierName(head.source));
  op_.save_span = node_.os().sim().tracer().BeginSpan(
      "agent", "agent.restore", std::move(restore_attrs));

  std::uint64_t op_id = m.op_id;
  node_.os().sim().Schedule(local, [this, op_id, ck = std::move(ck)] {
    if (Stale(op_id)) return;
    // Restore at the end of the load window; the §4.1 send-buffer replay
    // fires here, against the still-installed drop filter.
    ckpt::CheckpointEngine::RestorePod(pods_, ck);
    op_.restored = true;
    node_.os().sim().tracer().EndSpan(op_.save_span, {{"outcome", "ok"}});
    op_.save_span = obs::kInvalidSpanId;
    node_.os().sim().metrics().histogram("agent.restore_us")
        .Record(op_.local_duration / kMicrosecond);
    ReportDone();
  });
}

// ---------------------------------------------------------------------------
// Continue / abort / resume / liveness
// ---------------------------------------------------------------------------

void CheckpointAgent::Continue(net::Endpoint) {
  op_.continue_received = true;
  MaybeResume();
}

void CheckpointAgent::MaybeResume() {
  // Blocking protocol: resume on <continue> (which the coordinator only
  // sends after all <done>s). Optimized protocol: <continue> arrives as
  // soon as communication is disabled everywhere; the agent additionally
  // waits until it is locally safe to resume — after the save (Fig. 4),
  // or already after the in-memory capture with copy-on-write.
  if (!active_ || op_.resumed) return;
  if (!op_.continue_received || !op_.resume_ready) return;
  op_.resumed = true;

  obs::Tracer& tracer = node_.os().sim().tracer();
  op_.continue_span = tracer.BeginSpan(
      "agent", "agent.continue",
      obs::TraceAttrs{}
          .Op(op_id())
          .Phase("continue")
          .Agent(node_.name())
          .Pod(op_.pod));
  tracer.Instant("agent", "agent.resume",
                 obs::TraceAttrs{}.Op(op_id()).Agent(node_.name()).Pod(
                     op_.pod));
  ckpt::CheckpointEngine::ResumePod(pods_, op_.pod);
  RemoveDropFilter();
  DurationNs resume_cost =
      kFilterConfigCost +
      pods_.node().os().PodProcesses(op_.pod).size() * kPerProcessResumeCost;

  const std::uint64_t op_id = this->op_id();
  node_.os().sim().Schedule(resume_cost, [this, op_id, resume_cost] {
    if (Stale(op_id)) return;
    node_.os().sim().tracer().EndSpan(op_.continue_span);
    op_.continue_span = obs::kInvalidSpanId;
    CoordMessage done = Reply(MsgType::kContinueDone);
    done.local_duration = resume_cost;
    SendContinueDone(done);
    Complete();
  });
}

void CheckpointAgent::Cancel(bool) {
  // Release the pod as if nothing happened, and delete the partially
  // written image: an aborted checkpoint must leave no trace in storage.
  EndOpSpans("aborted");
  node_.os().sim().tracer().Instant(
      "agent", "agent.abort",
      obs::TraceAttrs{}.Op(op_id()).Agent(node_.name()).Pod(op_.pod));
  ReleasePod();
  RemoveDropFilter();
  if (!op_.image_path.empty()) {
    DiscardCheckpointImage(op_.pod, op_.image_path);
  }
  active_ = false;
}

void CheckpointAgent::AbortCompleted() {
  // This agent finished its local part, but the op aborted globally
  // (another member failed): its committed-looking image is garbage.
  if (op_.image_path.empty()) return;
  DiscardCheckpointImage(op_.pod, op_.image_path);
  op_.image_path.clear();
}

}  // namespace cruz::coord
