// Per-node Checkpoint Agent (paper Fig. 2).
//
// The agent is a kernel-space service on each machine. For a checkpoint it
// (1) configures the packet filter to silently drop all traffic to/from
// the local pod, (2) stops the pod's processes and takes the local
// checkpoint (including live TCP state), (3) reports <done>, (4) on
// <continue> resumes the processes and removes the filter. Restart runs
// the identical protocol with restore instead of save; communication is
// disabled *before* restoring so replayed TCP transmissions cannot reach
// peers whose state is not yet restored (paper §5).
//
// The agent also implements the Fig. 4 optimized variant (resume as soon
// as the local save completes, once the coordinator confirms communication
// is disabled everywhere). It never talks to another agent: no channel is
// flushed, which is what keeps an op at O(N) messages (§5.2).
//
// Local operation costs are modeled explicitly: per-process stop cost, the
// network-stack lock hold while socket state is extracted, image
// serialization at memory bandwidth, and the dominant disk write/read
// time. The agent reports its local duration in <done>, which is how the
// coordinator separates local work from coordination overhead (§6).
//
// Failure model: the agent keeps the receiver rules every participant
// keeps (coord/participant.h: epoch and abort fencing, supersede, the
// reply cache, <ping>/<pong>), reports local failures (<failed>) instead
// of going silent, deletes its partial image when an op aborts, and can
// be crashed/reset by the fault-injection framework — Crash() models the
// agent process dying (it stops responding until Reset(), which performs
// the recovery a restarted agent would: resume the pod, or destroy one a
// restart rebuilt, drop the filter, discard the partial image).
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "ckpt/engine.h"
#include "ckpt/store/replica.h"
#include "coord/message.h"
#include "coord/participant.h"
#include "fault/fault.h"
#include "obs/trace.h"
#include "os/node.h"
#include "pod/pod.h"

namespace cruz::ckpt {
class TieredStore;
}  // namespace cruz::ckpt

namespace cruz::coord {

class CheckpointAgent : public Participant {
 public:
  // Every image this agent saves or restores goes through `store`.
  CheckpointAgent(os::Node& node, pod::PodManager& pods,
                  ckpt::TieredStore& store);

  os::Node& node() { return node_; }

  std::uint64_t checkpoints_served() const { return checkpoints_served_; }
  std::uint64_t restarts_served() const { return restarts_served_; }

  // Sabotage hook for oracle self-tests: report the drop filter as
  // installed (the trace instant still fires) without actually adding it
  // to the netstack, so pod traffic keeps flowing through the "frozen"
  // window. Never set outside tests.
  void set_test_skip_filter(bool skip) { test_skip_filter_ = skip; }

  // Sabotage hook for oracle self-tests: an aborted restart resumes the
  // pod it restored instead of destroying it. Never set outside tests.
  void set_test_resume_restored(bool v) { test_resume_restored_ = v; }

  // Simulates the agent process dying: all messages are ignored and any
  // in-flight local work is abandoned (the pod stays stopped, the drop
  // filter stays installed — exactly the wreckage a real agent crash
  // leaves behind).
  void Crash();

  // Recovery performed by a restarted agent process: release the pod
  // (ReleasePod), remove the leftover drop filter, delete the partial
  // image of an unfinished checkpoint, and forget all volatile state
  // (incremental baselines, epoch high-water mark, reply cache).
  void Reset();

 private:
  struct ActiveOp {
    os::PodId pod = os::kNoPod;
    std::uint64_t filter_id = 0;
    DurationNs local_duration = 0;
    // How long the pod's processes are stopped: the whole save for a
    // stop-the-world checkpoint, only the snapshot for copy-on-write.
    DurationNs downtime = 0;
    // With copy-on-write the pod may resume before the disk write
    // finishes: resume_ready flips at capture time instead of save time.
    bool resume_ready = false;
    bool continue_received = false;
    bool resumed = false;
    // A restart rebuilt the pod: an abort must destroy it, not resume it.
    bool restored = false;
    // The image this checkpoint op writes; set once the pod is
    // snapshotted, whether or not the file is in storage yet (an abort
    // from then on must discard it and the incremental baseline, and so
    // must an abort of the op once completed). Empty for restarts.
    std::string image_path;
    // Where this op's image landed (tiered policy; reported in <done>)
    // and, for restarts, which tier actually served it (ckpt::Tier as u8).
    std::vector<ckpt::Replica> replicas;
    std::uint8_t restore_source = 255;
    // Tracing: the local save/restore window, the pod-stopped window
    // (ends when the pod becomes locally resumable), and the continue
    // (resume) window.
    obs::SpanId save_span = obs::kInvalidSpanId;
    obs::SpanId downtime_span = obs::kInvalidSpanId;
    obs::SpanId continue_span = obs::kInvalidSpanId;
  };

  // True once `op_id` is no longer this agent's live op (a scheduled
  // step of it must do nothing).
  bool Stale(std::uint64_t op_id) const {
    return crashed() || !active_ || this->op_id() != op_id;
  }
  bool Accept(const CoordMessage& m) override;
  void Serve(const CoordMessage& m) override;
  void Continue(net::Endpoint from) override;
  void Cancel(bool superseded) override;
  void AbortCompleted() override;
  // The local save, one pipeline for both capture modes: snapshot, then
  // serialize, store and <done>. The mode decides only when the pod may
  // resume and when the image is serialized.
  void StartLocalCheckpoint(const CoordMessage& m);
  void StartRestart(const CoordMessage& m);
  void MaybeResume();
  // An unfinished op lets go of its pod: destroys one a restart rebuilt
  // (so no half of a failed restart runs), resumes any other.
  void ReleasePod();
  void InstallDropFilter(net::Ipv4Address pod_ip);
  void RemoveDropFilter();
  // Fig. 4: tells the coordinator communication is disabled here.
  void AnnounceCommDisabled();
  // Commits the active op's image with the request's storage policy.
  // Returns nullptr on success, else why the write failed.
  const char* StoreImage(const std::string& path, cruz::Bytes image,
                         bool tiered, DurationNs* duration);
  void CountImage(std::uint64_t image_bytes, std::uint64_t state_bytes);
  // Opens the active checkpoint's save and pod-downtime spans; the save
  // span records the image's size if it is already serialized.
  void BeginSaveSpans(const char* mode, const ckpt::CaptureStats& stats,
                      const std::optional<cruz::Bytes>& image);
  // The local save failed: discard the op's image and the incremental
  // baseline, resume the pod if still stopped, report <failed>.
  void FailSave(const char* why);
  // The pod may resume from now on: closes the downtime span and records
  // the downtime.
  void EndDowntime();
  // The local part is complete (the pod may resume once allowed): <done>,
  // then resume / finish if due.
  void ReportDone();
  // Closes any spans the active op still holds open (abort/crash paths).
  void EndOpSpans(const char* outcome);
  // Local failure: the op ends, and <failed> tells the coordinator to
  // abort fast instead of waiting out its timeout.
  void FailLocalOp(const char* why);
  // Deletes the partial image of an aborted checkpoint and invalidates
  // the incremental baseline (the next capture must be full).
  void DiscardCheckpointImage(os::PodId pod, const std::string& path);

  pod::PodManager& pods_;
  ckpt::TieredStore& store_;
  bool test_skip_filter_ = false;
  bool test_resume_restored_ = false;
  ActiveOp op_;
  // Incremental chains: last image written per pod (path, generation).
  std::map<os::PodId, std::pair<std::string, std::uint32_t>> last_image_;
  std::uint64_t checkpoints_served_ = 0;
  std::uint64_t restarts_served_ = 0;
};

}  // namespace cruz::coord
