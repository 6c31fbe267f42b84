// Single-node checkpoint-restart engine (paper §3-§4).
//
// Capture: SIGSTOPs all processes in the pod, then extracts their state —
// including live socket state under the (simulated) network-stack lock —
// into a PodCheckpoint. Capture is non-destructive: the pod can be
// resumed afterwards (checkpoint-and-continue) or destroyed (migration).
//
// Restore: rebuilds the pod on any node — the VIF with the same IP and
// MAC identity, SysV objects, pipes, sockets (listeners, accept queues,
// connections with the §4.1 send-buffer replay and alternate receive
// buffers), and finally the processes with their memory images and
// register files, mapped to fresh real pids behind the pod's stable
// virtual pids. Restored processes are left SIGSTOPped so a coordinator
// can resume all pods only after every node has finished restoring.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "ckpt/image.h"
#include "ckpt/store/tiered_store.h"
#include "pod/pod.h"

namespace cruz::ckpt {

struct CaptureStats {
  std::uint32_t processes = 0;
  std::uint32_t threads = 0;
  std::uint32_t tcp_connections = 0;
  std::uint32_t listeners = 0;
  std::uint32_t pipes = 0;
  std::uint64_t state_bytes = 0;
  // Memory pages referenced by the capture (after incremental filtering).
  std::uint64_t snapshot_pages = 0;
  // Time the network stack's locks were held while the socket state was
  // extracted (the paper holds them "only for the duration needed to save
  // the socket states").
  DurationNs network_lock_hold = 0;
};

struct CaptureOptions {
  // Incremental checkpointing (paper §5.2): capture only memory pages
  // dirtied since the previous capture. The produced image records its
  // parent so restore can resolve the chain.
  bool incremental = false;
  std::string parent_image;
  std::uint32_t generation = 0;
};

// Result of the stop-the-world phase of a forked (copy-on-write) capture
// (paper §5.2). Kernel state — sockets, pipes, IPC, fds, registers — is
// small and captured eagerly into `meta`; process memory is held as
// shared-page snapshot handles, so taking a PodSnapshot costs O(page
// table), not O(image). The pod can resume immediately afterwards: its
// writes copy pages lazily (os::Memory COW faults) and never perturb the
// snapshot. Materialize() — typically called later, from the background
// write-out — assembles the final PodCheckpoint, byte-identical to a
// stop-the-world capture taken at the snapshot point.
class PodSnapshot {
 public:
  const PodCheckpoint& meta() const { return meta_; }
  os::PodId pod_id() const { return meta_.pod_id; }

  // Pages this snapshot will serialize (after incremental filtering).
  std::uint64_t SnapshotPages() const;
  // Estimate of the eventual image's dominant bytes (pages + buffers),
  // used by the agent's cost model before the image exists.
  std::uint64_t EstimatedStateBytes() const;

  // The frozen content of page `page_index` of process `vpid`; nullptr
  // when the snapshot holds no such page. Post-copy migration serves the
  // pages it left on the source from here.
  const os::MemorySnapshot::Page* FindPage(os::Pid vpid,
                                           std::uint64_t page_index) const;

  // Assembles the full checkpoint from the frozen page handles, which
  // the checkpoint shares (O(page table), no page bytes copied). Pure:
  // may be called any number of times, at any (simulated) time after the
  // snapshot, with identical results.
  PodCheckpoint Materialize() const;

 private:
  friend class CheckpointEngine;

  struct ProcessMemory {
    os::Pid vpid = 0;
    os::MemorySnapshot memory;
    // Set for incremental captures: only these pages are serialized
    // (dirty at snapshot time). Unset = all snapshot pages.
    std::optional<std::set<std::uint64_t>> include;
  };

  PodCheckpoint meta_;  // all kernel state; process page lists left empty
  std::vector<ProcessMemory> memory_;
};

class CheckpointEngine {
 public:
  // Stops the pod's processes and captures a checkpoint. The pod is left
  // stopped; call ResumePod (checkpoint-and-continue) or DestroyPod
  // (migration) afterwards. Every capture (full or incremental) resets
  // the dirty-page baseline for the next incremental capture.
  static PodCheckpoint CapturePod(pod::PodManager& pods, os::PodId id,
                                  CaptureStats* stats = nullptr);
  static PodCheckpoint CapturePod(pod::PodManager& pods, os::PodId id,
                                  const CaptureOptions& options,
                                  CaptureStats* stats = nullptr);

  // Stop-the-world phase only: stops the pod and captures kernel state
  // eagerly but memory as shared-page COW handles. The pod may be
  // resumed right after this returns, while the image is materialized
  // and written out in the background. The dirty-page baseline resets
  // HERE (snapshot time), not at image-commit time, so an incremental
  // capture taken after a COW capture carries exactly the pages written
  // post-snapshot.
  static PodSnapshot SnapshotPod(pod::PodManager& pods, os::PodId id,
                                 const CaptureOptions& options,
                                 CaptureStats* stats = nullptr);

  // Loads a checkpoint image through the checkpoint store, resolving
  // the incremental parent chain (oldest-to-newest page overlay). Each
  // link resolves across tiers for `reader` (nullptr: no local tier, no
  // rebuild) with the decode as the copy check, so each copy is decoded
  // at most once and a corrupt one falls back to the next tier. `trace`
  // is Resolve's. Throws CodecError when a link has copies but none
  // decodes, UsageError when it has none. `head`, if set, receives how
  // the head image resolved; `bytes_read` the total size of every link
  // (the restore cost model's storage volume).
  static PodCheckpoint LoadImageChain(
      TieredStore& store, os::Node* reader, const std::string& path,
      bool trace = true, TieredStore::ResolveResult* head = nullptr,
      std::uint64_t* bytes_read = nullptr);

  // Rebuilds a pod from a checkpoint. Processes are installed SIGSTOPped;
  // call ResumePod to let them run. The processes adopt `ck`'s page
  // handles (os::Memory::AdoptPage) rather than copying them.
  static os::PodId RestorePod(pod::PodManager& pods,
                              const PodCheckpoint& ck);

  static void StopPod(pod::PodManager& pods, os::PodId id);
  static void ResumePod(pod::PodManager& pods, os::PodId id);
};

}  // namespace cruz::ckpt
