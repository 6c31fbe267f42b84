// Checkpoint storage: the one store every image and generation manifest
// goes through.
//
// Cruz (§2) assumes a single always-available shared filesystem; real
// deployments (LLNL SCR) instead spread each checkpoint image across a
// storage hierarchy so a restartable generation survives node loss,
// netfs outage and disk-full:
//
//   tier 1  the writer's node-local disk cache (os::LocalDiskStore) —
//           fast, but shares the node's failure domain;
//   tier 2  the writer's ring partner's disk, written in parallel with
//           tier 1 (partner(i) = next live slot after i, deterministic);
//   tier 3  the shared netfs, filled by a background flush with
//           retry/backoff so a temporary outage only delays durability.
//
// Each image commit picks a policy. Tiered: CommitImage lands the image
// on tier 1 + tier 2 and returns the replica set the agent reports in
// <done>; the netfs flush runs in the background. One-tier (the paper's
// path): the netfs alone, written synchronously. Either way the commit
// record is the image's size and its frame trailer (the CRC-32 that
// PodCheckpoint::Serialize wrote), read from the image, not computed.
// Restore path: Resolve reads local → partner → netfs, falling back
// across tiers on a missing copy or one that fails its check (size and
// trailer against the record, then the reader's own check), rebuilds
// missing local copies ("rebuild-on-restart"), and traces the chosen
// source + fallback chain as ckpt.store.* events so cruz_analyze can
// attribute restore traffic per tier; a one-tier image is read from the
// netfs directly. Eviction keeps the last K generations on the node
// disks once they are durable on the netfs. -ENOSPC on a node disk
// evicts old generations rather than failing the checkpoint; on the
// netfs it discards an older, non-newest committed generation, and
// fails the write when none qualifies. A discarded generation is fenced
// against late images.
//
// The store is pure state + scheduling. Each tier write costs one
// Node::DiskWriteDuration: the partner copy and the netfs flush run at
// the writer's local disk rate. Host memory is separate from that cost
// model: a committed image is one immutable buffer that its local,
// partner and netfs copies (and any rebuilt local copy) all share, and
// reads hand out that buffer rather than a copy of it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ckpt/store/replica.h"
#include "common/bytes.h"
#include "common/sysresult.h"
#include "common/units.h"
#include "fault/fault.h"
#include "os/netfs.h"
#include "os/node.h"
#include "sim/simulator.h"

namespace cruz::ckpt {

class TieredStore {
 public:
  // Partner replicas live on the partner's disk under this prefix, so a
  // node's own images and the copies it guards for its partner never
  // collide.
  static constexpr const char* kPartnerPrefix = "/partner";

  // Outcome of one cross-tier read.
  struct ResolveResult {
    Tier source = Tier::kNone;
    std::size_t fallbacks = 0;  // tiers/copies tried before success
    std::uint64_t size = 0;     // the chosen copy's size
    std::uint32_t crc32 = 0;    // and its frame trailer
  };

  // A reader's check of one stored copy: throws CodecError if the copy
  // is not intact. Resolve runs it after the free size/trailer compare.
  using CopyCheck = std::function<void(const cruz::Bytes&)>;

  TieredStore(sim::Simulator& sim, os::NetworkFileSystem& netfs);

  // Ring membership, in registration order. Register every worker node
  // once at cluster construction; failed nodes stay in the ring (their
  // slot is skipped while down).
  void RegisterNode(os::Node* node);
  os::Node* PartnerOf(std::uint32_t node_index) const;
  os::Node* NodeByIndex(std::uint32_t node_index) const;

  void set_injector(fault::Injector* injector) { injector_ = injector; }
  // Keep the newest K generations on the node disks; older generations
  // are dropped from tiers 1-2 once every file is durable on the netfs.
  void set_keep_local_generations(std::size_t k) { keep_local_ = k; }

  // --- write path ---------------------------------------------------------
  // Commits `image` under `path`. Tiered: the writer's local disk and
  // its partner's disk (parallel writes; `duration` is the max of the
  // two tier costs), then the background netfs flush; -ENOSPC on a disk
  // evicts the oldest non-current generation's files from that disk and
  // retries. One-tier: the netfs, synchronously, no replicas. Returns
  // the image size, or an error if no tier accepted the image (-ENOENT
  // if its generation was discarded).
  SysResult CommitImage(os::Node& writer, const std::string& path,
                        cruz::Bytes image, bool tiered,
                        std::vector<Replica>* replicas, DurationNs* duration);

  // Size and frame trailer of an image this store committed and has not
  // removed since: the commit-time record for a tiered image; for a
  // one-tier image, read from its netfs copy (nullopt if that read
  // fails).
  std::optional<Replica> CommitRecord(const std::string& path) const;

  // Metadata (generation manifests, SEQ), whatever the images' policy:
  // replicated synchronously to every live node's disk and written to
  // the netfs now or by the background flush, so commits survive a netfs
  // outage ("manifest commits late but intact"). Not charged sim time.
  void PutMeta(const std::string& path, cruz::Bytes bytes);
  SysResult ReadMeta(const std::string& path, cruz::Bytes& out) const;

  // Union of paths under `prefix` across every tier, with partner-copy
  // prefixes stripped; sorted, deduplicated.
  std::vector<std::string> ListAll(const std::string& prefix) const;

  // --- restore path -------------------------------------------------------
  // Cross-tier read: reader-local → partner tier (any other live node,
  // own copy or guarded copy) → netfs; a one-tier image is read from the
  // netfs only. Each copy read is checked once: its size and trailer
  // against the commit record (no CRC pass), then `check`, or the image
  // frame check when `check` is unset. A copy that fails falls back to
  // the next tier ("<tier>:crc" in the chain). When `reader` is set and
  // the winning copy was remote, the local tier is repopulated. `trace`
  // controls ckpt.store.resolve events + restore-source counters
  // (restores trace; verification probes do not). Returns the size, -EIO
  // if every copy found failed its check, or -ENOENT if there was none.
  SysResult Resolve(os::Node* reader, const std::string& path,
                    cruz::SharedBytes& out, ResolveResult* rr = nullptr,
                    bool trace = true, const CopyCheck& check = nullptr);
  // The same, copying the winning buffer into `out`.
  SysResult Resolve(os::Node* reader, const std::string& path,
                    cruz::Bytes& out, ResolveResult* rr = nullptr,
                    bool trace = true, const CopyCheck& check = nullptr);

  // --- GC -----------------------------------------------------------------
  // Removes every copy of `path` (all disks, both prefixes, netfs) and
  // cancels any pending flush. Returns the number of copies removed.
  std::size_t RemoveEverywhere(const std::string& path);
  // Cross-tier discard of a generation directory (images + manifest).
  // Netfs copies that cannot be removed now (outage) are tombstoned and
  // reaped when the netfs returns. The generation is fenced: CommitImage
  // refuses any later image under it.
  std::size_t DiscardPrefix(const std::string& prefix);

  // Sabotage hook for oracle self-tests: discards stop fencing, so a late
  // image commit lands under a dead generation. Never set outside tests.
  void set_test_skip_discard_fence(bool skip) {
    test_skip_discard_fence_ = skip;
  }

  // --- introspection (tests, benches) -------------------------------------
  bool FlushedToNetfs(const std::string& path) const;
  std::size_t PendingFlushCount() const { return pending_flush_.size(); }
  std::uint64_t flush_attempts_total() const { return flush_attempts_total_; }
  // Total bytes stored under `prefix` across node disks (both prefixes)
  // and the netfs; the zero-orphan assertions use this.
  std::uint64_t BytesUnderPrefix(const std::string& prefix) const;

 private:
  struct ImageMeta {
    std::uint64_t size = 0;
    std::uint32_t crc32 = 0;  // the frame trailer: the file's last 4 bytes
    std::uint32_t writer = 0;
    bool flushed = false;
    bool tiered = true;  // false: one-tier, the netfs copy is the only one
    bool image = true;   // false: metadata, whose readers check it
  };
  struct FlushState {
    std::uint32_t writer = 0;
    DurationNs backoff = 0;
    std::size_t attempts = 0;
  };

  void ScheduleFlush(const std::string& path, std::uint32_t writer,
                     DurationNs after);
  void AttemptFlush(const std::string& path);
  // Records a committed file in the index and its generation's file set.
  void Index(const std::string& path, const ImageMeta& meta);
  // The copy check of `bytes`, a copy of `path`: size and trailer
  // against its commit record (if any), then `check`; unset, the frame
  // check for an image and nothing more for metadata.
  bool Intact(const std::string& path, const cruz::Bytes& bytes,
              const CopyCheck& check) const;
  // Finds an intact copy of `path` on the live node disks (own or
  // guarded).
  bool FindAnyCopy(const std::string& path, cruz::SharedBytes& out) const;
  // Frees space on `node`'s disk by dropping the oldest generation's
  // files (preferring netfs-durable ones), excluding `keep_prefix`.
  bool EvictLocalForSpace(os::Node& node, const std::string& keep_prefix);
  // Writes `path` to the netfs; -ENOSPC discards old generations
  // (EvictGenerationForSpace) until the write fits or none is left.
  SysResult WriteNetfs(const std::string& path,
                       const cruz::SharedBytes& bytes);
  // The netfs -ENOSPC rule: discards the oldest committed generation
  // under `current`'s root if it is older than `current` and not the
  // newest committed one. False if none qualifies: the write fails.
  bool EvictGenerationForSpace(const std::string& current);
  // Drops tier-1/2 copies of generations older than the newest K once
  // they are fully netfs-durable.
  void EnforceRetention();
  void ScheduleReaper();
  void ReapTombstones();
  bool Unreachable(const os::Node* node) const;
  void NotifyNoSpace(const std::string& store, const std::string& path);
  // ".../gen_000007/pod_1.img" -> ".../gen_000007" ("" if not gen-shaped).
  static std::string GenPrefixOf(const std::string& path);

  sim::Simulator& sim_;
  os::NetworkFileSystem& netfs_;
  fault::Injector* injector_ = nullptr;
  std::vector<os::Node*> ring_;
  std::size_t keep_local_ = 2;
  static constexpr DurationNs kFlushRetry = 100 * kMillisecond;
  static constexpr DurationNs kFlushRetryMax = 2 * kSecond;
  static constexpr std::size_t kMaxFlushAttempts = 64;
  // Commit-time truth per path: expected size/trailer and durability.
  std::map<std::string, ImageMeta> index_;
  std::map<std::string, FlushState> pending_flush_;
  // Generation prefix -> files committed under it (images + manifests).
  std::map<std::string, std::set<std::string>> gen_files_;
  // Netfs paths whose removal failed during an outage; reaped later.
  std::set<std::string> tombstones_;
  // Discarded generation prefixes: no image commits under them.
  std::set<std::string> fenced_;
  bool test_skip_discard_fence_ = false;
  bool reaper_scheduled_ = false;
  std::uint64_t flush_attempts_total_ = 0;
};

}  // namespace cruz::ckpt
