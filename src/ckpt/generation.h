// Checkpoint generations.
//
// Each coordinated checkpoint writes its images under a fresh
// per-generation directory and the generation becomes visible only when a
// manifest is committed after every agent reported <done> — so storage
// never exposes a half-written checkpoint as restorable. The manifest
// records, per member pod, the image path plus its size and frame CRC-32
// (the trailer PodCheckpoint::Serialize wrote). Restart reads no image
// here: each agent decodes its own, and one that cannot answers <failed>,
// so restart falls back to an older committed generation (e.g. after
// silent media corruption of the latest images). Aborted generations are
// discarded wholesale by deleting everything under their directory.
//
// All I/O goes through the checkpoint store (ckpt::TieredStore), whatever
// policy the generation's images were committed with: manifests and the
// SEQ counter are store metadata.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/store/replica.h"
#include "obs/trace.h"
#include "os/netfs.h"
#include "os/types.h"

namespace cruz::ckpt {

class TieredStore;

struct ManifestEntry {
  os::PodId pod = os::kNoPod;
  std::string image_path;
  std::uint64_t size = 0;     // image bytes at commit time
  std::uint32_t crc32 = 0;    // the image's frame trailer (its CRC-32)
  // Where the image lived at commit time (tiered policy: local + partner;
  // the netfs replica appears later via the background flush and is
  // always consulted as the last resort). Empty for one-tier images,
  // whose only copy is on the netfs.
  std::vector<Replica> replicas;
};

class GenerationStore {
 public:
  static constexpr const char* kDefaultRoot = "/ckpt/gens";

  // The generations `store` keeps under `root`.
  explicit GenerationStore(TieredStore& store,
                           std::string root = kDefaultRoot)
      : store_(&store), root_(std::move(root)) {}

  // Detached from any store: only Prefix() works until set_tiered()
  // attaches the store that owns `shared_fs`; every other call throws
  // UsageError.
  explicit GenerationStore(os::NetworkFileSystem& /*shared_fs*/,
                           std::string root = kDefaultRoot)
      : root_(std::move(root)) {}

  void set_tiered(TieredStore* store) { store_ = store; }

  // Allocates the next generation number. Monotonic across coordinator
  // incarnations: the counter is persisted in a SEQ metadata file.
  std::uint64_t Allocate();

  // Directory prefix for a generation's images, e.g. "/ckpt/gens/gen_000007".
  std::string Prefix(std::uint64_t gen) const;

  // Atomically publishes the generation: the manifest write is the commit
  // point (a generation without a manifest does not exist for restart).
  void Commit(std::uint64_t gen, const std::vector<ManifestEntry>& entries);

  // Abort path: deletes every file under the generation's directory
  // (partial images, manifest if any). Returns the number removed.
  std::size_t Discard(std::uint64_t gen);

  // Committed generations (those with a readable, CRC-intact manifest),
  // ascending.
  std::vector<std::uint64_t> Committed() const;
  std::optional<std::uint64_t> LatestCommitted() const;

  std::optional<std::vector<ManifestEntry>> ReadManifest(
      std::uint64_t gen) const;

  // Mirror commit/discard decisions onto a tracer timeline (nullptr
  // disables), so invariant checks can pin the commit point against the
  // protocol spans around it.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  std::string SeqPath() const { return root_ + "/SEQ"; }
  std::string ManifestPath(std::uint64_t gen) const {
    return Prefix(gen) + "/MANIFEST";
  }

  // The attached store; throws UsageError when detached.
  TieredStore& store() const;

  TieredStore* store_ = nullptr;
  std::string root_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace cruz::ckpt
