#include "ckpt/generation.h"

#include <algorithm>

#include "ckpt/store/tiered_store.h"
#include "common/bytes.h"
#include "common/crc32.h"
#include "common/error.h"
#include "common/log.h"

namespace cruz::ckpt {

namespace {

// A manifest entry's one field list (see FieldRef in common/bytes.h).
template <typename Io>
void Fields(Io& io, cruz::FieldRef<Io, ManifestEntry> e) {
  io.U32(e.pod);
  io.String(e.image_path);
  io.U64(e.size);
  io.U32(e.crc32);
  io.Seq(e.replicas, [&](auto& rep) { ckpt::Fields(io, rep); });
}

// The manifest body: its generation number, then the entries.
template <typename Io>
void ManifestFields(Io& io, cruz::FieldRef<Io, std::uint64_t> gen,
                    cruz::FieldRef<Io, std::vector<ManifestEntry>> entries) {
  io.U64(gen);
  io.Seq(entries, [&](auto& e) { Fields(io, e); });
}

}  // namespace

TieredStore& GenerationStore::store() const {
  if (store_ == nullptr) {
    throw UsageError("generation store under " + root_ +
                     " has no checkpoint store attached");
  }
  return *store_;
}

std::uint64_t GenerationStore::Allocate() {
  std::uint64_t next = 1;
  cruz::Bytes raw;
  if (SysOk(store().ReadMeta(SeqPath(), raw)) && raw.size() == 8) {
    cruz::ByteReader reader(raw);
    next = reader.GetU64() + 1;
  }
  cruz::ByteWriter w;
  w.PutU64(next);
  store().PutMeta(SeqPath(), w.Take());
  return next;
}

std::string GenerationStore::Prefix(std::uint64_t gen) const {
  std::string num = std::to_string(gen);
  if (num.size() < 6) num.insert(0, 6 - num.size(), '0');
  return root_ + "/gen_" + num;
}

void GenerationStore::Commit(std::uint64_t gen,
                             const std::vector<ManifestEntry>& entries) {
  // Each metadata write is create-or-truncate in one step: the manifest
  // appears whole or not at all, making it the commit point. It lands on
  // every node disk immediately and on the netfs as soon as it can, so
  // the commit survives an outage.
  store().PutMeta(ManifestPath(gen), cruz::FrameRecord([&](auto& io) {
                   ManifestFields(io, gen, entries);
                 }));
  if (tracer_ != nullptr) {
    tracer_->Instant("ckpt", "ckpt.generation.commit",
                     obs::TraceAttrs{}.Arg("gen", gen));
  }
}

std::size_t GenerationStore::Discard(std::uint64_t gen) {
  // Every tier, pending netfs flushes included: an aborted generation
  // leaves zero orphan bytes anywhere, and no late image can land in it.
  std::size_t removed = store().DiscardPrefix(Prefix(gen));
  if (removed > 0) {
    CRUZ_INFO("ckpt") << "generation " << gen << ": discarded " << removed
                      << " file(s)";
  }
  if (tracer_ != nullptr) {
    tracer_->Instant("ckpt", "ckpt.generation.discard",
                     obs::TraceAttrs{}.Arg("gen", gen));
  }
  return removed;
}

std::vector<std::uint64_t> GenerationStore::Committed() const {
  std::vector<std::uint64_t> gens;
  const std::string prefix = root_ + "/gen_";
  for (const std::string& path : store().ListAll(prefix)) {
    if (path.size() <= prefix.size()) continue;
    std::size_t slash = path.find('/', prefix.size());
    if (slash == std::string::npos ||
        path.compare(slash, std::string::npos, "/MANIFEST") != 0) {
      continue;
    }
    std::uint64_t gen = 0;
    for (std::size_t i = prefix.size(); i < slash; ++i) {
      char c = path[i];
      if (c < '0' || c > '9') {
        gen = 0;
        break;
      }
      gen = gen * 10 + static_cast<std::uint64_t>(c - '0');
    }
    if (gen != 0 && ReadManifest(gen).has_value()) gens.push_back(gen);
  }
  std::sort(gens.begin(), gens.end());
  return gens;
}

std::optional<std::uint64_t> GenerationStore::LatestCommitted() const {
  std::vector<std::uint64_t> gens = Committed();
  if (gens.empty()) return std::nullopt;
  return gens.back();
}

std::optional<std::vector<ManifestEntry>> GenerationStore::ReadManifest(
    std::uint64_t gen) const {
  cruz::Bytes raw;
  if (!SysOk(store().ReadMeta(ManifestPath(gen), raw))) return std::nullopt;
  try {
    cruz::ByteReader frame(raw);
    cruz::ByteReader body(cruz::GetRecord(frame));
    std::uint64_t stored_gen = 0;
    std::vector<ManifestEntry> entries;
    ManifestFields(body, stored_gen, entries);
    if (stored_gen != gen) return std::nullopt;
    return entries;
  } catch (const cruz::CodecError&) {
    return std::nullopt;
  }
}

}  // namespace cruz::ckpt
