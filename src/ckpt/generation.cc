#include "ckpt/generation.h"

#include <algorithm>

#include "ckpt/engine.h"
#include "ckpt/store/tiered_store.h"
#include "common/bytes.h"
#include "common/crc32.h"
#include "common/error.h"
#include "common/log.h"

namespace cruz::ckpt {

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
  cruz::ByteWriter payload;
  payload.PutU64(gen);
  payload.PutU32(static_cast<std::uint32_t>(entries.size()));
  for (const ManifestEntry& e : entries) {
    payload.PutU32(e.pod);
    payload.PutString(e.image_path);
    payload.PutU64(e.size);
    payload.PutU32(e.crc32);
    payload.PutU32(static_cast<std::uint32_t>(e.replicas.size()));
    for (const Replica& rep : e.replicas) {
      payload.PutU8(static_cast<std::uint8_t>(rep.tier));
      payload.PutU32(rep.node_index);
      payload.PutU64(rep.size);
      payload.PutU32(rep.crc32);
    }
  }
  cruz::Bytes body = payload.Take();
  cruz::ByteWriter framed;
  framed.PutU32(static_cast<std::uint32_t>(body.size()));
  framed.PutU32(cruz::Crc32(body));
  framed.PutBytes(body);
  // Each metadata write is create-or-truncate in one step: the manifest
  // appears whole or not at all, making it the commit point. It lands on
  // every node disk immediately and on the netfs as soon as it can, so
  // the commit survives an outage.
  store().PutMeta(ManifestPath(gen), framed.Take());
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
    cruz::ByteReader r(raw);
    std::uint32_t len = r.GetU32();
    std::uint32_t crc = r.GetU32();
    cruz::Bytes body = r.GetBytes(len);
    if (cruz::Crc32(body) != crc) return std::nullopt;
    cruz::ByteReader br(body);
    if (br.GetU64() != gen) return std::nullopt;
    std::uint32_t n = br.GetU32();
    std::vector<ManifestEntry> entries;
    for (std::uint32_t i = 0; i < n; ++i) {
      ManifestEntry e;
      e.pod = br.GetU32();
      e.image_path = br.GetString();
      e.size = br.GetU64();
      e.crc32 = br.GetU32();
      std::uint32_t replicas = br.GetU32();
      for (std::uint32_t j = 0; j < replicas; ++j) {
        Replica rep;
        rep.tier = static_cast<Tier>(br.GetU8());
        rep.node_index = br.GetU32();
        rep.size = br.GetU64();
        rep.crc32 = br.GetU32();
        e.replicas.push_back(rep);
      }
      entries.push_back(std::move(e));
    }
    return entries;
  } catch (const cruz::CodecError&) {
    return std::nullopt;
  }
}

bool GenerationStore::Verify(std::uint64_t gen) const {
  std::optional<std::vector<ManifestEntry>> manifest = ReadManifest(gen);
  if (!manifest.has_value()) return false;
  // The generation is restartable iff every image has at least one
  // intact copy on some tier. The probe reads through the store
  // untraced (it is not a restore); decoding the chain is each copy's
  // check, and the head copy must also be the one the manifest records.
  for (const ManifestEntry& e : *manifest) {
    TieredStore::ResolveResult head;
    try {
      CheckpointEngine::LoadImageChain(store(), /*reader=*/nullptr,
                                       e.image_path, /*trace=*/false, &head);
    } catch (const cruz::CruzError&) {
      CRUZ_WARN("ckpt") << "generation " << gen << ": " << e.image_path
                        << " does not deserialize";
      return false;
    }
    if (head.size != e.size || head.crc32 != e.crc32) {
      CRUZ_WARN("ckpt") << "generation " << gen << ": " << e.image_path
                        << " fails the manifest size/CRC check";
      return false;
    }
  }
  return true;
}

std::optional<std::uint64_t> GenerationStore::NewestIntact() const {
  std::vector<std::uint64_t> gens = Committed();
  for (auto it = gens.rbegin(); it != gens.rend(); ++it) {
    if (Verify(*it)) return *it;
  }
  return std::nullopt;
}

}  // namespace cruz::ckpt
