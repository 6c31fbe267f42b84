#include "ckpt/store/tiered_store.h"

#include <algorithm>
#include <memory>

#include "ckpt/image.h"
#include "common/log.h"
#include "obs/trace.h"

namespace cruz::ckpt {

namespace {

bool IsManifest(const std::string& path) {
  static constexpr const char* kSuffix = "/MANIFEST";
  static constexpr std::size_t kLen = 9;
  return path.size() >= kLen &&
         path.compare(path.size() - kLen, kLen, kSuffix) == 0;
}

bool HasPrefix(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

}  // namespace

TieredStore::TieredStore(sim::Simulator& sim, os::NetworkFileSystem& netfs)
    : sim_(sim), netfs_(netfs) {}

void TieredStore::RegisterNode(os::Node* node) { ring_.push_back(node); }

os::Node* TieredStore::NodeByIndex(std::uint32_t node_index) const {
  for (os::Node* n : ring_) {
    if (n->index() == node_index) return n;
  }
  return nullptr;
}

os::Node* TieredStore::PartnerOf(std::uint32_t node_index) const {
  std::size_t slot = ring_.size();
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    if (ring_[i]->index() == node_index) {
      slot = i;
      break;
    }
  }
  if (slot == ring_.size() || ring_.size() < 2) return nullptr;
  // Next live slot after ours; the ring is fixed at registration order,
  // so the assignment is deterministic and every node can recompute it.
  for (std::size_t step = 1; step < ring_.size(); ++step) {
    os::Node* candidate = ring_[(slot + step) % ring_.size()];
    if (!candidate->failed()) return candidate;
  }
  return nullptr;
}

bool TieredStore::Unreachable(const os::Node* node) const {
  return injector_ != nullptr && node != nullptr &&
         injector_->PartnerUnreachable(node->name());
}

void TieredStore::NotifyNoSpace(const std::string& store,
                                const std::string& path) {
  sim_.metrics().counter("ckpt.store.enospc_total").Add(1);
  if (injector_ != nullptr) injector_->OnNoSpace(store, path);
}

std::string TieredStore::GenPrefixOf(const std::string& path) {
  std::size_t at = path.find("/gen_");
  if (at == std::string::npos) return "";
  std::size_t end = path.find('/', at + 1);
  if (end == std::string::npos) return "";
  return path.substr(0, end);
}

void TieredStore::Index(const std::string& path, const ImageMeta& meta) {
  index_[path] = meta;
  const std::string gen = GenPrefixOf(path);
  if (!gen.empty()) gen_files_[gen].insert(path);
}

SysResult TieredStore::CommitImage(os::Node& writer, const std::string& path,
                                   cruz::Bytes image, bool tiered,
                                   std::vector<Replica>* replicas,
                                   DurationNs* duration) {
  const std::string gen = GenPrefixOf(path);
  if (fenced_.count(gen) > 0 && !test_skip_discard_fence_) {
    // The generation's directory is gone: its op aborted while this
    // write was still in flight.
    return SysErr(CRUZ_ENOENT);
  }
  const std::uint64_t bytes = image.size();
  // Tier writes run in parallel at the writer's disk rate.
  const DurationNs cost = writer.DiskWriteDuration(bytes);

  // The image's own frame CRC is its record; no pass is taken here.
  const std::uint32_t crc = PodCheckpoint::FrameTrailer(image);
  // Every tier's copy is this one buffer.
  const cruz::SharedBytes shared =
      std::make_shared<cruz::Bytes>(std::move(image));

  if (!tiered) {
    // One tier: the shared netfs, written synchronously. No replicas, no
    // flush, and no per-image trace: the agent's save span covers it.
    SysResult w = WriteNetfs(path, shared);
    if (!SysOk(w)) return w;
    Index(path, ImageMeta{bytes, crc, writer.index(), /*flushed=*/true,
                          /*tiered=*/false});
    sim_.metrics().counter("ckpt.store.commits_total").Add(1);
    if (duration != nullptr) *duration = cost;
    if (replicas != nullptr) replicas->clear();
    return static_cast<SysResult>(bytes);
  }

  std::vector<Replica> out;
  // Tier 1: the writer's own disk. -ENOSPC evicts the oldest non-current
  // generation's files from this disk and retries.
  SysResult local = writer.disk().WriteShared(path, shared);
  if (SysErrno(local) == CRUZ_ENOSPC) {
    NotifyNoSpace(writer.disk().name(), path);
    while (!SysOk(local) && EvictLocalForSpace(writer, gen)) {
      local = writer.disk().WriteShared(path, shared);
    }
  }
  if (SysOk(local)) {
    out.push_back(Replica{Tier::kLocal, writer.index(), bytes, crc});
  }

  // Tier 2: the ring partner, written in parallel with tier 1.
  os::Node* partner = PartnerOf(writer.index());
  if (partner != nullptr && !Unreachable(&writer) && !Unreachable(partner)) {
    std::string guarded = std::string(kPartnerPrefix) + path;
    SysResult pr = partner->disk().WriteShared(guarded, shared);
    if (SysErrno(pr) == CRUZ_ENOSPC) {
      NotifyNoSpace(partner->disk().name(), path);
      while (!SysOk(pr) && EvictLocalForSpace(*partner, gen)) {
        pr = partner->disk().WriteShared(guarded, shared);
      }
    }
    if (SysOk(pr)) {
      out.push_back(Replica{Tier::kPartner, partner->index(), bytes, crc});
    }
  } else if (partner != nullptr) {
    sim_.metrics().counter("ckpt.store.partner_skips_total").Add(1);
  }

  if (out.empty()) {
    // No tier accepted the image: the checkpoint on this member fails.
    return SysOk(local) ? SysErr(CRUZ_EIO) : local;
  }

  Index(path, ImageMeta{bytes, crc, writer.index(), false});
  if (duration != nullptr) *duration = cost;
  if (replicas != nullptr) *replicas = out;

  sim_.metrics().counter("ckpt.store.commits_total").Add(1);
  sim_.tracer().Instant(
      "ckpt", "ckpt.store.commit",
      obs::TraceAttrs{}
          .Arg("path", path)
          .Arg("bytes", bytes)
          .Arg("replicas", static_cast<std::uint64_t>(out.size()))
          .Arg("partner",
               out.size() > 1 ? NodeByIndex(out[1].node_index)->name() : ""));

  // Tier 3 fills in the background once the foreground writes land.
  ScheduleFlush(path, writer.index(), cost + writer.DiskWriteDuration(bytes));
  return static_cast<SysResult>(bytes);
}

std::optional<Replica> TieredStore::CommitRecord(
    const std::string& path) const {
  auto it = index_.find(path);
  if (it == index_.end()) return std::nullopt;
  Replica record{Tier::kNone, it->second.writer, it->second.size,
                 it->second.crc32};
  if (!it->second.tiered) {
    // A one-tier image exists only on the netfs: take its record there.
    cruz::SharedBytes image;
    if (!SysOk(netfs_.ReadShared(path, image))) return std::nullopt;
    record.size = image->size();
    record.crc32 = PodCheckpoint::FrameTrailer(*image);
  }
  return record;
}

void TieredStore::PutMeta(const std::string& path, cruz::Bytes raw) {
  const std::string gen = GenPrefixOf(path);
  Index(path, ImageMeta{raw.size(), PodCheckpoint::FrameTrailer(raw), 0,
                        false, /*tiered=*/true, /*image=*/false});
  const cruz::SharedBytes bytes =
      std::make_shared<cruz::Bytes>(std::move(raw));
  // Metadata is tiny and must survive any single failure domain: every
  // live node keeps a copy, and the netfs copy lands when it can.
  for (os::Node* n : ring_) {
    if (n->failed()) continue;
    SysResult r = n->disk().WriteShared(path, bytes);
    if (SysErrno(r) == CRUZ_ENOSPC) {
      NotifyNoSpace(n->disk().name(), path);
      if (EvictLocalForSpace(*n, gen)) n->disk().WriteShared(path, bytes);
    }
  }
  if (SysOk(WriteNetfs(path, bytes))) {
    index_[path].flushed = true;
  } else {
    ScheduleFlush(path, 0, kFlushRetry);
  }
}

SysResult TieredStore::ReadMeta(const std::string& path,
                                cruz::Bytes& out) const {
  SysResult r = netfs_.ReadFile(path, out);
  if (SysOk(r)) return r;
  for (os::Node* n : ring_) {
    if (n->failed()) continue;
    r = n->disk().ReadFile(path, out);
    if (SysOk(r)) return r;
  }
  return SysErr(CRUZ_ENOENT);
}

std::vector<std::string> TieredStore::ListAll(
    const std::string& prefix) const {
  std::set<std::string> paths;
  for (const std::string& p : netfs_.List(prefix)) paths.insert(p);
  const std::string guarded = std::string(kPartnerPrefix) + prefix;
  for (os::Node* n : ring_) {
    if (n->failed()) continue;
    for (const std::string& p : n->disk().List(prefix)) paths.insert(p);
    for (const std::string& p : n->disk().List(guarded)) {
      paths.insert(p.substr(std::string(kPartnerPrefix).size()));
    }
  }
  return std::vector<std::string>(paths.begin(), paths.end());
}

bool TieredStore::Intact(const std::string& path, const cruz::Bytes& bytes,
                         const CopyCheck& check) const {
  auto it = index_.find(path);
  const ImageMeta* record = it != index_.end() ? &it->second : nullptr;
  if (record != nullptr &&
      (bytes.size() != record->size ||
       PodCheckpoint::FrameTrailer(bytes) != record->crc32)) {
    return false;
  }
  try {
    if (check) {
      check(bytes);
    } else if (record == nullptr || record->image) {
      PodCheckpoint::CheckFrame(bytes);
    }
    return true;
  } catch (const CodecError&) {
    return false;
  }
}

SysResult TieredStore::Resolve(os::Node* reader, const std::string& path,
                               cruz::Bytes& out, ResolveResult* rr,
                               bool trace, const CopyCheck& check) {
  cruz::SharedBytes shared;
  SysResult r = Resolve(reader, path, shared, rr, trace, check);
  if (SysOk(r)) out = *shared;
  return r;
}

SysResult TieredStore::Resolve(os::Node* reader, const std::string& path,
                               cruz::SharedBytes& out, ResolveResult* rr,
                               bool trace, const CopyCheck& check) {
  ResolveResult scratch;
  ResolveResult& res = rr != nullptr ? *rr : scratch;
  res = ResolveResult{};
  auto meta_it = index_.find(path);
  std::string chain;
  auto note = [&](const std::string& s) {
    if (!chain.empty()) chain += ",";
    chain += s;
    ++res.fallbacks;
  };
  bool rejected = false;
  // Reads one copy; true if it exists and passes its check.
  auto try_store = [&](const os::MemFileStore& store, const std::string& p,
                       const std::string& label) {
    cruz::SharedBytes bytes;
    if (!SysOk(store.ReadShared(p, bytes))) return false;
    if (!Intact(path, *bytes, check)) {
      rejected = true;
      note(label + ":crc");
      return false;
    }
    res.size = bytes->size();
    res.crc32 = PodCheckpoint::FrameTrailer(*bytes);
    out = std::move(bytes);
    return true;
  };

  if (meta_it != index_.end() && !meta_it->second.tiered) {
    // A one-tier image was only ever on the netfs: no disk probe, no
    // rebuild, no per-image trace.
    if (!try_store(netfs_, path, "netfs")) {
      return SysErr(rejected ? CRUZ_EIO : CRUZ_ENOENT);
    }
    res.source = Tier::kNetfs;
    if (trace) {
      sim_.metrics().counter("ckpt.store.restore_source_netfs").Add(1);
    }
    return static_cast<SysResult>(out->size());
  }
  const std::string guarded = std::string(kPartnerPrefix) + path;

  bool found = false;
  // Tier 1: the reader's own disk — its copy, or one it guards.
  if (reader != nullptr) {
    if (try_store(reader->disk(), path, "local") ||
        try_store(reader->disk(), guarded, "local")) {
      found = true;
      res.source = Tier::kLocal;
    } else {
      note("local:miss");
    }
  }
  // Tier 2: any other live node, in ring order (the writer's copy if the
  // pod moved, or the partner-guarded copy if the writer died).
  if (!found) {
    if (reader != nullptr && Unreachable(reader)) {
      note("partner:unreachable");
    } else {
      for (os::Node* n : ring_) {
        if (n == reader || n->failed()) continue;
        if (Unreachable(n)) {
          note("partner(" + n->name() + "):unreachable");
          continue;
        }
        std::string label = "partner(" + n->name() + ")";
        if (try_store(n->disk(), path, label) ||
            try_store(n->disk(), guarded, label)) {
          found = true;
          res.source = Tier::kPartner;
          break;
        }
      }
      if (!found) note("partner:miss");
    }
  }
  // Tier 3: the shared netfs, last resort.
  if (!found) {
    const std::size_t before = res.fallbacks;
    if (try_store(netfs_, path, "netfs")) {
      found = true;
      res.source = Tier::kNetfs;
    } else if (res.fallbacks == before) {
      note(netfs_.available() ? "netfs:miss" : "netfs:unavailable");
    }
  }

  if (!found) {
    if (trace) {
      sim_.metrics().counter("ckpt.store.resolve_failures_total").Add(1);
      sim_.tracer().Instant(
          "ckpt", "ckpt.store.resolve_failed",
          obs::TraceAttrs{}.Arg("path", path).Arg("chain", chain));
    }
    return SysErr(rejected ? CRUZ_EIO : CRUZ_ENOENT);
  }

  if (!chain.empty()) chain += ",";
  chain += std::string(TierName(res.source)) + ":ok";

  // Rebuild-on-restart: repopulate the reader's tier-1 cache so the next
  // restore (and the next flush) is local again. The rebuilt copy shares
  // the winning copy's buffer.
  if (reader != nullptr && res.source != Tier::kLocal) {
    SysResult w = reader->disk().WriteShared(path, out);
    if (SysErrno(w) == CRUZ_ENOSPC) {
      NotifyNoSpace(reader->disk().name(), path);
      if (EvictLocalForSpace(*reader, GenPrefixOf(path))) {
        w = reader->disk().WriteShared(path, out);
      }
    }
    if (SysOk(w)) {
      sim_.metrics().counter("ckpt.store.rebuilds_total").Add(1);
      sim_.tracer().Instant("ckpt", "ckpt.store.rebuild",
                            obs::TraceAttrs{}
                                .Arg("path", path)
                                .Arg("node", reader->name())
                                .Arg("from", TierName(res.source)));
    }
  }

  if (trace) {
    sim_.metrics()
        .counter(std::string("ckpt.store.restore_source_") +
                 TierName(res.source))
        .Add(1);
    sim_.tracer().Instant(
        "ckpt", "ckpt.store.resolve",
        obs::TraceAttrs{}
            .Arg("path", path)
            .Arg("source", TierName(res.source))
            .Arg("chain", chain)
            .Arg("fallbacks", static_cast<std::uint64_t>(res.fallbacks)));
  }
  return static_cast<SysResult>(out->size());
}

bool TieredStore::FindAnyCopy(const std::string& path,
                              cruz::SharedBytes& out) const {
  const std::string guarded = std::string(kPartnerPrefix) + path;
  for (os::Node* n : ring_) {
    if (n->failed()) continue;
    for (const std::string& p : {path, guarded}) {
      cruz::SharedBytes bytes;
      if (!SysOk(n->disk().ReadShared(p, bytes))) continue;
      // Never propagate a copy that fails its check.
      if (!Intact(path, *bytes, nullptr)) continue;
      out = std::move(bytes);
      return true;
    }
  }
  return false;
}

void TieredStore::ScheduleFlush(const std::string& path, std::uint32_t writer,
                                DurationNs after) {
  pending_flush_[path] = FlushState{writer, kFlushRetry, 0};
  sim_.Schedule(after, [this, path] { AttemptFlush(path); });
}

void TieredStore::AttemptFlush(const std::string& path) {
  auto it = pending_flush_.find(path);
  if (it == pending_flush_.end()) return;  // cancelled (abort/discard GC)
  ++flush_attempts_total_;
  ++it->second.attempts;

  cruz::SharedBytes bytes;
  if (!FindAnyCopy(path, bytes)) {
    // Every disk copy is gone (node loss + partner loss before the flush
    // landed). Nothing left to make durable.
    sim_.metrics().counter("ckpt.store.flush_abandoned_total").Add(1);
    sim_.tracer().Instant("ckpt", "ckpt.store.flush_abandoned",
                          obs::TraceAttrs{}.Arg("path", path).Arg(
                              "reason", "no intact source copy"));
    pending_flush_.erase(it);
    return;
  }

  SysResult r = WriteNetfs(path, bytes);
  if (SysOk(r)) {
    auto meta_it = index_.find(path);
    if (meta_it != index_.end()) meta_it->second.flushed = true;
    sim_.metrics().counter("ckpt.store.flushes_total").Add(1);
    sim_.tracer().Instant(
        "ckpt", "ckpt.store.flush",
        obs::TraceAttrs{}.Arg("path", path).Arg(
            "attempts", static_cast<std::uint64_t>(it->second.attempts)));
    pending_flush_.erase(it);
    EnforceRetention();
    return;
  }

  if (it->second.attempts >= kMaxFlushAttempts) {
    sim_.metrics().counter("ckpt.store.flush_abandoned_total").Add(1);
    sim_.tracer().Instant(
        "ckpt", "ckpt.store.flush_abandoned",
        obs::TraceAttrs{}.Arg("path", path).Arg("reason", "max attempts"));
    pending_flush_.erase(it);
    return;
  }

  sim_.metrics().counter("ckpt.store.flush_retries_total").Add(1);
  sim_.tracer().Instant(
      "ckpt", "ckpt.store.flush_retry",
      obs::TraceAttrs{}
          .Arg("path", path)
          .Arg("attempts", static_cast<std::uint64_t>(it->second.attempts))
          .Arg("error", ErrnoName(SysErrno(r))));
  DurationNs backoff = it->second.backoff;
  it->second.backoff = std::min(backoff * 2, kFlushRetryMax);
  sim_.Schedule(backoff, [this, path] { AttemptFlush(path); });
}

bool TieredStore::EvictLocalForSpace(os::Node& node,
                                     const std::string& keep_prefix) {
  // Prefer generations that are already durable on the netfs; drop
  // unflushed files only as a last resort.
  for (bool require_flushed : {true, false}) {
    for (const auto& [gen, files] : gen_files_) {
      if (gen == keep_prefix) continue;
      std::size_t removed = 0;
      for (const std::string& f : files) {
        if (IsManifest(f)) continue;
        if (require_flushed) {
          auto m = index_.find(f);
          if (m == index_.end() || !m->second.flushed) continue;
        }
        if (SysOk(node.disk().Remove(f))) ++removed;
        if (SysOk(node.disk().Remove(std::string(kPartnerPrefix) + f))) {
          ++removed;
        }
      }
      if (removed > 0) {
        sim_.metrics().counter("ckpt.store.evictions_total").Add(1);
        sim_.tracer().Instant(
            "ckpt", "ckpt.store.evict",
            obs::TraceAttrs{}
                .Arg("gen", gen)
                .Arg("node", node.name())
                .Arg("files", static_cast<std::uint64_t>(removed))
                .Arg("reason", "enospc"));
        return true;
      }
    }
  }
  return false;
}

SysResult TieredStore::WriteNetfs(const std::string& path,
                                  const cruz::SharedBytes& bytes) {
  SysResult w = netfs_.WriteShared(path, bytes);
  if (SysErrno(w) != CRUZ_ENOSPC) return w;
  NotifyNoSpace("netfs", path);
  while (SysErrno(w) == CRUZ_ENOSPC &&
         EvictGenerationForSpace(GenPrefixOf(path))) {
    w = netfs_.WriteShared(path, bytes);
  }
  return w;
}

bool TieredStore::EvictGenerationForSpace(const std::string& current) {
  if (current.empty()) return false;
  // Committed generations (those with a manifest) under current's root,
  // oldest first: the zero-padded numbers sort as strings.
  const std::string root = current.substr(0, current.rfind("/gen_") + 5);
  std::vector<std::string> committed;
  for (const auto& [gen, files] : gen_files_) {
    if (HasPrefix(gen, root) && files.count(gen + "/MANIFEST") > 0) {
      committed.push_back(gen);
    }
  }
  // Never trade a newer restore point for an older one: a late flush of
  // an old generation waits for room instead.
  if (committed.size() < 2 || committed.front() >= current) return false;
  const std::string& gen = committed.front();
  std::size_t removed = DiscardPrefix(gen);
  CRUZ_WARN("ckpt") << gen << ": evicted to reclaim netfs space";
  sim_.metrics().counter("ckpt.store.evictions_total").Add(1);
  sim_.tracer().Instant(
      "ckpt", "ckpt.store.evict",
      obs::TraceAttrs{}
          .Arg("gen", gen)
          .Arg("node", "netfs")
          .Arg("files", static_cast<std::uint64_t>(removed))
          .Arg("reason", "enospc"));
  return true;
}

void TieredStore::EnforceRetention() {
  if (keep_local_ == 0 || gen_files_.size() <= keep_local_) return;
  std::size_t evictable = gen_files_.size() - keep_local_;
  for (const auto& [gen, files] : gen_files_) {
    if (evictable == 0) break;
    --evictable;
    bool durable = true;
    for (const std::string& f : files) {
      if (IsManifest(f)) continue;
      auto m = index_.find(f);
      if (m == index_.end() || !m->second.flushed) {
        durable = false;
        break;
      }
    }
    if (!durable) continue;  // keep cache copies until the flush lands
    std::size_t removed = 0;
    for (const std::string& f : files) {
      if (IsManifest(f)) continue;
      for (os::Node* n : ring_) {
        if (SysOk(n->disk().Remove(f))) ++removed;
        if (SysOk(n->disk().Remove(std::string(kPartnerPrefix) + f))) {
          ++removed;
        }
      }
    }
    if (removed > 0) {
      sim_.metrics().counter("ckpt.store.evictions_total").Add(1);
      sim_.tracer().Instant(
          "ckpt", "ckpt.store.evict",
          obs::TraceAttrs{}
              .Arg("gen", gen)
              .Arg("files", static_cast<std::uint64_t>(removed))
              .Arg("reason", "retention"));
    }
  }
}

std::size_t TieredStore::RemoveEverywhere(const std::string& path) {
  std::size_t n = 0;
  const std::string guarded = std::string(kPartnerPrefix) + path;
  for (os::Node* node : ring_) {
    if (SysOk(node->disk().Remove(path))) ++n;
    if (SysOk(node->disk().Remove(guarded))) ++n;
  }
  SysResult r = netfs_.Remove(path);
  if (SysOk(r)) {
    ++n;
  } else if (SysErrno(r) == CRUZ_EIO) {
    auto m = index_.find(path);
    if (m != index_.end() && m->second.flushed) {
      tombstones_.insert(path);
      ScheduleReaper();
    }
  }
  pending_flush_.erase(path);
  index_.erase(path);
  std::string gen = GenPrefixOf(path);
  auto g = gen_files_.find(gen);
  if (g != gen_files_.end()) {
    g->second.erase(path);
    if (g->second.empty()) gen_files_.erase(g);
  }
  return n;
}

std::size_t TieredStore::DiscardPrefix(const std::string& prefix) {
  fenced_.insert(prefix);
  std::size_t n = 0;
  const std::string guarded = std::string(kPartnerPrefix) + prefix;
  for (os::Node* node : ring_) {
    for (const std::string& p : node->disk().List(prefix)) {
      if (SysOk(node->disk().Remove(p))) ++n;
    }
    for (const std::string& p : node->disk().List(guarded)) {
      if (SysOk(node->disk().Remove(p))) ++n;
    }
  }
  // Netfs copies: whatever is visible now, plus everything the index
  // says was (or may have been) flushed — an outage must not leave
  // half-flushed orphans behind, so unremovable paths are tombstoned.
  std::set<std::string> candidates;
  for (const std::string& p : netfs_.List(prefix)) candidates.insert(p);
  for (auto it = gen_files_.begin(); it != gen_files_.end();) {
    if (!HasPrefix(it->first, prefix)) {
      ++it;
      continue;
    }
    for (const std::string& f : it->second) {
      candidates.insert(f);
      pending_flush_.erase(f);
    }
    it = gen_files_.erase(it);
  }
  for (const std::string& p : candidates) {
    SysResult r = netfs_.Remove(p);
    if (SysOk(r)) {
      ++n;
    } else if (SysErrno(r) == CRUZ_EIO) {
      auto m = index_.find(p);
      if (m == index_.end() || m->second.flushed) {
        tombstones_.insert(p);
        ScheduleReaper();
      }
    }
    index_.erase(p);
  }
  for (auto it = pending_flush_.begin(); it != pending_flush_.end();) {
    if (HasPrefix(it->first, prefix)) {
      it = pending_flush_.erase(it);
    } else {
      ++it;
    }
  }
  if (n > 0) {
    sim_.tracer().Instant(
        "ckpt", "ckpt.store.discard",
        obs::TraceAttrs{}.Arg("prefix", prefix).Arg(
            "files", static_cast<std::uint64_t>(n)));
  }
  return n;
}

void TieredStore::ScheduleReaper() {
  if (reaper_scheduled_) return;
  reaper_scheduled_ = true;
  sim_.Schedule(kFlushRetryMax, [this] { ReapTombstones(); });
}

void TieredStore::ReapTombstones() {
  reaper_scheduled_ = false;
  for (auto it = tombstones_.begin(); it != tombstones_.end();) {
    SysResult r = netfs_.Remove(*it);
    if (SysOk(r) || SysErrno(r) == CRUZ_ENOENT) {
      sim_.tracer().Instant("ckpt", "ckpt.store.reap",
                            obs::TraceAttrs{}.Arg("path", *it));
      it = tombstones_.erase(it);
    } else {
      ++it;
    }
  }
  if (!tombstones_.empty()) ScheduleReaper();
}

bool TieredStore::FlushedToNetfs(const std::string& path) const {
  auto it = index_.find(path);
  return it != index_.end() && it->second.flushed;
}

std::uint64_t TieredStore::BytesUnderPrefix(const std::string& prefix) const {
  std::uint64_t total = 0;
  const std::string guarded = std::string(kPartnerPrefix) + prefix;
  for (os::Node* n : ring_) {
    for (const std::string& p : n->disk().List(prefix)) {
      SysResult s = n->disk().FileSize(p);
      if (SysOk(s)) total += static_cast<std::uint64_t>(s);
    }
    for (const std::string& p : n->disk().List(guarded)) {
      SysResult s = n->disk().FileSize(p);
      if (SysOk(s)) total += static_cast<std::uint64_t>(s);
    }
  }
  for (const std::string& p : netfs_.List(prefix)) {
    SysResult s = netfs_.FileSize(p);
    if (SysOk(s)) total += static_cast<std::uint64_t>(s);
  }
  return total;
}

}  // namespace cruz::ckpt
