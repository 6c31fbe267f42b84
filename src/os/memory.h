// Sparse paged process memory with copy-on-write snapshots.
//
// A process address space is a map from page index to 4 KiB pages,
// allocated on first write. The checkpoint engine serializes only the
// allocated (non-zero) pages — "most of the state consists of the non-zero
// contents of the virtual memory of all processes running in the pod"
// (paper §6) — so checkpoint size tracks what the application touched.
//
// Pages are reference-counted so a checkpoint can take a MemorySnapshot —
// a frozen view sharing every page — in O(page table) time while the pod
// is stopped (paper §5.2, forked checkpointing). After the pod resumes,
// the first write to a shared page copies it privately (a "COW fault"),
// so the snapshot stays byte-stable while the background write-out
// serializes it, and the running pod pays only for the pages it touches.
//
// A restore adopts the decoded image's page handles instead of copying
// them (AdoptPage): an adopted page is shared with the image that holds
// it and is copied by the first write only while that holder lives, as a
// snapshot-shared page is.
//
// Post-copy live migration adds a third page state: *missing*. A missing
// page has known-but-not-yet-transferred content living on the migration
// source; any touch raises a PageFault so the OS can suspend the faulting
// process until FillPage() delivers the bytes. Missing is distinct from
// absent: absent (never-written) pages still read as zeros.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"

namespace cruz::os {

constexpr std::size_t kPageSize = 4096;
constexpr std::uint64_t kPageShift = 12;

// One page's bytes, always kPageSize long, and a shared read-only handle
// to it. Handles are what snapshots, checkpoint images and a restored
// Memory hold in common. Allocate a page as a mutable Page
// (std::make_shared<Page>): a Memory that adopts it writes it in place
// once it is the only holder.
using Page = std::vector<std::uint8_t>;
using SharedPage = std::shared_ptr<const Page>;

// Page bytes Memory copied since process start, over all threads: page
// content installed (InstallPage, FillPage) and pages cloned by COW
// faults. Adopted pages and application writes are not copies. A
// host-side work counter, like Crc32BytesTotal(): it never enters a trace
// or an export.
std::uint64_t MemoryBytesCopiedTotal();

// Thrown by Memory on any access to a missing (demand-paged) page. The OS
// catches it in RunStep, rewinds the thread, and parks the whole process
// until the page server delivers the content.
struct PageFault {
  std::uint64_t page_index = 0;
};

// Immutable view of a memory image at snapshot time. Pages are shared
// with the live Memory until the pod writes to them; the snapshot keeps
// its own references, so it is unaffected by later writes (which copy)
// and by page drops in the live address space.
class MemorySnapshot {
 public:
  using Page = os::Page;
  using PageMap = std::map<std::uint64_t, SharedPage>;

  MemorySnapshot() = default;
  explicit MemorySnapshot(PageMap pages) : pages_(std::move(pages)) {}

  const PageMap& pages() const { return pages_; }
  std::size_t PageCount() const { return pages_.size(); }
  std::uint64_t ResidentBytes() const { return pages_.size() * kPageSize; }

  // Returns nullptr for pages not present at snapshot time.
  const Page* Find(std::uint64_t page_index) const {
    auto it = pages_.find(page_index);
    return it == pages_.end() ? nullptr : it->second.get();
  }

 private:
  PageMap pages_;
};

class Memory {
 public:
  using Page = os::Page;

  // --- raw access -----------------------------------------------------------
  void WriteBytes(std::uint64_t addr, cruz::ByteSpan data);
  void ReadBytes(std::uint64_t addr, std::uint8_t* out, std::size_t n) const;
  cruz::Bytes ReadBytes(std::uint64_t addr, std::size_t n) const;

  // --- typed helpers ----------------------------------------------------------
  void WriteU64(std::uint64_t addr, std::uint64_t v);
  std::uint64_t ReadU64(std::uint64_t addr) const;
  void WriteF64(std::uint64_t addr, double v);
  double ReadF64(std::uint64_t addr) const;

  // --- typed spans (array rows) ---------------------------------------------
  // Same bytes, page touches, dirty set and COW faults as one
  // ReadF64/WriteF64 per element in address order, but a page at a time.
  // Every page in the range is checked for residency first, so a span
  // touching a missing page raises its PageFault before any byte moves.
  void ReadF64s(std::uint64_t addr, std::span<double> out) const;
  void WriteF64s(std::uint64_t addr, std::span<const double> values);

  // --- pages -------------------------------------------------------------------
  const std::map<std::uint64_t, std::shared_ptr<Page>>& pages() const {
    return pages_;
  }
  std::size_t PageCount() const { return pages_.size(); }
  std::size_t ResidentBytes() const { return pages_.size() * kPageSize; }
  // Installs a private copy of `content`, marking the page dirty.
  void InstallPage(std::uint64_t page_index, cruz::ByteSpan content);
  // Installs `page` itself, shared with its other holders and marked
  // dirty as InstallPage marks it. The first write copies it while
  // another holder exists (counted in cow_faults), so no holder ever
  // sees this Memory's writes.
  void AdoptPage(std::uint64_t page_index, SharedPage page);
  void Clear() {
    pages_.clear();
    missing_.clear();
  }

  // Drops pages that are entirely zero (used to keep checkpoints small).
  void DropZeroPages();

  // --- demand paging (post-copy migration) ---------------------------------
  // Declares a page as known-but-not-resident: its content exists on the
  // migration source and any touch before FillPage() raises a PageFault.
  void MarkMissing(std::uint64_t page_index);
  bool IsMissing(std::uint64_t page_index) const {
    return missing_.count(page_index) != 0;
  }
  const std::set<std::uint64_t>& missing_pages() const { return missing_; }
  bool HasMissingPages() const { return !missing_.empty(); }
  // Installs `content` iff the page is still missing and returns true.
  // A fill for a page that is already resident is dropped (false): this
  // is what makes duplicate page responses — retransmits, background push
  // racing a demand fetch — idempotent instead of state-corrupting.
  bool FillPage(std::uint64_t page_index, cruz::ByteSpan content);

  // --- copy-on-write snapshots (forked checkpointing, paper §5.2) ----------
  // Freezes the current image by sharing every page with the returned
  // snapshot. O(page table), no page copies. Writes after the snapshot
  // copy the touched page first (counted in cow_faults), so the snapshot
  // is byte-stable forever.
  MemorySnapshot Snapshot() const;

  // Pages copied because a write hit a page shared with a snapshot or an
  // image.
  std::uint64_t cow_faults() const { return cow_faults_; }
  void ResetCowFaults() { cow_faults_ = 0; }

  // --- dirty tracking (incremental checkpointing, paper §5.2) -------------
  // Every write marks its pages dirty; an incremental checkpoint saves
  // only pages dirtied since the previous checkpoint cleared the set.
  // Internally a word-indexed bitmap (O(1) test-and-set on the write hot
  // path); the std::set view is materialized lazily on demand so callers
  // keep the exact ordered-set semantics they always had.
  const std::set<std::uint64_t>& dirty_pages() const;
  void ClearDirty() {
    dirty_words_.clear();
    dirty_cache_.clear();
    dirty_cache_valid_ = true;
  }
  // Number of dirty pages: a popcount over the bitmap, so counting never
  // builds the ordered set.
  std::size_t DirtyPageCount() const;
  bool IsDirty(std::uint64_t page_index) const {
    auto it = dirty_words_.find(page_index >> 6);
    return it != dirty_words_.end() &&
           (it->second >> (page_index & 63)) & 1u;
  }

 private:
  void MarkDirty(std::uint64_t page_index);
  Page& PageForWrite(std::uint64_t page_index);
  // Returns nullptr for never-written pages (reads see zeros).
  const Page* PageForRead(std::uint64_t page_index) const;
  // Throws PageFault for the lowest missing page in [addr, addr + n).
  void FaultOnMissing(std::uint64_t addr, std::size_t n) const;

  // Pages are shared with snapshots and adopted from images; a write that
  // hits a shared page (use_count > 1) clones it first.
  std::map<std::uint64_t, std::shared_ptr<Page>> pages_;
  // Demand-paged pages: content pending delivery, any touch faults.
  std::set<std::uint64_t> missing_;
  // Dirty bitmap: page-index word (index >> 6) -> 64-page bit mask.
  std::unordered_map<std::uint64_t, std::uint64_t> dirty_words_;
  mutable std::set<std::uint64_t> dirty_cache_;
  mutable bool dirty_cache_valid_ = true;
  std::uint64_t cow_faults_ = 0;
};

}  // namespace cruz::os
