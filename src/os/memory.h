// Sparse paged process memory with copy-on-write snapshots.
//
// A process address space is a page table from page index to 4 KiB
// pages, allocated on first write. The checkpoint engine serializes only
// the allocated (non-zero) pages — "most of the state consists of the
// non-zero contents of the virtual memory of all processes running in the
// pod" (paper §6) — so checkpoint size tracks what the application
// touched.
//
// The table is two levels, as a kernel's last two are: a page index is a
// leaf key (its high bits) and a slot in that leaf (its low four bits).
// A leaf holds 16 entries; an entry is a page handle plus the page's
// dirty and missing bits, kept as one bit mask per leaf so that listing,
// counting and clearing go a leaf at a time. Leaves exist only where a
// page is resident, dirty or missing, and a sorted directory of leaves
// finds them, so the table is sized by the pages mapped, never by the
// highest index: an empty Memory allocates nothing, and a process with a
// few scattered pages (an idle echo pod) costs a few small leaves. An
// access does one table step (a directory search) per page it touches.
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

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <set>
#include <span>
#include <utility>
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
  // (page index, page) in ascending index order.
  using PageList = std::vector<std::pair<std::uint64_t, SharedPage>>;

  MemorySnapshot() = default;
  explicit MemorySnapshot(PageList pages) : pages_(std::move(pages)) {}

  const PageList& pages() const { return pages_; }
  std::size_t PageCount() const { return pages_.size(); }
  std::uint64_t ResidentBytes() const { return pages_.size() * kPageSize; }

  // Returns nullptr for pages not present at snapshot time.
  const Page* Find(std::uint64_t page_index) const {
    auto it = std::lower_bound(
        pages_.begin(), pages_.end(), page_index,
        [](const auto& entry, std::uint64_t i) { return entry.first < i; });
    return it == pages_.end() || it->first != page_index ? nullptr
                                                          : it->second.get();
  }

 private:
  PageList pages_;
};

class Memory {
 public:
  using Page = os::Page;

 private:
  static constexpr unsigned kLeafShift = 4;
  static constexpr std::uint64_t kLeafSlots = std::uint64_t{1} << kLeafShift;

  // kLeafSlots consecutive entries. Bit i of each mask belongs to slot i.
  struct Leaf {
    std::uint64_t resident = 0;  // pages[i] is set
    std::uint64_t dirty = 0;
    std::uint64_t missing = 0;
    std::array<std::shared_ptr<Page>, kLeafSlots> pages;

    bool Empty() const { return (resident | dirty | missing) == 0; }
  };
  struct DirEntry {
    std::uint64_t key = 0;  // page_index >> kLeafShift
    std::unique_ptr<Leaf> leaf;
  };

 public:
  // Resident pages in ascending page order, as (page index, page) pairs.
  // Valid until the next non-const call on this Memory: any of them may
  // create or free a leaf (ClearDirty and MarkMissing included), which
  // moves the directory the range points into.
  class PageIterator {
   public:
    using value_type = std::pair<std::uint64_t, const Page*>;
    using difference_type = std::ptrdiff_t;

    PageIterator() = default;
    PageIterator(const DirEntry* dir, const DirEntry* end)
        : dir_(dir), end_(end) {
      Settle();
    }
    value_type operator*() const {
      const unsigned slot = static_cast<unsigned>(std::countr_zero(bits_));
      return {(dir_->key << kLeafShift) | slot, dir_->leaf->pages[slot].get()};
    }
    PageIterator& operator++() {
      bits_ &= bits_ - 1;
      if (bits_ == 0) {
        ++dir_;
        Settle();
      }
      return *this;
    }
    PageIterator operator++(int) {
      PageIterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const PageIterator& o) const {
      return dir_ == o.dir_ && bits_ == o.bits_;
    }

   private:
    // Moves to the first resident slot at or after dir_.
    void Settle() {
      for (; dir_ != end_; ++dir_) {
        bits_ = dir_->leaf->resident;
        if (bits_ != 0) return;
      }
      bits_ = 0;
    }

    const DirEntry* dir_ = nullptr;
    const DirEntry* end_ = nullptr;
    std::uint64_t bits_ = 0;  // resident slots of *dir_ not yet visited
  };
  struct PageRange {
    PageIterator first, last;
    PageIterator begin() const { return first; }
    PageIterator end() const { return last; }
  };

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
  PageRange pages() const {
    const DirEntry* end = dir_.data() + dir_.size();
    return {PageIterator(dir_.data(), end), PageIterator(end, end)};
  }
  std::size_t PageCount() const { return resident_count_; }
  std::size_t ResidentBytes() const { return resident_count_ * kPageSize; }
  // Installs a private copy of `content`, marking the page dirty.
  void InstallPage(std::uint64_t page_index, cruz::ByteSpan content);
  // Installs `page` itself, shared with its other holders and marked
  // dirty as InstallPage marks it. The first write copies it while
  // another holder exists (counted in cow_faults), so no holder ever
  // sees this Memory's writes.
  void AdoptPage(std::uint64_t page_index, SharedPage page);
  // Drops every resident and missing page; dirty bits stay.
  void Clear();

  // Drops pages that are entirely zero (used to keep checkpoints small).
  // Their dirty bits stay.
  void DropZeroPages();

  // --- demand paging (post-copy migration) ---------------------------------
  // Declares a page as known-but-not-resident: its content exists on the
  // migration source and any touch before FillPage() raises a PageFault.
  void MarkMissing(std::uint64_t page_index);
  bool IsMissing(std::uint64_t page_index) const {
    return EntryBits(page_index, &Leaf::missing) != 0;
  }
  std::set<std::uint64_t> missing_pages() const {
    return CollectPages(&Leaf::missing);
  }
  bool HasMissingPages() const { return missing_count_ != 0; }
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
  // The bits live in the page table; the std::set view is materialized
  // lazily on demand so callers keep the exact ordered-set semantics
  // they always had.
  const std::set<std::uint64_t>& dirty_pages() const;
  void ClearDirty();
  // Number of dirty pages, kept as bits are set, so counting never builds
  // the ordered set.
  std::size_t DirtyPageCount() const { return dirty_count_; }
  bool IsDirty(std::uint64_t page_index) const {
    return EntryBits(page_index, &Leaf::dirty) != 0;
  }

 private:
  static unsigned Slot(std::uint64_t page_index) {
    return static_cast<unsigned>(page_index & (kLeafSlots - 1));
  }
  static std::uint64_t SlotBit(std::uint64_t page_index) {
    return std::uint64_t{1} << Slot(page_index);
  }
  // First directory entry whose key is not below `key`.
  std::vector<DirEntry>::const_iterator LowerBound(std::uint64_t key) const;
  // The leaf holding `key`'s entries, or nullptr.
  Leaf* FindLeaf(std::uint64_t key) const;
  Leaf& LeafForWrite(std::uint64_t key);
  // `page_index`'s bit of the given mask, 0 if it has no leaf.
  std::uint64_t EntryBits(std::uint64_t page_index,
                          std::uint64_t Leaf::*mask) const {
    const Leaf* leaf = FindLeaf(page_index >> kLeafShift);
    return leaf == nullptr ? 0 : leaf->*mask & SlotBit(page_index);
  }
  std::set<std::uint64_t> CollectPages(std::uint64_t Leaf::*mask) const;
  // Frees leaves with no resident, dirty or missing entry.
  void DropEmptyLeaves();
  void MarkDirty(Leaf& leaf, std::uint64_t bit);
  void Install(std::uint64_t page_index, std::shared_ptr<Page> page);
  Page& PageForWrite(std::uint64_t page_index);
  // Returns nullptr for never-written pages (reads see zeros).
  const Page* PageForRead(std::uint64_t page_index) const;
  // Throws PageFault for the lowest missing page in [addr, addr + n).
  void FaultOnMissing(std::uint64_t addr, std::size_t n) const;

  // Leaves in ascending key order. Pages are shared with snapshots and
  // adopted from images; a write that hits a shared page (use_count > 1)
  // clones it first.
  std::vector<DirEntry> dir_;
  std::size_t resident_count_ = 0;
  std::size_t dirty_count_ = 0;
  std::size_t missing_count_ = 0;
  mutable std::set<std::uint64_t> dirty_cache_;
  mutable bool dirty_cache_valid_ = true;
  std::uint64_t cow_faults_ = 0;
};

}  // namespace cruz::os
