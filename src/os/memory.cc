#include "os/memory.h"

#include <algorithm>
#include <atomic>
#include <bit>

#include "common/error.h"

namespace cruz::os {

namespace {

std::atomic<std::uint64_t> g_bytes_copied{0};

void CountCopy() {
  g_bytes_copied.fetch_add(kPageSize, std::memory_order_relaxed);
}

}  // namespace

std::uint64_t MemoryBytesCopiedTotal() {
  return g_bytes_copied.load(std::memory_order_relaxed);
}

std::vector<Memory::DirEntry>::const_iterator Memory::LowerBound(
    std::uint64_t key) const {
  return std::lower_bound(
      dir_.begin(), dir_.end(), key,
      [](const DirEntry& e, std::uint64_t k) { return e.key < k; });
}

Memory::Leaf* Memory::FindLeaf(std::uint64_t key) const {
  auto it = LowerBound(key);
  return it == dir_.end() || it->key != key ? nullptr : it->leaf.get();
}

Memory::Leaf& Memory::LeafForWrite(std::uint64_t key) {
  if (Leaf* leaf = FindLeaf(key)) return *leaf;
  auto it =
      dir_.insert(LowerBound(key), DirEntry{key, std::make_unique<Leaf>()});
  return *it->leaf;
}

void Memory::DropEmptyLeaves() {
  std::erase_if(dir_, [](const DirEntry& e) { return e.leaf->Empty(); });
}

std::set<std::uint64_t> Memory::CollectPages(std::uint64_t Leaf::*mask) const {
  std::set<std::uint64_t> out;
  for (const DirEntry& e : dir_) {
    for (std::uint64_t bits = (*e.leaf).*mask; bits != 0; bits &= bits - 1) {
      const auto slot = static_cast<unsigned>(std::countr_zero(bits));
      out.emplace_hint(out.end(), (e.key << kLeafShift) | slot);
    }
  }
  return out;
}

void Memory::MarkDirty(Leaf& leaf, std::uint64_t bit) {
  if ((leaf.dirty & bit) == 0) {
    leaf.dirty |= bit;
    ++dirty_count_;
    dirty_cache_valid_ = false;
  }
}

const std::set<std::uint64_t>& Memory::dirty_pages() const {
  if (!dirty_cache_valid_) {
    dirty_cache_ = CollectPages(&Leaf::dirty);
    dirty_cache_valid_ = true;
  }
  return dirty_cache_;
}

void Memory::ClearDirty() {
  for (DirEntry& e : dir_) e.leaf->dirty = 0;
  dirty_count_ = 0;
  dirty_cache_.clear();
  dirty_cache_valid_ = true;
  DropEmptyLeaves();
}

Memory::Page& Memory::PageForWrite(std::uint64_t page_index) {
  Leaf& leaf = LeafForWrite(page_index >> kLeafShift);
  const std::uint64_t bit = SlotBit(page_index);
  if ((leaf.missing & bit) != 0) throw PageFault{page_index};
  MarkDirty(leaf, bit);
  std::shared_ptr<Page>& page = leaf.pages[Slot(page_index)];
  if (page == nullptr) {
    page = std::make_shared<Page>(kPageSize, 0);
    leaf.resident |= bit;
    ++resident_count_;
  } else if (page.use_count() > 1) {
    // The page is shared with at least one snapshot or image: copy
    // before the write so the other holders' view stays frozen (COW
    // fault).
    page = std::make_shared<Page>(*page);
    ++cow_faults_;
    CountCopy();
  }
  return *page;
}

const Memory::Page* Memory::PageForRead(std::uint64_t page_index) const {
  const Leaf* leaf = FindLeaf(page_index >> kLeafShift);
  if (leaf == nullptr) return nullptr;
  if ((leaf->missing & SlotBit(page_index)) != 0) throw PageFault{page_index};
  return leaf->pages[Slot(page_index)].get();
}

void Memory::WriteBytes(std::uint64_t addr, cruz::ByteSpan data) {
  std::size_t done = 0;
  while (done < data.size()) {
    std::uint64_t a = addr + done;
    std::uint64_t page_index = a >> kPageShift;
    std::size_t offset = static_cast<std::size_t>(a & (kPageSize - 1));
    std::size_t n = std::min(data.size() - done, kPageSize - offset);
    Page& page = PageForWrite(page_index);
    std::memcpy(page.data() + offset, data.data() + done, n);
    done += n;
  }
}

void Memory::ReadBytes(std::uint64_t addr, std::uint8_t* out,
                       std::size_t n) const {
  std::size_t done = 0;
  while (done < n) {
    std::uint64_t a = addr + done;
    std::uint64_t page_index = a >> kPageShift;
    std::size_t offset = static_cast<std::size_t>(a & (kPageSize - 1));
    std::size_t take = std::min(n - done, kPageSize - offset);
    const Page* page = PageForRead(page_index);
    if (page != nullptr) {
      std::memcpy(out + done, page->data() + offset, take);
    } else {
      std::memset(out + done, 0, take);
    }
    done += take;
  }
}

cruz::Bytes Memory::ReadBytes(std::uint64_t addr, std::size_t n) const {
  cruz::Bytes out(n);
  ReadBytes(addr, out.data(), n);
  return out;
}

// A word inside one page is copied with a fixed-size memcpy (one load or
// store) instead of going through the byte loop.
void Memory::WriteU64(std::uint64_t addr, std::uint64_t v) {
  std::uint8_t buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  const std::size_t offset = static_cast<std::size_t>(addr & (kPageSize - 1));
  if (offset <= kPageSize - sizeof buf) {
    std::memcpy(PageForWrite(addr >> kPageShift).data() + offset, buf,
                sizeof buf);
  } else {
    WriteBytes(addr, cruz::ByteSpan(buf, sizeof buf));
  }
}

std::uint64_t Memory::ReadU64(std::uint64_t addr) const {
  std::uint8_t buf[8];
  const std::size_t offset = static_cast<std::size_t>(addr & (kPageSize - 1));
  if (offset <= kPageSize - sizeof buf) {
    const Page* page = PageForRead(addr >> kPageShift);
    if (page == nullptr) return 0;
    std::memcpy(buf, page->data() + offset, sizeof buf);
  } else {
    ReadBytes(addr, buf, sizeof buf);
  }
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | buf[i];
  }
  return v;
}

void Memory::WriteF64(std::uint64_t addr, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  WriteU64(addr, bits);
}

double Memory::ReadF64(std::uint64_t addr) const {
  std::uint64_t bits = ReadU64(addr);
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

void Memory::FaultOnMissing(std::uint64_t addr, std::size_t n) const {
  if (missing_count_ == 0 || n == 0) return;
  const std::uint64_t last = (addr + n - 1) >> kPageShift;
  for (std::uint64_t page = addr >> kPageShift; page <= last; ++page) {
    if (IsMissing(page)) throw PageFault{page};
  }
}

void Memory::ReadF64s(std::uint64_t addr, std::span<double> out) const {
  FaultOnMissing(addr, out.size_bytes());
  if constexpr (std::endian::native == std::endian::little) {
    ReadBytes(addr, reinterpret_cast<std::uint8_t*>(out.data()),
              out.size_bytes());
  } else {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = ReadF64(addr + 8 * i);
    }
  }
}

void Memory::WriteF64s(std::uint64_t addr, std::span<const double> values) {
  FaultOnMissing(addr, values.size_bytes());
  if constexpr (std::endian::native == std::endian::little) {
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(values.data());
    WriteBytes(addr, cruz::ByteSpan(bytes, values.size_bytes()));
  } else {
    for (std::size_t i = 0; i < values.size(); ++i) {
      WriteF64(addr + 8 * i, values[i]);
    }
  }
}

void Memory::Install(std::uint64_t page_index, std::shared_ptr<Page> page) {
  Leaf& leaf = LeafForWrite(page_index >> kLeafShift);
  const std::uint64_t bit = SlotBit(page_index);
  if ((leaf.resident & bit) == 0) {
    leaf.resident |= bit;
    ++resident_count_;
  }
  leaf.pages[Slot(page_index)] = std::move(page);
  MarkDirty(leaf, bit);
}

void Memory::InstallPage(std::uint64_t page_index, cruz::ByteSpan content) {
  CRUZ_CHECK(content.size() == kPageSize, "InstallPage: wrong size");
  Install(page_index, std::make_shared<Page>(content.begin(), content.end()));
  CountCopy();
}

void Memory::AdoptPage(std::uint64_t page_index, SharedPage page) {
  CRUZ_CHECK(page != nullptr && page->size() == kPageSize,
             "AdoptPage: wrong size");
  // Pages are allocated mutable (see SharedPage); PageForWrite writes in
  // place only when this Memory is the page's sole holder.
  Install(page_index, std::const_pointer_cast<Page>(std::move(page)));
}

void Memory::Clear() {
  for (DirEntry& e : dir_) {
    e.leaf->pages.fill(nullptr);
    e.leaf->resident = 0;
    e.leaf->missing = 0;
  }
  resident_count_ = 0;
  missing_count_ = 0;
  DropEmptyLeaves();
}

void Memory::MarkMissing(std::uint64_t page_index) {
  Leaf& leaf = LeafForWrite(page_index >> kLeafShift);
  const std::uint64_t bit = SlotBit(page_index);
  CRUZ_CHECK((leaf.resident & bit) == 0, "MarkMissing: page is resident");
  if ((leaf.missing & bit) == 0) {
    leaf.missing |= bit;
    ++missing_count_;
  }
}

bool Memory::FillPage(std::uint64_t page_index, cruz::ByteSpan content) {
  Leaf* leaf = FindLeaf(page_index >> kLeafShift);
  const std::uint64_t bit = SlotBit(page_index);
  if (leaf == nullptr || (leaf->missing & bit) == 0) return false;
  leaf->missing &= ~bit;
  --missing_count_;
  InstallPage(page_index, content);
  return true;
}

void Memory::DropZeroPages() {
  for (DirEntry& e : dir_) {
    for (std::uint64_t bits = e.leaf->resident; bits != 0; bits &= bits - 1) {
      const unsigned slot = static_cast<unsigned>(std::countr_zero(bits));
      std::shared_ptr<Page>& page = e.leaf->pages[slot];
      if (std::all_of(page->begin(), page->end(),
                      [](std::uint8_t b) { return b == 0; })) {
        page.reset();
        e.leaf->resident &= ~(std::uint64_t{1} << slot);
        --resident_count_;
      }
    }
  }
  DropEmptyLeaves();
}

MemorySnapshot Memory::Snapshot() const {
  CRUZ_CHECK(missing_count_ == 0, "Snapshot: demand paging in progress");
  MemorySnapshot::PageList shared;
  shared.reserve(resident_count_);
  for (const DirEntry& e : dir_) {
    for (std::uint64_t bits = e.leaf->resident; bits != 0; bits &= bits - 1) {
      const unsigned slot = static_cast<unsigned>(std::countr_zero(bits));
      shared.emplace_back((e.key << kLeafShift) | slot, e.leaf->pages[slot]);
    }
  }
  return MemorySnapshot(std::move(shared));
}

}  // namespace cruz::os
