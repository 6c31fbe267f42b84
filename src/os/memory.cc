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

void Memory::MarkDirty(std::uint64_t page_index) {
  std::uint64_t& word = dirty_words_[page_index >> 6];
  std::uint64_t bit = 1ull << (page_index & 63);
  if ((word & bit) == 0) {
    word |= bit;
    dirty_cache_valid_ = false;
  }
}

const std::set<std::uint64_t>& Memory::dirty_pages() const {
  if (!dirty_cache_valid_) {
    dirty_cache_.clear();
    for (const auto& [word_index, word] : dirty_words_) {
      std::uint64_t bits = word;
      while (bits != 0) {
        int bit = std::countr_zero(bits);
        dirty_cache_.insert((word_index << 6) | static_cast<unsigned>(bit));
        bits &= bits - 1;
      }
    }
    dirty_cache_valid_ = true;
  }
  return dirty_cache_;
}

std::size_t Memory::DirtyPageCount() const {
  std::size_t n = 0;
  for (const auto& [word_index, word] : dirty_words_) {
    n += static_cast<std::size_t>(std::popcount(word));
  }
  return n;
}

Memory::Page& Memory::PageForWrite(std::uint64_t page_index) {
  if (!missing_.empty() && missing_.count(page_index) != 0) {
    throw PageFault{page_index};
  }
  MarkDirty(page_index);
  auto it = pages_.find(page_index);
  if (it == pages_.end()) {
    it = pages_.emplace(page_index, std::make_shared<Page>(kPageSize, 0))
             .first;
  } else if (it->second.use_count() > 1) {
    // The page is shared with at least one snapshot or image: copy
    // before the write so the other holders' view stays frozen (COW
    // fault).
    it->second = std::make_shared<Page>(*it->second);
    ++cow_faults_;
    CountCopy();
  }
  return *it->second;
}

const Memory::Page* Memory::PageForRead(std::uint64_t page_index) const {
  if (!missing_.empty() && missing_.count(page_index) != 0) {
    throw PageFault{page_index};
  }
  auto it = pages_.find(page_index);
  return it == pages_.end() ? nullptr : it->second.get();
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

void Memory::WriteU64(std::uint64_t addr, std::uint64_t v) {
  std::uint8_t buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  WriteBytes(addr, cruz::ByteSpan(buf, 8));
}

std::uint64_t Memory::ReadU64(std::uint64_t addr) const {
  std::uint8_t buf[8];
  ReadBytes(addr, buf, 8);
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
  if (missing_.empty() || n == 0) return;
  auto it = missing_.lower_bound(addr >> kPageShift);
  if (it != missing_.end() && *it <= (addr + n - 1) >> kPageShift) {
    throw PageFault{*it};
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

void Memory::InstallPage(std::uint64_t page_index, cruz::ByteSpan content) {
  CRUZ_CHECK(content.size() == kPageSize, "InstallPage: wrong size");
  pages_[page_index] =
      std::make_shared<Page>(content.begin(), content.end());
  CountCopy();
  MarkDirty(page_index);
}

void Memory::AdoptPage(std::uint64_t page_index, SharedPage page) {
  CRUZ_CHECK(page != nullptr && page->size() == kPageSize,
             "AdoptPage: wrong size");
  // Pages are allocated mutable (see SharedPage); PageForWrite writes in
  // place only when this Memory is the page's sole holder.
  pages_[page_index] = std::const_pointer_cast<Page>(std::move(page));
  MarkDirty(page_index);
}

void Memory::MarkMissing(std::uint64_t page_index) {
  CRUZ_CHECK(pages_.find(page_index) == pages_.end(),
             "MarkMissing: page is resident");
  missing_.insert(page_index);
}

bool Memory::FillPage(std::uint64_t page_index, cruz::ByteSpan content) {
  if (missing_.erase(page_index) == 0) return false;
  InstallPage(page_index, content);
  return true;
}

void Memory::DropZeroPages() {
  for (auto it = pages_.begin(); it != pages_.end();) {
    bool all_zero =
        std::all_of(it->second->begin(), it->second->end(),
                    [](std::uint8_t b) { return b == 0; });
    it = all_zero ? pages_.erase(it) : std::next(it);
  }
}

MemorySnapshot Memory::Snapshot() const {
  CRUZ_CHECK(missing_.empty(), "Snapshot: demand paging in progress");
  MemorySnapshot::PageMap shared;
  for (const auto& [index, page] : pages_) {
    shared.emplace(index, page);
  }
  return MemorySnapshot(std::move(shared));
}

}  // namespace cruz::os
