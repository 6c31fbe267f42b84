#include "ckpt/page_codec.h"

#include <bit>
#include <cstring>

#include "common/crc32.h"
#include "common/error.h"
#include "os/memory.h"

namespace cruz::ckpt {

namespace {

// A whole page fits one RLE token, so runs never need splitting.
static_assert(os::kPageSize <= 0xFFFF, "RLE run lengths are u16");

constexpr std::size_t kHeader = 5;  // codec id + CRC-32
constexpr std::size_t kToken = 3;   // u16 run length + u8 value

// Length of the run of `value` starting at `start`. Scans eight bytes
// per step: XOR against a splatted word leaves the first mismatching
// byte nonzero, and the endian-appropriate zero count locates it in
// memory order.
std::size_t RunLength(cruz::ByteSpan page, std::size_t start,
                      std::uint8_t value) {
  const std::uint64_t splat = 0x0101010101010101ull * value;
  std::size_t i = start;
  const std::size_t limit = page.size();
  while (i + 8 <= limit) {
    std::uint64_t word;
    std::memcpy(&word, page.data() + i, 8);
    std::uint64_t diff = word ^ splat;
    if (diff != 0) {
      int first = std::endian::native == std::endian::little
                      ? std::countr_zero(diff) / 8
                      : std::countl_zero(diff) / 8;
      return i + static_cast<std::size_t>(first) - start;
    }
    i += 8;
  }
  while (i < limit && page[i] == value) ++i;
  return i - start;
}

// Number of (u16 length, u8 value) tokens the RLE body needs: one per
// maximal run of equal bytes, as no run is ever split. Counts byte
// transitions eight at a time (XOR of the words at i and i + 1 is
// nonzero exactly in the bytes that differ from their successor) and
// stops once `limit` runs are reached.
std::size_t CountRuns(cruz::ByteSpan page, std::size_t limit) {
  constexpr std::uint64_t kLow7 = 0x7F7F7F7F7F7F7F7Full;
  constexpr std::uint64_t kBytes = 0x0101010101010101ull;
  const std::uint8_t* p = page.data();
  std::size_t runs = 1;
  std::size_t i = 0;
  while (i + 9 <= page.size() && runs < limit) {
    std::uint64_t a, b;
    std::memcpy(&a, p + i, 8);
    std::memcpy(&b, p + i + 1, 8);
    std::uint64_t diff = a ^ b;
    // High bit of each byte set iff that byte of `diff` is nonzero.
    std::uint64_t nonzero = (((diff & kLow7) + kLow7) | diff) & ~kLow7;
    // Count those bits: shifted down to bit 0 of each byte, the multiply
    // sums the eight bytes (at most 8) into the top byte. Unlike
    // std::popcount it needs no POPCNT instruction or libgcc call.
    runs += static_cast<std::size_t>(((nonzero >> 7) * kBytes) >> 56);
    i += 8;
  }
  for (; i + 1 < page.size() && runs < limit; ++i) {
    if (p[i] != p[i + 1]) ++runs;
  }
  return runs;
}

}  // namespace

std::size_t EncodedPageSize(cruz::ByteSpan page, PageCodec preferred) {
  CRUZ_CHECK(page.size() == os::kPageSize, "EncodePage: wrong page size");
  if (preferred == PageCodec::kRle) {
    // RLE pays off iff its body (kToken bytes a run) is smaller than the
    // page; counting stops as soon as it cannot.
    const std::size_t max_runs = (page.size() - 1) / kToken;
    std::size_t runs = CountRuns(page, max_runs + 1);
    if (runs <= max_runs) return kHeader + kToken * runs;
    // RLE would not shrink this page; store it raw instead.
  }
  return kHeader + page.size();
}

void EncodePageInto(cruz::ByteWriter& out, cruz::ByteSpan page,
                    std::size_t encoded_size) {
  CRUZ_CHECK(page.size() == os::kPageSize, "EncodePage: wrong page size");
  const bool raw = encoded_size == kHeader + page.size();
  out.PutU8(static_cast<std::uint8_t>(raw ? PageCodec::kRaw : PageCodec::kRle));
  out.PutU32(cruz::Crc32(page));
  if (raw) {
    out.PutBytes(page);
    return;
  }
  for (std::size_t i = 0; i < page.size();) {
    std::uint8_t value = page[i];
    std::size_t run = RunLength(page, i, value);
    out.PutU16(static_cast<std::uint16_t>(run));
    out.PutU8(value);
    i += run;
  }
}

cruz::Bytes EncodePage(cruz::ByteSpan page, PageCodec preferred) {
  const std::size_t size = EncodedPageSize(page, preferred);
  cruz::ByteWriter out(size);
  EncodePageInto(out, page, size);
  return out.Take();
}

cruz::Bytes DecodePage(cruz::ByteSpan encoded) {
  cruz::ByteReader r(encoded);
  std::uint8_t codec = r.GetU8();
  std::uint32_t crc = r.GetU32();
  cruz::Bytes page;
  switch (static_cast<PageCodec>(codec)) {
    case PageCodec::kRaw:
      page = r.GetBytes(os::kPageSize);
      break;
    case PageCodec::kRle: {
      page.reserve(os::kPageSize);
      while (page.size() < os::kPageSize) {
        std::uint16_t run = r.GetU16();
        std::uint8_t value = r.GetU8();
        if (run == 0 || page.size() + run > os::kPageSize) {
          throw cruz::CodecError("compressed page: malformed run length");
        }
        page.insert(page.end(), run, value);
      }
      break;
    }
    default:
      throw cruz::CodecError("compressed page: unknown codec id " +
                             std::to_string(codec));
  }
  if (!r.AtEnd()) {
    throw cruz::CodecError("compressed page: trailing bytes");
  }
  if (cruz::Crc32(page) != crc) {
    throw cruz::CodecError("compressed page: CRC mismatch");
  }
  return page;
}

}  // namespace cruz::ckpt
