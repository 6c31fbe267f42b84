#include "common/crc32.h"
#include "common/crc32_detail.h"

#include <array>
#include <atomic>

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define CRUZ_CRC32_CLMUL 1
#include <immintrin.h>
#endif

namespace cruz {
namespace {

std::atomic<std::uint64_t> g_crc_bytes{0};

// Slicing-by-8: table[0] is the classic byte-wise CRC-32 (IEEE,
// reflected 0xEDB88320) table; table[k][b] extends table[k-1][b] by one
// zero byte. Eight input bytes are then folded per iteration with eight
// independent lookups instead of an 8-deep dependency chain, which is
// what makes checkpoint page checksumming CPU-bound on table lookups
// rather than on the serial (crc >> 8) recurrence.
struct SlicingTables {
  std::array<std::array<std::uint32_t, 256>, 8> t{};

  SlicingTables() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
      }
    }
  }
};

const SlicingTables& Tables() {
  static const SlicingTables tables;
  return tables;
}

#ifdef CRUZ_CRC32_CLMUL
// Carry-less folding (Gopal et al., "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ", Intel 2009), in the bit-reflected domain
// of 0xEDB88320. Each fold constant is x^e mod P for its fold distance
// e, reflected and shifted left by one. Only these functions carry the
// target attribute; the rest of the build stays baseline x86-64.
#define CRUZ_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

CRUZ_CLMUL_TARGET inline __m128i Load(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Moves the 128-bit remainder `acc` forward by the distance `k` encodes
// (low qword times k.lo, high qword times k.hi) and adds `next`.
CRUZ_CLMUL_TARGET inline __m128i Fold(__m128i acc, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                                     _mm_clmulepi64_si128(acc, k, 0x11)),
                       next);
}

// Advances the raw register over n bytes; n >= 64 and n % 16 == 0.
CRUZ_CLMUL_TARGET std::uint32_t FoldClmul(std::uint32_t reg,
                                          const std::uint8_t* p,
                                          std::size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);  // 512 bits
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);  // 128 bits
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);              // 64 bits
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  // Four independent lanes, 64 bytes per iteration.
  __m128i x0 =
      _mm_xor_si128(Load(p), _mm_cvtsi32_si128(static_cast<int>(reg)));
  __m128i x1 = Load(p + 16);
  __m128i x2 = Load(p + 32);
  __m128i x3 = Load(p + 48);
  p += 64;
  n -= 64;
  while (n >= 64) {
    x0 = Fold(x0, k1k2, Load(p));
    x1 = Fold(x1, k1k2, Load(p + 16));
    x2 = Fold(x2, k1k2, Load(p + 32));
    x3 = Fold(x3, k1k2, Load(p + 48));
    p += 64;
    n -= 64;
  }

  // Lanes into one, then one lane per 16 bytes.
  x0 = Fold(x0, k3k4, x1);
  x0 = Fold(x0, k3k4, x2);
  x0 = Fold(x0, k3k4, x3);
  while (n >= 16) {
    x0 = Fold(x0, k3k4, Load(p));
    p += 16;
    n -= 16;
  }

  // 128 -> 96 -> 64 bits.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k3k4, 0x10));
  x0 = _mm_xor_si128(
      _mm_srli_si128(x0, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00));

  // Barrett reduction to 32 bits: q = (x mod x^32) * mu, x ^= q * P'.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly_mu, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly_mu, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x0, q), 1));
}

// Folds the largest 16-byte multiple of inputs of 64 bytes or more; the
// table loop finishes the tail, so every length and split matches the
// portable kernel bit for bit.
std::uint32_t Crc32Clmul(std::uint32_t reg, ByteSpan data) {
  std::size_t bulk = data.size() >= 64 ? data.size() & ~std::size_t{15} : 0;
  if (bulk != 0) reg = FoldClmul(reg, data.data(), bulk);
  return detail::Crc32Portable(reg, data.subspan(bulk));
}

bool CpuHasClmul() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}
#endif  // CRUZ_CRC32_CLMUL

}  // namespace

namespace detail {

std::uint32_t Crc32Portable(std::uint32_t reg, ByteSpan data) {
  const auto& t = Tables().t;
  std::uint32_t c = reg;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  while (n >= 8) {
    // Byte-assembled little-endian loads keep the fold endian-neutral.
    std::uint32_t lo = static_cast<std::uint32_t>(p[0]) |
                       (static_cast<std::uint32_t>(p[1]) << 8) |
                       (static_cast<std::uint32_t>(p[2]) << 16) |
                       (static_cast<std::uint32_t>(p[3]) << 24);
    std::uint32_t hi = static_cast<std::uint32_t>(p[4]) |
                       (static_cast<std::uint32_t>(p[5]) << 8) |
                       (static_cast<std::uint32_t>(p[6]) << 16) |
                       (static_cast<std::uint32_t>(p[7]) << 24);
    lo ^= c;
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    c = t[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

Crc32Kernel Crc32ClmulKernel() {
#ifdef CRUZ_CRC32_CLMUL
  static const bool supported = CpuHasClmul();
  if (supported) return &Crc32Clmul;
#endif
  return nullptr;
}

Crc32Kernel Crc32SelectedKernel() {
  static const Crc32Kernel kernel =
      Crc32ClmulKernel() != nullptr ? Crc32ClmulKernel() : &Crc32Portable;
  return kernel;
}

}  // namespace detail

void Crc32Accumulator::Update(ByteSpan data) {
  g_crc_bytes.fetch_add(data.size(), std::memory_order_relaxed);
  state_ = detail::Crc32SelectedKernel()(state_, data);
}

std::uint64_t Crc32BytesTotal() {
  return g_crc_bytes.load(std::memory_order_relaxed);
}

std::uint32_t Crc32(ByteSpan data) {
  Crc32Accumulator acc;
  acc.Update(data);
  return acc.Finish();
}

ByteSpan GetRecord(ByteReader& r) {
  const std::uint32_t len = r.GetU32();
  const std::uint32_t crc = r.GetU32();
  ByteSpan body = r.GetSpan(len);
  if (Crc32(body) != crc) throw CodecError("record CRC mismatch");
  return body;
}

}  // namespace cruz
