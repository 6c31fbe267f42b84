// Unit tests for the common substrate: byte codecs, CRC32, RNG, errno.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/crc32_detail.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/sysresult.h"
#include "common/units.h"

namespace cruz {
namespace {

TEST(Bytes, RoundTripIntegers) {
  ByteWriter w;
  w.PutU8(0xAB);
  w.PutU16(0x1234);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutI64(-42);
  w.PutBool(true);
  w.PutBool(false);

  ByteReader r(w.data());
  EXPECT_EQ(r.GetU8(), 0xAB);
  EXPECT_EQ(r.GetU16(), 0x1234);
  EXPECT_EQ(r.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(r.GetU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.GetI64(), -42);
  EXPECT_TRUE(r.GetBool());
  EXPECT_FALSE(r.GetBool());
  EXPECT_TRUE(r.AtEnd());
}

TEST(Bytes, BigEndianLayout) {
  ByteWriter w;
  w.PutU16(0x0102);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w.data()[0], 0x01);
  EXPECT_EQ(w.data()[1], 0x02);
}

TEST(Bytes, BlobAndString) {
  ByteWriter w;
  Bytes blob = {1, 2, 3, 4, 5};
  w.PutBlob(blob);
  w.PutString("hello world");

  ByteReader r(w.data());
  EXPECT_EQ(r.GetBlob(), blob);
  EXPECT_EQ(r.GetString(), "hello world");
  EXPECT_TRUE(r.AtEnd());
}

TEST(Bytes, EmptyBlob) {
  ByteWriter w;
  w.PutBlob({});
  ByteReader r(w.data());
  EXPECT_TRUE(r.GetBlob().empty());
}

TEST(Bytes, TruncationThrows) {
  ByteWriter w;
  w.PutU32(7);
  ByteReader r(w.data());
  r.GetU16();
  EXPECT_THROW(r.GetU32(), CodecError);
}

TEST(Bytes, TruncatedBlobThrows) {
  ByteWriter w;
  w.PutU32(100);  // claims 100 bytes follow
  w.PutU8(1);
  ByteReader r(w.data());
  EXPECT_THROW(r.GetBlob(), CodecError);
}

TEST(Bytes, PatchU16AndU32) {
  ByteWriter w;
  w.PutU16(0);
  w.PutU32(0);
  w.PatchU16(0, 0xBEEF);
  w.PatchU32(2, 0x01020304);
  ByteReader r(w.data());
  EXPECT_EQ(r.GetU16(), 0xBEEF);
  EXPECT_EQ(r.GetU32(), 0x01020304u);
}

TEST(Bytes, SkipAndRemaining) {
  ByteWriter w;
  w.PutU64(1);
  ByteReader r(w.data());
  EXPECT_EQ(r.remaining(), 8u);
  r.Skip(5);
  EXPECT_EQ(r.remaining(), 3u);
  EXPECT_THROW(r.Skip(4), CodecError);
}

TEST(Crc32, KnownVector) {
  // CRC-32("123456789") == 0xCBF43926 (standard check value).
  const char* s = "123456789";
  std::uint32_t crc = Crc32(ByteSpan(
      reinterpret_cast<const std::uint8_t*>(s), std::strlen(s)));
  EXPECT_EQ(crc, 0xCBF43926u);
}

TEST(Crc32, EmptyInput) { EXPECT_EQ(Crc32({}), 0u); }

TEST(Crc32, IncrementalMatchesOneShot) {
  Bytes data;
  for (int i = 0; i < 1000; ++i) data.push_back(static_cast<std::uint8_t>(i));
  Crc32Accumulator acc;
  acc.Update(ByteSpan(data.data(), 300));
  acc.Update(ByteSpan(data.data() + 300, 700));
  EXPECT_EQ(acc.Finish(), Crc32(data));
}

// Bitwise CRC-32, independent of both kernels: advances the raw register.
std::uint32_t BitwiseCrc32(std::uint32_t reg, ByteSpan data) {
  for (std::uint8_t b : data) {
    reg ^= b;
    for (int k = 0; k < 8; ++k) {
      reg = (reg & 1) ? (reg >> 1) ^ 0xEDB88320u : reg >> 1;
    }
  }
  return reg;
}

std::uint32_t ReferenceCrc32(ByteSpan data) {
  return BitwiseCrc32(0xFFFFFFFFu, data) ^ 0xFFFFFFFFu;
}

Bytes RandomBytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.NextU64());
  return out;
}

// The portable kernel, plus the CLMUL one where this CPU has it.
std::vector<detail::Crc32Kernel> AvailableKernels() {
  std::vector<detail::Crc32Kernel> kernels = {&detail::Crc32Portable};
  if (detail::Crc32ClmulKernel() != nullptr) {
    kernels.push_back(detail::Crc32ClmulKernel());
  }
  return kernels;
}

// Both kernels and the one-shot Crc32 on every length 0..4200 at every
// start offset 0..15. The reference register grows one byte at a time.
TEST(Crc32, KernelsMatchBitwiseAtEveryLengthAndOffset) {
  const Bytes buf = RandomBytes(4200 + 16, 7);
  const std::vector<detail::Crc32Kernel> kernels = AvailableKernels();
  for (std::size_t offset = 0; offset < 16; ++offset) {
    std::uint32_t reg = 0xFFFFFFFFu;
    for (std::size_t len = 0; len <= 4200; ++len) {
      if (len > 0) {
        reg = BitwiseCrc32(reg, ByteSpan(&buf[offset + len - 1], 1));
      }
      const ByteSpan data(buf.data() + offset, len);
      for (std::size_t k = 0; k < kernels.size(); ++k) {
        ASSERT_EQ(kernels[k](0xFFFFFFFFu, data), reg)
            << "kernel " << k << " offset " << offset << " len " << len;
      }
      ASSERT_EQ(Crc32(data), reg ^ 0xFFFFFFFFu)
          << "offset " << offset << " len " << len;
    }
  }
}

// Chunk splits on each side of the 64-byte CLMUL threshold: a chunk of
// 0..130 bytes, then the rest, then again in three chunks.
TEST(Crc32, AccumulatorSplitsAroundClmulThreshold) {
  const Bytes buf = RandomBytes(300, 11);
  const std::uint32_t want = ReferenceCrc32(buf);
  const ByteSpan all(buf);
  for (std::size_t a = 0; a <= 130; ++a) {
    Crc32Accumulator two;
    two.Update(all.first(a));
    two.Update(all.subspan(a));
    EXPECT_EQ(two.Finish(), want) << "split " << a;
    for (std::size_t b : {std::size_t{15}, std::size_t{63}, std::size_t{64},
                          std::size_t{65}}) {
      Crc32Accumulator three;
      three.Update(all.first(a));
      three.Update(all.subspan(a, b));
      three.Update(all.subspan(a + b));
      EXPECT_EQ(three.Finish(), want) << "split " << a << "+" << b;
    }
  }
}

TEST(Crc32, KernelsMatchOnCheckVectorFullPageAndLargeBuffer) {
  const char* s = "123456789";
  const ByteSpan check(reinterpret_cast<const std::uint8_t*>(s), 9);
  const Bytes ff(4096, 0xFF);
  const Bytes big = RandomBytes(2u << 20, 13);
  const std::uint32_t want_ff = ReferenceCrc32(ff);
  const std::uint32_t want_big = ReferenceCrc32(big);
  for (detail::Crc32Kernel kernel : AvailableKernels()) {
    EXPECT_EQ(kernel(0xFFFFFFFFu, check) ^ 0xFFFFFFFFu, 0xCBF43926u);
    EXPECT_EQ(kernel(0xFFFFFFFFu, ff) ^ 0xFFFFFFFFu, want_ff);
    EXPECT_EQ(kernel(0xFFFFFFFFu, big) ^ 0xFFFFFFFFu, want_big);
  }
  EXPECT_EQ(Crc32(ff), want_ff);
  EXPECT_EQ(Crc32(big), want_big);
}

// A CPU with PCLMULQDQ and SSE4.1 must run the CLMUL kernel, so a build
// that silently falls back to the table loop fails here.
TEST(Crc32, DispatchPicksClmulWhereTheCpuHasIt) {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1")) {
    ASSERT_NE(detail::Crc32ClmulKernel(), nullptr);
    EXPECT_EQ(detail::Crc32SelectedKernel(), detail::Crc32ClmulKernel());
    return;
  }
#endif
  EXPECT_EQ(detail::Crc32ClmulKernel(), nullptr);
  EXPECT_EQ(detail::Crc32SelectedKernel(), &detail::Crc32Portable);
}

TEST(Crc32, BytesTotalCountsEveryUpdate) {
  const Bytes data(100, 1);
  const std::uint64_t before = Crc32BytesTotal();
  Crc32Accumulator acc;
  acc.Update(ByteSpan(data).first(40));
  acc.Update(ByteSpan(data).subspan(40));
  (void)Crc32(data);
  EXPECT_EQ(Crc32BytesTotal() - before, 200u);
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(Rng, NextRangeInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    std::uint64_t v = rng.NextRange(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
  }
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  Rng rng(11);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBernoulli(0.25)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Rng, ForkIndependent) {
  Rng parent(21);
  Rng child = parent.Fork();
  // Child stream must not replay the parent stream.
  Rng parent2(21);
  parent2.Fork();
  EXPECT_EQ(parent.NextU64(), parent2.NextU64());
  EXPECT_NE(child.NextU64(), parent.NextU64());
}

TEST(SysResult, ErrnoRoundTrip) {
  SysResult r = SysErr(CRUZ_EAGAIN);
  EXPECT_FALSE(SysOk(r));
  EXPECT_EQ(SysErrno(r), CRUZ_EAGAIN);
  EXPECT_TRUE(SysOk(0));
  EXPECT_TRUE(SysOk(42));
  EXPECT_EQ(SysErrno(42), CRUZ_EOK);
}

TEST(SysResult, ErrnoNames) {
  EXPECT_STREQ(ErrnoName(CRUZ_ECONNREFUSED), "ECONNREFUSED");
  EXPECT_STREQ(ErrnoName(CRUZ_EOK), "OK");
  EXPECT_STREQ(ErrnoName(CRUZ_EPIPE), "EPIPE");
}

TEST(Units, TransmitTime) {
  // 1500 bytes at 1 Gb/s = 12 microseconds.
  EXPECT_EQ(TransmitTimeNs(1500, 1'000'000'000), 12 * kMicrosecond);
  EXPECT_EQ(TransmitTimeNs(1500, 0), 0u);
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(ToSeconds(1500 * kMillisecond), 1.5);
  EXPECT_DOUBLE_EQ(ToMillis(250 * kMicrosecond), 0.25);
  EXPECT_DOUBLE_EQ(ToMicros(3 * kMicrosecond), 3.0);
}

TEST(Error, CheckMacroThrows) {
  EXPECT_THROW(CRUZ_CHECK(false, "boom"), InvariantError);
  EXPECT_NO_THROW(CRUZ_CHECK(true, "fine"));
}

}  // namespace
}  // namespace cruz
