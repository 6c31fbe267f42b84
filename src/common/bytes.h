// Bounds-checked binary codecs.
//
// ByteWriter appends fixed-width integers (network byte order), blobs, and
// length-prefixed strings to a growable buffer. ByteCounter has the same
// Put* interface and only counts, so one field list can size a buffer
// exactly before it is written. ByteReader consumes the encoding and
// throws CodecError on any truncation or overrun, so corrupted packets
// and checkpoint images fail loudly instead of propagating garbage.
//
// A format is described once, as a field list: a template over `io` that
// names each field in wire order,
//
//   template <typename Io>
//   void Fields(Io& io, FieldRef<Io, Replica> rep) {
//     io.U8(rep.tier);
//     io.U32(rep.node_index);
//   }
//
// Run over a ByteCounter it sizes the encoding, over a ByteWriter it
// writes it, and over a ByteReader it assigns each field from the input.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.h"

namespace cruz {

using Bytes = std::vector<std::uint8_t>;
using ByteSpan = std::span<const std::uint8_t>;
// Immutable bytes with shared ownership: a committed checkpoint image
// held by several store tiers, or a page held by several images.
using SharedBytes = std::shared_ptr<const Bytes>;

// The object a field list runs over: const for the two writing passes,
// assignable for the reading one.
template <typename Io, typename T>
using FieldRef = std::conditional_t<Io::kReads, T&, const T&>;

// The field-list face of ByteWriter and ByteCounter: each call emits its
// field through the sink's Put* calls. Integer fields take any integer or
// enum type and cast it to the wire width.
template <typename Sink>
class FieldSink {
 public:
  static constexpr bool kReads = false;

  template <typename T>
  void U8(T v) { sink().PutU8(static_cast<std::uint8_t>(v)); }
  template <typename T>
  void U16(T v) { sink().PutU16(static_cast<std::uint16_t>(v)); }
  template <typename T>
  void U32(T v) { sink().PutU32(static_cast<std::uint32_t>(v)); }
  template <typename T>
  void U64(T v) { sink().PutU64(static_cast<std::uint64_t>(v)); }
  void Bool(bool v) { sink().PutBool(v); }
  void String(const std::string& s) { sink().PutString(s); }
  void Blob(ByteSpan b) { sink().PutBlob(b); }
  template <std::size_t N>
  void Octets(const std::array<std::uint8_t, N>& a) {
    sink().PutBytes(a.data(), N);
  }
  // A u8 enum; `valid` is the reader's range check.
  template <typename E, typename Valid>
  void Enum(E e, Valid&& /*valid*/, const char* /*error*/) { U8(e); }
  // A u32 element count, then `fields(element)` for each element.
  template <typename Range, typename Fn>
  void Seq(const Range& seq, Fn&& fields) {
    sink().PutU32(static_cast<std::uint32_t>(seq.size()));
    for (const auto& e : seq) fields(e);
  }

 private:
  Sink& sink() { return static_cast<Sink&>(*this); }
};

// Big-endian stores into a caller's buffer: a fixed-size header is
// assembled on the stack and appended with one PutBytes.
inline void StoreU16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v);
}
inline void StoreU32(std::uint8_t* p, std::uint32_t v) {
  StoreU16(p, static_cast<std::uint16_t>(v >> 16));
  StoreU16(p + 2, static_cast<std::uint16_t>(v));
}

class ByteWriter : public FieldSink<ByteWriter> {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { buf_.reserve(reserve); }
  // Adopts a recycled buffer (cleared, capacity kept) so pooled hot
  // paths can encode without touching the allocator.
  ByteWriter(Bytes reuse, std::size_t reserve) : buf_(std::move(reuse)) {
    buf_.clear();
    buf_.reserve(reserve);
  }

  void PutU8(std::uint8_t v) { buf_.push_back(v); }
  void PutU16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void PutU32(std::uint32_t v) {
    PutU16(static_cast<std::uint16_t>(v >> 16));
    PutU16(static_cast<std::uint16_t>(v));
  }
  void PutU64(std::uint64_t v) {
    PutU32(static_cast<std::uint32_t>(v >> 32));
    PutU32(static_cast<std::uint32_t>(v));
  }
  void PutI64(std::int64_t v) { PutU64(static_cast<std::uint64_t>(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }

  void PutBytes(ByteSpan data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }
  void PutBytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  // Length-prefixed (u32) blob.
  void PutBlob(ByteSpan data) {
    PutU32(static_cast<std::uint32_t>(data.size()));
    PutBytes(data);
  }
  // Length-prefixed (u32) string.
  void PutString(const std::string& s) {
    PutU32(static_cast<std::uint32_t>(s.size()));
    PutBytes(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }

  // Overwrites a previously written u16 at `offset` (e.g. a length or
  // checksum field patched after the payload is known).
  void PatchU16(std::size_t offset, std::uint16_t v) {
    CRUZ_CHECK(offset + 2 <= buf_.size(), "PatchU16 out of range");
    StoreU16(buf_.data() + offset, v);
  }
  void PatchU32(std::size_t offset, std::uint32_t v) {
    CRUZ_CHECK(offset + 4 <= buf_.size(), "PatchU32 out of range");
    StoreU32(buf_.data() + offset, v);
  }

  std::size_t size() const { return buf_.size(); }
  const Bytes& data() const { return buf_; }
  Bytes Take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

// Counts the bytes a ByteWriter would append for the same calls.
class ByteCounter : public FieldSink<ByteCounter> {
 public:
  void PutU8(std::uint8_t) { n_ += 1; }
  void PutU16(std::uint16_t) { n_ += 2; }
  void PutU32(std::uint32_t) { n_ += 4; }
  void PutU64(std::uint64_t) { n_ += 8; }
  void PutBool(bool) { n_ += 1; }
  void PutBytes(ByteSpan data) { n_ += data.size(); }
  void PutBytes(const void*, std::size_t n) { n_ += n; }
  void PutBlob(ByteSpan data) { n_ += 4 + data.size(); }
  void PutString(const std::string& s) { n_ += 4 + s.size(); }

  std::size_t size() const { return n_; }

 private:
  std::size_t n_ = 0;
};

class ByteReader {
 public:
  explicit ByteReader(ByteSpan data) : data_(data) {}

  std::uint8_t GetU8() {
    Need(1);
    return data_[pos_++];
  }
  std::uint16_t GetU16() {
    Need(2);
    std::uint16_t v = static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(data_[pos_]) << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  std::uint32_t GetU32() {
    std::uint32_t hi = GetU16();
    return (hi << 16) | GetU16();
  }
  std::uint64_t GetU64() {
    std::uint64_t hi = GetU32();
    return (hi << 32) | GetU32();
  }
  std::int64_t GetI64() { return static_cast<std::int64_t>(GetU64()); }
  bool GetBool() { return GetU8() != 0; }

  Bytes GetBytes(std::size_t n) {
    Need(n);
    Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
              data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }
  ByteSpan GetSpan(std::size_t n) {
    Need(n);
    ByteSpan out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }
  Bytes GetBlob() {
    std::uint32_t n = GetU32();
    return GetBytes(n);
  }
  std::string GetString() {
    std::uint32_t n = GetU32();
    ByteSpan s = GetSpan(n);
    return std::string(reinterpret_cast<const char*>(s.data()), s.size());
  }

  void Skip(std::size_t n) {
    Need(n);
    pos_ += n;
  }

  // The field-list face: each call assigns its field from the input.
  static constexpr bool kReads = true;

  template <typename T>
  void U8(T& v) { v = static_cast<T>(GetU8()); }
  template <typename T>
  void U16(T& v) { v = static_cast<T>(GetU16()); }
  template <typename T>
  void U32(T& v) { v = static_cast<T>(GetU32()); }
  template <typename T>
  void U64(T& v) { v = static_cast<T>(GetU64()); }
  void Bool(bool& v) { v = GetBool(); }
  void String(std::string& s) { s = GetString(); }
  void Blob(Bytes& b) { b = GetBlob(); }
  template <std::size_t N>
  void Octets(std::array<std::uint8_t, N>& a) {
    ByteSpan s = GetSpan(N);
    std::copy(s.begin(), s.end(), a.begin());
  }
  // A u8 enum; a value `valid` rejects throws CodecError(error).
  template <typename E, typename Valid>
  void Enum(E& e, Valid&& valid, const char* error) {
    e = static_cast<E>(GetU8());
    if (!valid(e)) throw CodecError(error);
  }
  // Appends one element per count, each read by `fields(element)`. The
  // count is untrusted: the vector grows an element at a time, so a
  // corrupt count fails on the short read, never on a huge reservation.
  template <typename T, typename Fn>
  void Seq(std::vector<T>& seq, Fn&& fields) {
    for (std::uint32_t n = GetU32(); n > 0; --n) fields(seq.emplace_back());
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  std::size_t pos() const { return pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  // The bounds check inlines into every Get*; the message is built out of
  // line, so a decoder's hot path carries no string code.
  void Need(std::size_t n) const {
    if (pos_ + n > data_.size()) ThrowTruncated(n);
  }
  [[noreturn, gnu::cold, gnu::noinline]] void ThrowTruncated(
      std::size_t n) const {
    throw CodecError("ByteReader: truncated input (need " +
                     std::to_string(n) + " bytes at offset " +
                     std::to_string(pos_) + ", have " +
                     std::to_string(data_.size() - pos_) + ")");
  }

  ByteSpan data_;
  std::size_t pos_ = 0;
};

}  // namespace cruz
