// CRC-32 (IEEE 802.3 polynomial, reflected 0xEDB88320). It guards every
// checkpoint trust boundary: page records (ckpt/page_codec), image
// frames (ckpt/image), generation manifests (ckpt/generation) and
// coordinator journal records (coord/journal). The checkpoint store
// takes no CRC of its own: an image's frame trailer is its commit
// record, and the frame check or the decode checks each copy it reads.
#pragma once

#include <cstdint>

#include "common/bytes.h"

namespace cruz {

std::uint32_t Crc32(ByteSpan data);

// Incremental form: feed chunks, then Finish(). Any chunking of the same
// bytes gives the same result.
class Crc32Accumulator {
 public:
  void Update(ByteSpan data);
  std::uint32_t Finish() const { return state_ ^ 0xFFFFFFFFu; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

// Bytes fed through Crc32Accumulator::Update since process start, over
// all threads. A host-side work counter: it never enters a trace or an
// export.
std::uint64_t Crc32BytesTotal();

// A CRC-framed record (generation manifests, journal records): u32 body
// length, u32 CRC-32 of the body, the body. `fields(io)` runs the body's
// field list; it is called twice, to size the body and to write it.
template <typename Fields>
Bytes FrameRecord(Fields&& fields) {
  ByteCounter body;
  fields(body);
  ByteWriter w(8 + body.size());
  w.PutU32(static_cast<std::uint32_t>(body.size()));
  w.PutU32(0);  // the CRC, patched once the body is written
  fields(w);
  w.PatchU32(4, Crc32(ByteSpan(w.data()).subspan(8)));
  return w.Take();
}

// Reads one record frame from `r` and returns its body, a view into
// `r`'s input. Throws CodecError if the frame is truncated or the body
// fails its CRC.
ByteSpan GetRecord(ByteReader& r);

}  // namespace cruz
