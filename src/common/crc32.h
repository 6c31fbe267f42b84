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

}  // namespace cruz
