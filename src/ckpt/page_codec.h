// Per-page compression codec for checkpoint images (paper §5.2,
// "checkpoint compression" future work).
//
// Checkpoint memory is dominated by pages that are mostly zero or carry
// long byte runs (stencil grids, zeroed heaps), so a byte-level run-length
// codec gets large wins without external dependencies. Every encoded page
// is self-describing and self-checking:
//
//   [u8 codec id][u32 CRC-32 of the raw page][codec payload]
//
// kRaw stores the 4 KiB page verbatim; kRle stores (u16 run length,
// u8 value) tokens whose lengths must sum to exactly kPageSize. The
// encoder picks whichever is smaller, so compression never expands a page
// beyond 5 bytes of header. DecodePage verifies the run structure and the
// CRC and throws CodecError on any corruption — a single flipped bit in a
// compressed page is detected here even if the image's outer CRC was
// fixed up by an attacker or recomputed after the corruption.
#pragma once

#include <cstdint>

#include "common/bytes.h"

namespace cruz::ckpt {

enum class PageCodec : std::uint8_t {
  kRaw = 0,  // verbatim page bytes
  kRle = 1,  // run-length tokens (u16 length, u8 value)
};

// Encodes one kPageSize page. `preferred` selects the target codec; the
// encoder falls back to kRaw when RLE would be larger.
cruz::Bytes EncodePage(cruz::ByteSpan page, PageCodec preferred);

// Size of EncodePage(page, preferred), found by counting runs; no output.
std::size_t EncodedPageSize(cruz::ByteSpan page, PageCodec preferred);
// Appends EncodePage(page, preferred) to `out` in place. `encoded_size`
// is EncodedPageSize(page, preferred): it names the codec the encoder
// chose, so the runs are not counted twice.
void EncodePageInto(cruz::ByteWriter& out, cruz::ByteSpan page,
                    std::size_t encoded_size);

// Decodes one encoded page back to exactly kPageSize bytes. Throws
// CodecError on unknown codec ids, malformed run structure, truncation,
// or a CRC mismatch against the recorded raw-page checksum.
cruz::Bytes DecodePage(cruz::ByteSpan encoded);

}  // namespace cruz::ckpt
