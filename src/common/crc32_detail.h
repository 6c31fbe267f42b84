// Internal: the CRC-32 kernels behind Crc32Accumulator, exposed so tests
// and micro-benchmarks can run each one directly.
#pragma once

#include <cstdint>

#include "common/bytes.h"

namespace cruz {
namespace detail {

// A kernel advances the raw CRC register (the complemented value that
// Crc32Accumulator keeps) over `data` of any length.
using Crc32Kernel = std::uint32_t (*)(std::uint32_t reg, ByteSpan data);

// Slicing-by-8 table kernel; runs everywhere.
std::uint32_t Crc32Portable(std::uint32_t reg, ByteSpan data);

// The PCLMULQDQ folding kernel, or nullptr when this build or this CPU
// lacks PCLMULQDQ and SSE4.1.
Crc32Kernel Crc32ClmulKernel();

// The kernel Crc32Accumulator::Update runs, chosen once per process.
Crc32Kernel Crc32SelectedKernel();

}  // namespace detail
}  // namespace cruz
