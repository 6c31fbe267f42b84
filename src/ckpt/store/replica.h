// Replica schema for tiered checkpoint storage.
//
// Every committed image has a set of replicas spread across the storage
// hierarchy: the writer's local disk (tier 1), its ring partner's disk
// (tier 2), and — once the background flush lands — the shared netfs
// (tier 3). The generation manifest records the replica set captured at
// commit time (local + partner, each with the image's size and frame
// trailer); the netfs replica is implicit. Restore does not read the
// set: TieredStore::Resolve probes every tier itself.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"

namespace cruz::ckpt {

enum class Tier : std::uint8_t {
  kLocal = 0,    // the reader/writer node's own disk
  kPartner = 1,  // another node's disk (own copy or partner copy)
  kNetfs = 2,    // the shared network filesystem
  kNone = 255,   // not resolved / not applicable
};

inline const char* TierName(Tier t) {
  switch (t) {
    case Tier::kLocal:
      return "local";
    case Tier::kPartner:
      return "partner";
    case Tier::kNetfs:
      return "netfs";
    case Tier::kNone:
      return "none";
  }
  return "?";
}

// One physical copy of one image.
struct Replica {
  Tier tier = Tier::kNone;
  std::uint32_t node_index = 0;  // holder (0 for the netfs tier)
  std::uint64_t size = 0;
  std::uint32_t crc32 = 0;  // the image's frame trailer (its CRC-32)
};

// A replica's one field list, shared by the coordination messages and
// the generation manifest (see FieldRef in common/bytes.h).
template <typename Io>
void Fields(Io& io, cruz::FieldRef<Io, Replica> rep) {
  io.U8(rep.tier);
  io.U32(rep.node_index);
  io.U64(rep.size);
  io.U32(rep.crc32);
}

}  // namespace cruz::ckpt
