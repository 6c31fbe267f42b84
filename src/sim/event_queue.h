// Deterministic discrete-event queue.
//
// Events fire in (time, insertion-sequence) order so that ties are broken
// deterministically — that contract is what makes same-seed runs
// bit-identical, and it is unchanged from the original priority_queue
// design (proven by the differential tests in tests/sim_test.cc and the
// trace goldens in tests/goldens/).
//
// Internally this is an indexed 4-ary heap over a slot slab:
//
//   * slots_ owns the event records (callback, generation, heap position)
//     and recycles them through a free list, so a steady schedule/cancel
//     workload reaches a fixed footprint and stops allocating;
//   * heap_ holds {when, seq, slot} entries ordered by (when, seq). The
//     key sits inline next to the slot index, so a comparison reads two
//     24-byte heap entries and never the slab; a sift writes only the
//     moved entries' heap positions back. Each slot tracks its heap
//     position, so Cancel() removes the entry *eagerly* in O(log n). The
//     previous design left cancelled entries in the heap as tombstones
//     until popped, which made long-lived periodic timers (heartbeats,
//     RTO reschedules, flush retries) grow the heap without bound over
//     million-event runs;
//   * EventId packs {slot index, per-slot generation}, so Cancel() and
//     IsPending() are O(1) array probes — no hash table on the hot path.
//
// Callbacks are SimCallback (see callback.h): small captures live inline
// in the slot, so scheduling a timer does not touch the allocator.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"
#include "sim/callback.h"

namespace cruz::sim {

using EventId = std::uint64_t;
constexpr EventId kInvalidEventId = 0;

class EventQueue {
 public:
  using Callback = SimCallback;

  // Schedules `cb` at absolute simulated time `when`. Returns an id usable
  // with Cancel().
  EventId ScheduleAt(TimeNs when, Callback cb);

  // Cancels a pending event. Returns true iff the event was still pending
  // (not yet fired and not already cancelled). The entry is removed
  // immediately; its slot and callback storage are recycled.
  bool Cancel(EventId id);

  bool IsPending(EventId id) const { return SlotFor(id) != kNoSlot; }

  bool Empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  // Time of the earliest pending event. Queue must not be empty.
  TimeNs NextTime() const;

  // Pops the earliest pending event without running it; stores its time in
  // *when. The caller runs the callback (after advancing its clock, so the
  // callback observes the event's own timestamp as "now").
  Callback PopNext(TimeNs* when);

  // Pops and runs the earliest pending event; returns its time. Convenience
  // for callers without a clock (unit tests).
  TimeNs RunNext();

  // Introspection for leak regression tests and benches: the number of
  // slab slots ever allocated. Bounded by the peak number of
  // *simultaneously pending* events — cancelled/fired slots are reused.
  std::size_t storage_slots() const { return slots_.size(); }

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  struct Slot {
    std::uint32_t generation = 0;
    std::uint32_t heap_pos = kNoSlot;  // kNoSlot when the slot is free
    std::uint32_t next_free = kNoSlot;
    Callback cb;
  };

  // Decodes an id; kNoSlot unless it names a currently pending event.
  std::uint32_t SlotFor(EventId id) const {
    std::uint32_t index = static_cast<std::uint32_t>(id & 0xFFFFFFFFu) - 1;
    if (index >= slots_.size()) return kNoSlot;
    const Slot& slot = slots_[index];
    if (slot.heap_pos == kNoSlot ||
        slot.generation != static_cast<std::uint32_t>(id >> 32)) {
      return kNoSlot;
    }
    return index;
  }
  static EventId IdFor(std::uint32_t index, std::uint32_t generation) {
    return (static_cast<EventId>(generation) << 32) |
           (static_cast<EventId>(index) + 1);
  }

  struct HeapEntry {
    TimeNs when;
    std::uint64_t seq;  // insertion order; the deterministic tie-break
    std::uint32_t slot;
  };

  static bool Before(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }
  // Writes `entry` at heap position `pos` and records it in its slot.
  void Place(std::uint32_t pos, const HeapEntry& entry) {
    heap_[pos] = entry;
    slots_[entry.slot].heap_pos = pos;
  }
  void SiftUp(std::uint32_t pos);
  void SiftDown(std::uint32_t pos);
  void RemoveAt(std::uint32_t pos);
  void FreeSlot(std::uint32_t index);

  std::vector<Slot> slots_;
  std::vector<HeapEntry> heap_;  // 4-ary min-heap on (when, seq)
  std::uint32_t free_head_ = kNoSlot;
  std::uint64_t next_seq_ = 1;
};

}  // namespace cruz::sim
