#include "sim/event_queue.h"

#include <utility>

#include "common/error.h"

namespace cruz::sim {

namespace {
constexpr std::uint32_t kArity = 4;
}  // namespace

EventId EventQueue::ScheduleAt(TimeNs when, Callback cb) {
  std::uint32_t index;
  if (free_head_ != kNoSlot) {
    index = free_head_;
    free_head_ = slots_[index].next_free;
  } else {
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[index];
  slot.cb = std::move(cb);
  heap_.push_back(HeapEntry{when, next_seq_++, index});
  SiftUp(static_cast<std::uint32_t>(heap_.size() - 1));  // sets heap_pos
  return IdFor(index, slot.generation);
}

bool EventQueue::Cancel(EventId id) {
  std::uint32_t index = SlotFor(id);
  if (index == kNoSlot) return false;
  RemoveAt(slots_[index].heap_pos);
  FreeSlot(index);
  return true;
}

TimeNs EventQueue::NextTime() const {
  CRUZ_CHECK(!heap_.empty(), "NextTime on empty queue");
  return heap_[0].when;
}

EventQueue::Callback EventQueue::PopNext(TimeNs* when) {
  CRUZ_CHECK(!heap_.empty(), "PopNext on empty queue");
  std::uint32_t index = heap_[0].slot;
  *when = heap_[0].when;
  // Move the callback out before running it: the callback may schedule or
  // cancel other events, mutating the heap and the slab.
  Callback cb = std::move(slots_[index].cb);
  RemoveAt(0);
  FreeSlot(index);
  return cb;
}

TimeNs EventQueue::RunNext() {
  TimeNs when = 0;
  Callback cb = PopNext(&when);
  cb();
  return when;
}

void EventQueue::SiftUp(std::uint32_t pos) {
  const HeapEntry moving = heap_[pos];
  while (pos > 0) {
    std::uint32_t parent = (pos - 1) / kArity;
    if (!Before(moving, heap_[parent])) break;
    Place(pos, heap_[parent]);
    pos = parent;
  }
  Place(pos, moving);
}

void EventQueue::SiftDown(std::uint32_t pos) {
  const HeapEntry moving = heap_[pos];
  const std::uint32_t count = static_cast<std::uint32_t>(heap_.size());
  for (;;) {
    std::uint32_t first_child = pos * kArity + 1;
    if (first_child >= count) break;
    std::uint32_t last_child = first_child + kArity - 1;
    if (last_child >= count) last_child = count - 1;
    std::uint32_t best = first_child;
    for (std::uint32_t c = first_child + 1; c <= last_child; ++c) {
      if (Before(heap_[c], heap_[best])) best = c;
    }
    if (!Before(heap_[best], moving)) break;
    Place(pos, heap_[best]);
    pos = best;
  }
  Place(pos, moving);
}

void EventQueue::RemoveAt(std::uint32_t pos) {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // removed the tail entry
  Place(pos, last);
  // The displaced entry may need to move either direction relative to
  // its new neighbourhood.
  SiftUp(pos);
  SiftDown(slots_[last.slot].heap_pos);
}

void EventQueue::FreeSlot(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.cb = Callback();  // release any heap-spilled capture now
  slot.heap_pos = kNoSlot;
  ++slot.generation;
  slot.next_free = free_head_;
  free_head_ = index;
}

}  // namespace cruz::sim
