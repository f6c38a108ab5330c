#include "sim/event_loop.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

namespace hermes::sim {

EventId EventLoop::ScheduleAt(Time at, Callback fn) {
  if (at < now_) at = now_;
  if (next_seq_ > std::numeric_limits<uint32_t>::max()) {
    std::fprintf(stderr, "EventLoop: more than 2^32 events scheduled\n");
    std::abort();
  }
  uint32_t slot = static_cast<uint32_t>(slots_.size());
  if (free_slots_.empty()) {
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  const EventId id = (next_seq_++ << 32) | slot;
  slots_[slot].id = id;
  slots_[slot].fn = std::move(fn);
  heap_.push_back(Entry{at, id});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_;
  return id;
}

EventId EventLoop::ScheduleAfter(Duration delay, Callback fn) {
  assert(delay >= 0);
  return ScheduleAt(now_ + delay, std::move(fn));
}

void EventLoop::Release(uint32_t slot) {
  slots_[slot].id = kInvalidEvent;
  free_slots_.push_back(slot);
  --live_;
  if (tombstones_ > live_ + kTombstoneSlack) {
    std::erase_if(heap_, [this](const Entry& e) {
      return slots_[SlotOf(e.id)].id != e.id;
    });
    std::make_heap(heap_.begin(), heap_.end(), Later{});
    tombstones_ = 0;
  }
  assert(heap_.size() == live_ + tombstones_);
}

bool EventLoop::Cancel(EventId id) {
  // Only a still-pending event can be cancelled: an already-executed or
  // already-cancelled id no longer matches its slot. The heap entry stays
  // behind as a tombstone.
  const uint32_t slot = SlotOf(id);
  if (id == kInvalidEvent || slot >= slots_.size() ||
      slots_[slot].id != id) {
    return false;
  }
  // Destroy the callback only after the slot is consistent again: its
  // captures' destructors may schedule or cancel events.
  Callback fn = std::move(slots_[slot].fn);
  ++tombstones_;
  Release(slot);
  return true;
}

bool EventLoop::DispatchNext(Time deadline) {
  while (!heap_.empty()) {
    const Entry top = heap_.front();
    const uint32_t slot = SlotOf(top.id);
    const bool live = slots_[slot].id == top.id;
    if (live && top.at > deadline) return false;
    if (live && max_events_ != 0 && events_processed_ >= max_events_) {
      if (!budget_exhausted_) {
        std::fprintf(stderr,
                     "EventLoop: exhausted max_events=%llu at t=%lld; "
                     "likely livelock\n",
                     static_cast<unsigned long long>(max_events_),
                     static_cast<long long>(now_));
      }
      budget_exhausted_ = true;
      return false;
    }
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    if (!live) {  // tombstone of a cancelled event
      --tombstones_;
      continue;
    }
    // Move the callback out and free the slot first: the callback may
    // schedule (reusing the slot) and must see its own id as executed.
    Callback fn = std::move(slots_[slot].fn);
    Release(slot);
    now_ = top.at;
    ++events_processed_;
    fn();
    return true;
  }
  return false;
}

uint64_t EventLoop::Run() {
  uint64_t n = 0;
  while (DispatchNext(std::numeric_limits<Time>::max())) ++n;
  return n;
}

uint64_t EventLoop::RunUntil(Time deadline) {
  uint64_t n = 0;
  while (DispatchNext(deadline)) ++n;
  // The whole slice up to `deadline` was simulated: advance the clock even
  // when the queue drained early, so back-to-back RunUntil calls measure
  // wall-clock-like virtual time instead of sticking at the last event.
  if (now_ < deadline) now_ = deadline;
  return n;
}

bool EventLoop::Step() {
  return DispatchNext(std::numeric_limits<Time>::max());
}

}  // namespace hermes::sim
