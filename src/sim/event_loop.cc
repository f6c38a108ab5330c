#include "sim/event_loop.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

namespace hermes::sim {

EventId EventLoop::ScheduleAt(Time at, std::function<void()> fn) {
  if (at < now_) at = now_;
  const EventId id = next_id_++;
  queue_.push(Event{at, id, std::move(fn)});
  pending_.insert(id);
  return id;
}

EventId EventLoop::ScheduleAfter(Duration delay, std::function<void()> fn) {
  assert(delay >= 0);
  return ScheduleAt(now_ + delay, std::move(fn));
}

bool EventLoop::Cancel(EventId id) {
  // Only a still-pending event can be cancelled: an already-executed or
  // already-cancelled id is rejected, and nothing is recorded for it.
  if (pending_.erase(id) == 0) return false;
  cancelled_.insert(id);  // tombstone, discarded lazily when popped
  return true;
}

bool EventLoop::DispatchNext(Time deadline) {
  while (!queue_.empty()) {
    // priority_queue::top returns const&; the function object must be moved
    // out before pop, so const_cast the owned element (safe: we pop next).
    Event& top = const_cast<Event&>(queue_.top());
    if (auto it = cancelled_.find(top.id); it != cancelled_.end()) {
      cancelled_.erase(it);
      queue_.pop();
      continue;
    }
    if (top.at > deadline) return false;
    pending_.erase(top.id);
    Event ev = std::move(top);
    queue_.pop();
    now_ = ev.at;
    ++events_processed_;
    if (max_events_ != 0 && events_processed_ > max_events_) {
      std::fprintf(stderr,
                   "EventLoop: exceeded max_events=%llu at t=%lld; "
                   "likely livelock\n",
                   static_cast<unsigned long long>(max_events_),
                   static_cast<long long>(now_));
      std::abort();
    }
    ev.fn();
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
