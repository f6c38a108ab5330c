// Deterministic discrete-event simulation kernel.
//
// Every component of the reproduced system (LTMs, 2PC agents, coordinators,
// the network, workload clients, failure injectors) runs as callbacks on one
// EventLoop with a virtual clock. Two runs with the same seed execute the
// exact same event sequence, which makes the concurrency-control experiments
// reproducible and the serializability oracle checks meaningful.

#ifndef HERMES_SIM_EVENT_LOOP_H_
#define HERMES_SIM_EVENT_LOOP_H_

#include <cstdint>
#include <vector>

#include "sim/callback.h"

namespace hermes::sim {

// Virtual time in microseconds since simulation start.
using Time = int64_t;
using Duration = int64_t;

inline constexpr Duration kMicrosecond = 1;
inline constexpr Duration kMillisecond = 1000;
inline constexpr Duration kSecond = 1000 * 1000;

// Identifies a scheduled event so it can be cancelled (timer semantics).
using EventId = uint64_t;
inline constexpr EventId kInvalidEvent = 0;

class EventLoop {
 public:
  EventLoop() = default;

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  Time Now() const { return now_; }

  // Schedules `fn` (any `void()` callable, moved in) to run at virtual time
  // `at` (clamped to Now()). Events with equal time run in scheduling order
  // (stable).
  EventId ScheduleAt(Time at, Callback fn);
  EventId ScheduleAfter(Duration delay, Callback fn);

  // Cancels a pending event. Returns false if it already ran or was
  // cancelled before.
  bool Cancel(EventId id);

  // Runs events until the queue is empty. Returns the number of events
  // processed.
  uint64_t Run();

  // Runs events with time <= `deadline`; afterwards Now() == deadline (the
  // slice of virtual time was fully simulated even if the queue drained
  // early), unless Now() was already past it.
  uint64_t RunUntil(Time deadline);

  // Runs a single event if one is pending. Returns false if the queue is
  // empty.
  bool Step();

  bool Empty() const { return live_ == 0; }
  uint64_t events_processed() const { return events_processed_; }
  // Heap entries, cancelled ones not yet dropped included. Stays at most
  // 2 * pending + kTombstoneSlack.
  size_t queued_entries() const { return heap_.size(); }

  // Cancelled entries tolerated in the heap beyond one per pending event.
  static constexpr uint64_t kTombstoneSlack = 64;

  // Event budget (0 = unlimited), a safety valve against livelocks: once
  // this many events ran, Run(), RunUntil() and Step() run no more, the
  // next event stays pending and budget_exhausted() turns true, so the
  // caller reports the failure. RunUntil() still advances the clock to its
  // deadline, so a caller slicing virtual time reaches its end.
  void set_max_events(uint64_t n) { max_events_ = n; }
  bool budget_exhausted() const { return budget_exhausted_; }

 private:
  // A heap entry: 16 bytes, so sifting never touches a callback. Entries
  // are ordered by (at, id); the id's high half is the scheduling sequence,
  // so same-time events run in scheduling order (FIFO).
  struct Entry {
    Time at;
    EventId id;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.id > b.id;
    }
  };
  struct Slot {
    EventId id = kInvalidEvent;  // the pending event here, or kInvalidEvent
    Callback fn;
  };

  static uint32_t SlotOf(EventId id) { return static_cast<uint32_t>(id); }

  // Discards cancelled tombstones, then runs the next event if its time is
  // <= `deadline`. Returns false when no such event is pending.
  bool DispatchNext(Time deadline);
  // Empties `slot` and puts it on the free list; drops the tombstones once
  // they outnumber the pending events by more than kTombstoneSlack.
  void Release(uint32_t slot);

  Time now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t events_processed_ = 0;
  uint64_t max_events_ = 0;
  bool budget_exhausted_ = false;
  // Invariants. An EventId is (sequence << 32) | slot, and sequences are
  // never reused. A pending event's id is stored in its slot and in exactly
  // one heap entry. Running an event pops its entry; cancelling one empties
  // the slot and frees it for reuse, but leaves the heap entry in place. An
  // entry whose id no longer matches its slot is therefore a tombstone,
  // skipped when popped; and Cancel rejects an executed or cancelled id with
  // one compare, without remembering the execution history.
  //
  // heap_.size() == live_ + tombstones_. Once tombstones_ exceeds live_ +
  // kTombstoneSlack the heap is rebuilt without them, which is amortised
  // O(1) per cancel. (at, id) is a total order, so the rebuild does not
  // change which event runs next.
  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  // Number of pending (not yet run, not cancelled) events.
  uint64_t live_ = 0;
  // Number of heap entries of cancelled events.
  uint64_t tombstones_ = 0;
};

}  // namespace hermes::sim

#endif  // HERMES_SIM_EVENT_LOOP_H_
