// Unit tests of the discrete-event simulation kernel, its callback type,
// site clocks and the capped backoff.

#include "sim/event_loop.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/backoff.h"
#include "sim/callback.h"
#include "sim/site_clock.h"

namespace hermes::sim {
namespace {

TEST(EventLoop, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAt(30, [&] { order.push_back(3); });
  loop.ScheduleAt(10, [&] { order.push_back(1); });
  loop.ScheduleAt(20, [&] { order.push_back(2); });
  EXPECT_EQ(loop.Run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.Now(), 30);
}

TEST(EventLoop, SameTimeEventsRunFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  loop.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventLoop, ScheduleAfterUsesCurrentTime) {
  EventLoop loop;
  Time observed = -1;
  loop.ScheduleAfter(10, [&] {
    loop.ScheduleAfter(5, [&] { observed = loop.Now(); });
  });
  loop.Run();
  EXPECT_EQ(observed, 15);
}

TEST(EventLoop, PastTimesClampToNow) {
  EventLoop loop;
  Time observed = -1;
  loop.ScheduleAt(10, [&] {
    loop.ScheduleAt(3, [&] { observed = loop.Now(); });  // in the past
  });
  loop.Run();
  EXPECT_EQ(observed, 10);
}

TEST(EventLoop, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  const EventId id = loop.ScheduleAt(10, [&] { ran = true; });
  EXPECT_TRUE(loop.Cancel(id));
  EXPECT_FALSE(loop.Cancel(id));  // double cancel
  loop.Run();
  EXPECT_FALSE(ran);
  EXPECT_TRUE(loop.Empty());
}

TEST(EventLoop, CancelUnknownIdIsRejected) {
  EventLoop loop;
  EXPECT_FALSE(loop.Cancel(kInvalidEvent));
  EXPECT_FALSE(loop.Cancel(12345));
}

TEST(EventLoop, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int count = 0;
  for (Time t = 10; t <= 100; t += 10) {
    loop.ScheduleAt(t, [&] { ++count; });
  }
  EXPECT_EQ(loop.RunUntil(50), 5u);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(loop.Now(), 50);
  EXPECT_EQ(loop.RunUntil(200), 5u);
  EXPECT_EQ(count, 10);
}

TEST(EventLoop, RunUntilAdvancesToDeadlineWhenQueueDrains) {
  EventLoop loop;
  loop.ScheduleAt(10, [] {});
  // The queue drains at t=10 but the whole slice up to 100 was simulated:
  // a caller stepping in 100-unit slices must see time advance even when
  // nothing is scheduled (regression: Now() used to stick at 10).
  EXPECT_EQ(loop.RunUntil(100), 1u);
  EXPECT_EQ(loop.Now(), 100);
  // An empty slice still advances time ...
  EXPECT_EQ(loop.RunUntil(250), 0u);
  EXPECT_EQ(loop.Now(), 250);
  // ... but a deadline in the past never moves it backwards.
  EXPECT_EQ(loop.RunUntil(50), 0u);
  EXPECT_EQ(loop.Now(), 250);
}

TEST(EventLoop, CancelAfterExecutionReturnsFalse) {
  EventLoop loop;
  const EventId id = loop.ScheduleAt(10, [] {});
  loop.Run();
  // The event already ran: cancelling it must fail instead of tombstoning
  // the id (regression: the stale tombstone made Empty() report true while
  // a later event was still pending).
  EXPECT_FALSE(loop.Cancel(id));
  bool ran = false;
  const EventId next = loop.ScheduleAt(20, [&] { ran = true; });
  // The new event reuses the executed one's slot, under a new id; the old
  // id still cancels nothing.
  ASSERT_NE(next, id);
  ASSERT_EQ(static_cast<uint32_t>(next), static_cast<uint32_t>(id));
  EXPECT_FALSE(loop.Cancel(id));
  EXPECT_FALSE(loop.Empty());
  loop.Run();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(loop.Empty());
}

TEST(EventLoop, EmptyIgnoresCancelledEvents) {
  EventLoop loop;
  const EventId id = loop.ScheduleAt(10, [] {});
  EXPECT_FALSE(loop.Empty());
  EXPECT_TRUE(loop.Cancel(id));
  EXPECT_TRUE(loop.Empty());  // only a tombstone remains queued
  EXPECT_EQ(loop.Run(), 0u);
  // A tombstone ahead of a live event past the deadline: RunUntil pops the
  // tombstone and runs nothing.
  const EventId a = loop.ScheduleAt(20, [] {});
  const EventId b = loop.ScheduleAt(40, [] {});
  EXPECT_TRUE(loop.Cancel(a));
  EXPECT_EQ(loop.RunUntil(30), 0u);
  EXPECT_FALSE(loop.Empty());
  EXPECT_TRUE(loop.Cancel(b));
  EXPECT_TRUE(loop.Empty());
  EXPECT_FALSE(loop.Step());
}

TEST(EventLoop, CancelFromOwnCallbackIsRejected) {
  EventLoop loop;
  EventId id = kInvalidEvent;
  bool cancelled = true;
  id = loop.ScheduleAt(10, [&] { cancelled = loop.Cancel(id); });
  loop.Run();
  EXPECT_FALSE(cancelled);
  EXPECT_TRUE(loop.Empty());
}

TEST(EventLoop, SameTimeFifoSurvivesCancelsAndSlotReuse) {
  EventLoop loop;
  constexpr int kEvents = 100'000;
  // Labels follow scheduling order, so the expected run order is the
  // ascending order of the labels that were not cancelled.
  std::vector<int> order;
  std::vector<EventId> ids;
  int next_label = 0;
  int cancelled = 0;
  auto schedule = [&] {
    const int label = next_label++;
    ids.push_back(loop.ScheduleAt(5, [&order, label] {
      order.push_back(label);
    }));
  };
  for (int i = 0; i < kEvents; ++i) {
    schedule();
    // Cancelling frees a slot that the next ScheduleAt reuses.
    if (i % 3 == 2) {
      ASSERT_TRUE(loop.Cancel(ids[static_cast<size_t>(i - 1)]));
      ++cancelled;
    }
  }
  // Events scheduled at the same time from inside a callback reuse the
  // slots of events already run, and still run after every earlier one.
  loop.ScheduleAt(5, [&] {
    for (int i = 0; i < 100; ++i) schedule();
  });
  loop.Run();
  ASSERT_EQ(order.size(), static_cast<size_t>(kEvents - cancelled + 100));
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  EXPECT_EQ(std::adjacent_find(order.begin(), order.end()), order.end());
  EXPECT_TRUE(loop.Empty());
}

TEST(EventLoop, StepExecutesOneEvent) {
  EventLoop loop;
  int count = 0;
  loop.ScheduleAt(1, [&] { ++count; });
  loop.ScheduleAt(2, [&] { ++count; });
  EXPECT_TRUE(loop.Step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(loop.Step());
  EXPECT_FALSE(loop.Step());
  EXPECT_EQ(count, 2);
}

TEST(EventLoop, StepPastMaxEventsStopsAndReports) {
  EventLoop loop;
  loop.set_max_events(2);
  std::function<void()> forever = [&] { loop.ScheduleAfter(1, forever); };
  loop.ScheduleAfter(0, forever);
  EXPECT_TRUE(loop.Step());
  EXPECT_TRUE(loop.Step());
  EXPECT_FALSE(loop.budget_exhausted());
  // The livelock is cut at the budget instead of killing the process: the
  // next event stays pending and the loop reports the exhaustion.
  EXPECT_FALSE(loop.Step());
  EXPECT_TRUE(loop.budget_exhausted());
  EXPECT_FALSE(loop.Empty());
  EXPECT_EQ(loop.Run(), 0u);
  EXPECT_EQ(loop.RunUntil(100), 0u);
  EXPECT_EQ(loop.Now(), 100);  // RunUntil still reaches its deadline
  EXPECT_EQ(loop.events_processed(), 2u);
}

TEST(EventLoop, EventsCanScheduleMoreEvents) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) loop.ScheduleAfter(1, chain);
  };
  loop.ScheduleAfter(0, chain);
  loop.Run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(loop.Now(), 99);
}

TEST(EventLoop, TombstonesAreDroppedOnceTheyOutnumberPendingEvents) {
  EventLoop loop;
  std::vector<EventId> ids;
  for (int i = 0; i < 10'000; ++i) {
    ids.push_back(loop.ScheduleAt(1'000'000 + i, [] {}));
  }
  // Cancel all but the last ten: without the rebuild, every cancelled
  // entry would stay queued until its deadline.
  for (size_t i = 0; i + 10 < ids.size(); ++i) {
    ASSERT_TRUE(loop.Cancel(ids[i]));
    ASSERT_LE(loop.queued_entries(),
              2 * (ids.size() - i - 1) + EventLoop::kTombstoneSlack);
  }
  EXPECT_LE(loop.queued_entries(), 20 + EventLoop::kTombstoneSlack);
  EXPECT_EQ(loop.Run(), 10u);
  EXPECT_EQ(loop.Now(), 1'009'999);
}

// The queue semantics EventLoop must reproduce: pending events in an
// ordered set keyed by (time, scheduling sequence). Tokens number events in
// scheduling order.
class ReferenceQueue {
 public:
  int Schedule(Time at) {
    const int token = next_token_++;
    pending_.emplace(at, token);
    at_.emplace(token, at);
    return token;
  }
  bool Cancel(int token) {
    auto it = at_.find(token);
    if (it == at_.end()) return false;
    pending_.erase({it->second, token});
    at_.erase(it);
    return true;
  }
  std::optional<std::pair<Time, int>> Pop() {
    if (pending_.empty()) return std::nullopt;
    const std::pair<Time, int> next = *pending_.begin();
    pending_.erase(pending_.begin());
    at_.erase(next.second);
    return next;
  }
  std::optional<Time> NextTime() const {
    if (pending_.empty()) return std::nullopt;
    return pending_.begin()->first;
  }
  size_t size() const { return pending_.size(); }

 private:
  int next_token_ = 0;
  std::set<std::pair<Time, int>> pending_;
  std::unordered_map<int, Time> at_;
};

// Drives an EventLoop and a ReferenceQueue with the same seeded random
// schedules and cancels, from the top level and from inside callbacks, and
// checks every dispatch against the model.
class EventLoopDifferential {
 public:
  explicit EventLoopDifferential(uint64_t seed) : rng_(seed) {}

  void Schedule() {
    // Mostly near events, some of them in the past (both sides clamp those
    // to Now()), and far timers that are mostly cancelled before they run.
    const Time at = loop_.Now() + (rng_.NextBool(0.2)
                                       ? rng_.NextInt(1'000, 50'000)
                                       : rng_.NextInt(-5, 200));
    const int token = model_.Schedule(std::max(at, loop_.Now()));
    ids_.push_back(loop_.ScheduleAt(at, [this, token] { OnRun(token); }));
  }

  void CancelRecent() {
    if (ids_.empty()) return;
    // Mostly recent events, which are still pending; sometimes the event
    // that is running, or one that already ran or was cancelled.
    const size_t n = std::min<size_t>(ids_.size(), 512);
    const int token =
        static_cast<int>(ids_.size() - 1 - rng_.NextUint64(n));
    EXPECT_EQ(loop_.Cancel(ids_[static_cast<size_t>(token)]),
              model_.Cancel(token))
        << "token " << token;
  }

  void Op() {
    const uint64_t dice = rng_.NextUint64(100);
    if (dice < 50) {
      Schedule();
    } else if (dice < 80) {
      CancelRecent();
    } else if (dice < 90) {
      EXPECT_EQ(loop_.Step(), model_.size() > 0);
    } else {
      const Time deadline = loop_.Now() + rng_.NextInt(0, 100);
      loop_.RunUntil(deadline);
      EXPECT_EQ(loop_.Now(), deadline);
      const std::optional<Time> next = model_.NextTime();
      EXPECT_TRUE(!next.has_value() || *next > deadline);
    }
    CheckBound();
  }

  void Drain() {
    loop_.Run();
    EXPECT_EQ(model_.size(), 0u);
    EXPECT_TRUE(loop_.Empty());
  }

  const std::vector<int>& ran() const { return ran_; }
  const std::vector<int>& expected() const { return expected_; }

 private:
  void OnRun(int token) {
    const std::optional<std::pair<Time, int>> next = model_.Pop();
    ASSERT_TRUE(next.has_value()) << "token " << token << " ran unexpected";
    expected_.push_back(next->second);
    ran_.push_back(token);
    EXPECT_EQ(loop_.Now(), next->first);
    // A callback schedules and cancels too, its own id included.
    for (uint64_t k = rng_.NextUint64(4); k > 0; --k) {
      if (rng_.NextBool(0.5)) {
        Schedule();
      } else {
        CancelRecent();
      }
    }
    CheckBound();
  }

  void CheckBound() {
    EXPECT_EQ(loop_.Empty(), model_.size() == 0);
    EXPECT_LE(loop_.queued_entries(),
              2 * model_.size() + EventLoop::kTombstoneSlack);
  }

  Rng rng_;
  EventLoop loop_;
  ReferenceQueue model_;
  std::vector<EventId> ids_;  // by token
  std::vector<int> ran_;
  std::vector<int> expected_;
};

TEST(EventLoop, MatchesOrderedSetModelUnderRandomSchedulesAndCancels) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    EventLoopDifferential diff(seed);
    for (int i = 0; i < 50'000; ++i) diff.Op();
    diff.Drain();
    EXPECT_EQ(diff.ran(), diff.expected()) << "seed " << seed;
    EXPECT_GT(diff.ran().size(), 10'000u) << "seed " << seed;
  }
}

// Counts how often the one logical capture it stands for is destroyed,
// however often it is moved.
class DropProbe {
 public:
  explicit DropProbe(int* drops) : drops_(drops) {}
  DropProbe(DropProbe&& other) noexcept
      : drops_(std::exchange(other.drops_, nullptr)) {}
  DropProbe& operator=(DropProbe&&) = delete;
  ~DropProbe() {
    if (drops_ != nullptr) ++*drops_;
  }

 private:
  int* drops_;
};

// A capture too large for the inline buffer.
struct LargeDropProbe {
  DropProbe probe;
  char pad[Callback::kInlineSize] = {};
};

TEST(Callback, SmallTargetsStayInlineLargeOnesGoToTheHeap) {
  int64_t a = 1, b = 2, c = 3, d = 4, e = 5, f = 6, g = 7;
  int64_t sum = 0;
  // Five values and a pointer: 48 bytes, the inline limit.
  auto small = [&sum, a, b, c, d, e] { sum += a + b + c + d + e; };
  auto large = [&sum, a, b, c, d, e, f, g] {
    sum += a + b + c + d + e + f + g;
  };
  static_assert(sizeof(small) == Callback::kInlineSize);
  static_assert(Callback::kStoredInline<decltype(small)>);
  static_assert(!Callback::kStoredInline<decltype(large)>);
  static_assert(Callback::kStoredInline<std::function<void()>>);

  Callback inline_cb = small;
  Callback heap_cb = large;
  Callback moved = std::move(inline_cb);
  EXPECT_FALSE(inline_cb);  // NOLINT(bugprone-use-after-move)
  moved();
  EXPECT_EQ(sum, 15);
  moved = std::move(heap_cb);
  EXPECT_FALSE(heap_cb);  // NOLINT(bugprone-use-after-move)
  moved();
  EXPECT_EQ(sum, 15 + 28);
}

TEST(Callback, AcceptsMoveOnlyCaptures) {
  EventLoop loop;
  int seen = 0;
  auto value = std::make_unique<int>(42);
  loop.ScheduleAfter(1, [&seen, value = std::move(value)] { seen = *value; });
  // std::function still converts, as in every existing caller.
  const std::function<void()> copyable = [&seen] { ++seen; };
  loop.ScheduleAfter(2, copyable);
  loop.Run();
  EXPECT_EQ(seen, 43);
}

TEST(Callback, DestroysEachCaptureExactlyOnce) {
  for (const bool large : {false, true}) {
    SCOPED_TRACE(large ? "heap" : "inline");
    auto make = [large](int* drops) -> Callback {
      if (large) return [p = LargeDropProbe{DropProbe(drops)}] {};
      return [p = DropProbe(drops)] {};
    };
    static_assert(sizeof(LargeDropProbe) > Callback::kInlineSize);
    int ran = 0, cancelled = 0, pending = 0, reassigned = 0, reset = 0;
    {
      EventLoop loop;
      loop.ScheduleAfter(1, make(&ran));
      const EventId id = loop.ScheduleAfter(2, make(&cancelled));
      loop.ScheduleAfter(3, make(&pending));
      EXPECT_TRUE(loop.Step());
      EXPECT_EQ(ran, 1);
      EXPECT_TRUE(loop.Cancel(id));
      EXPECT_EQ(cancelled, 1);
      EXPECT_EQ(pending, 0);
      // The loop is destroyed with one event still pending.
    }
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(cancelled, 1);
    EXPECT_EQ(pending, 1);

    Callback cb = make(&reassigned);
    cb = make(&reset);
    EXPECT_EQ(reassigned, 1);
    cb.Reset();
    EXPECT_EQ(reset, 1);
    cb.Reset();
    EXPECT_EQ(reset, 1);
  }
}

TEST(SiteClock, OffsetAndDrift) {
  EventLoop loop;
  SiteClock skewed(&loop, /*offset=*/500, /*drift_ppm=*/0);
  EXPECT_EQ(skewed.Read(), 500);

  SiteClock fast(&loop, 0, /*drift_ppm=*/1000);  // 0.1% fast
  loop.ScheduleAt(1'000'000, [] {});
  loop.Run();
  EXPECT_EQ(fast.Read(), 1'001'000);
  EXPECT_EQ(skewed.Read(), 1'000'500);
}

// The doubling loop CappedBackoff replaces, one step per doubling.
Duration LoopBackoff(Duration initial, Duration cap, int doublings) {
  Duration delay = initial;
  for (int i = 0; i < doublings; ++i) delay = std::min(delay * 2, cap);
  return delay;
}

TEST(CappedBackoff, MatchesTheDoublingLoop) {
  const std::pair<Duration, Duration> cases[] = {
      {20, 320}, {50, 400}, {20, 300}, {1, kSecond}, {7, 7},
      {320, 20},  // initial above the cap
      {0, 100},
  };
  for (const auto& [initial, cap] : cases) {
    SCOPED_TRACE(std::to_string(initial) + " capped at " +
                 std::to_string(cap));
    for (int n = 0; n <= 100; ++n) {
      EXPECT_EQ(CappedBackoff(initial, cap, n), LoopBackoff(initial, cap, n))
          << n << " doublings";
    }
    // Every case reaches its fixed point well before 100 doublings, so the
    // loop's value at INT_MAX is its value at 100.
    EXPECT_EQ(CappedBackoff(initial, cap, INT_MAX),
              LoopBackoff(initial, cap, 100));
  }
  EXPECT_EQ(CappedBackoff(320, 20, 0), 320);
  EXPECT_EQ(CappedBackoff(320, 20, 1), 20);
  EXPECT_EQ(CappedBackoff(20, 320, INT_MAX), 320);
}

}  // namespace
}  // namespace hermes::sim
