// Unit tests of the discrete-event simulation kernel and site clocks.

#include "sim/event_loop.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

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

}  // namespace
}  // namespace hermes::sim
