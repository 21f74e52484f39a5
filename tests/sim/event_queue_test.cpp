#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace qolsr {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(2.0, [&] { order.push_back(2); });
  q.run_until(10.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 10.0);
  EXPECT_EQ(q.processed(), 3u);
}

TEST(EventQueue, SimultaneousEventsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    q.schedule_at(1.0, [&order, i] { order.push_back(i); });
  q.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, HorizonStopsExecution) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1.0, [&] { ++fired; });
  q.schedule_at(5.0, [&] { ++fired; });
  q.run_until(3.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.now(), 3.0);
  q.run_until(6.0);
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, CallbacksCanScheduleMoreEvents) {
  EventQueue q;
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    if (ticks < 5) q.schedule_in(1.0, tick);
  };
  q.schedule_at(0.0, tick);
  q.run_until(100.0);
  EXPECT_EQ(ticks, 5);
  EXPECT_EQ(q.now(), 100.0);
}

TEST(EventQueue, ScheduleInIsRelativeToNow) {
  EventQueue q;
  double fired_at = -1.0;
  q.schedule_at(2.0, [&] {
    q.schedule_in(1.5, [&] { fired_at = q.now(); });
  });
  q.run_until(10.0);
  EXPECT_DOUBLE_EQ(fired_at, 3.5);
}

TEST(EventQueue, NowAdvancesOnlyToFiredEvents) {
  EventQueue q;
  double seen = -1.0;
  q.schedule_at(4.0, [&] { seen = q.now(); });
  q.run_until(8.0);
  EXPECT_DOUBLE_EQ(seen, 4.0);
}

TEST(EventQueue, FiringDoesNotCopyTheCallback) {
  // A fan-out closure owns its receiver list, so every copy of a callback
  // is an allocation; the queue must move callbacks in and out.
  struct CopyCounter {
    int* copies;
    int* calls;
    explicit CopyCounter(int* c, int* n) : copies(c), calls(n) {}
    CopyCounter(const CopyCounter& other)
        : copies(other.copies), calls(other.calls) {
      ++*copies;
    }
    CopyCounter(CopyCounter&&) noexcept = default;
    void operator()() const { ++*calls; }
  };
  EventQueue q;
  int copies = 0, calls = 0;
  // Enough events for the heap to reorder them on push and pop.
  for (int i = 0; i < 16; ++i)
    q.schedule_at(static_cast<SimTime>((i * 7) % 16),
                  CopyCounter(&copies, &calls));
  q.run_until(100.0);
  EXPECT_EQ(calls, 16);
  EXPECT_EQ(copies, 0);
}

}  // namespace
}  // namespace qolsr
