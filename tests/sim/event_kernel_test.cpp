// EventKernel calendar semantics: (timestamp, key, insertion order) dispatch
// order, relative scheduling, bounded runs, and clear().  The exec engine's
// determinism rests on these.  Every test uses a plain int payload and a
// dispatch lambda.
#include "sim/event_kernel.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace hsw {
namespace {

using Kernel = EventKernel<int>;

// Runs the kernel dry and returns the payloads in dispatch order.
std::vector<int> drain(Kernel& kernel) {
  std::vector<int> order;
  kernel.run([&](int id) { order.push_back(id); });
  return order;
}

TEST(EventKernel, RunsInTimeOrder) {
  Kernel kernel;
  kernel.schedule_at(3.0, 0, 3);
  kernel.schedule_at(1.0, 0, 1);
  kernel.schedule_at(2.0, 0, 2);
  std::vector<int> order;
  EXPECT_EQ(kernel.run([&](int id) { order.push_back(id); }), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(kernel.now(), 3.0);
}

TEST(EventKernel, TiesBreakByInsertionOrder) {
  Kernel kernel;
  for (int i = 0; i < 5; ++i) kernel.schedule_at(1.0, 0, i);
  EXPECT_EQ(drain(kernel), (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventKernel, ScheduleAfterIsRelative) {
  Kernel kernel;
  double fired_at = -1.0;
  kernel.schedule_at(10.0, 0, 0);
  kernel.run([&](int id) {
    if (id == 0) {
      kernel.schedule_after(5.0, 0, 1);
    } else {
      fired_at = kernel.now();
    }
  });
  EXPECT_DOUBLE_EQ(fired_at, 15.0);
}

TEST(EventKernel, EventsCanScheduleMoreEvents) {
  Kernel kernel;
  kernel.schedule_at(0.0, 0, 1);
  const std::uint64_t executed = kernel.run([&](int count) {
    if (count < 10) kernel.schedule_after(1.0, 0, count + 1);
  });
  EXPECT_EQ(executed, 10u);
  EXPECT_DOUBLE_EQ(kernel.now(), 9.0);
}

// An event scheduled at now() joins the live timestamp in key order: it
// runs before pending same-timestamp events with larger keys and after
// those with equal or smaller ones.
TEST(EventKernel, SameTimestampRescheduleKeepsKeyOrder) {
  Kernel kernel;
  kernel.schedule_at(1.0, 0, 0);
  kernel.schedule_at(1.0, 2, 2);
  kernel.schedule_at(1.0, 5, 5);
  std::vector<int> order;
  kernel.run([&](int id) {
    order.push_back(id);
    if (id == 0) {
      kernel.schedule_at(kernel.now(), 3, 3);
      kernel.schedule_at(kernel.now(), 2, 20);
    }
  });
  EXPECT_EQ(order, (std::vector<int>{0, 2, 20, 3, 5}));
}

TEST(EventKernel, RunUntilStopsAtBoundary) {
  Kernel kernel;
  std::vector<double> fired;
  auto record = [&](int) { fired.push_back(kernel.now()); };
  for (int t = 1; t <= 4; ++t) kernel.schedule_at(t, 0, t);
  // The boundary is inclusive.
  EXPECT_EQ(kernel.run_until(2.0, record), 2u);
  EXPECT_DOUBLE_EQ(kernel.now(), 2.0);
  // With nothing due, the clock still advances to the horizon.
  EXPECT_EQ(kernel.run_until(2.5, record), 0u);
  EXPECT_DOUBLE_EQ(kernel.now(), 2.5);
  EXPECT_EQ(kernel.pending(), 2u);
  kernel.run(record);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
}

TEST(EventKernel, MaxEventsBound) {
  Kernel kernel;
  for (int i = 0; i < 10; ++i) kernel.schedule_at(i, 0, i);
  EXPECT_EQ(kernel.run([](int) {}, 3), 3u);
  EXPECT_EQ(kernel.pending(), 7u);
}

TEST(EventKernel, KeyOrdersSameTimestampEvents) {
  // The exec engine passes the issuing core id as the key: a same-timestamp
  // burst from several cores must run in core order, independent of the
  // order the events were scheduled in.
  Kernel kernel;
  for (int core : {3, 1, 0, 2}) kernel.schedule_at(5.0, core, core);
  EXPECT_EQ(drain(kernel), (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventKernel, EqualKeysKeepInsertionOrder) {
  Kernel kernel;
  for (int i = 0; i < 4; ++i) kernel.schedule_at(1.0, 7, i);
  EXPECT_EQ(drain(kernel), (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventKernel, TimeBeatsKey) {
  // A later timestamp with a smaller key must still run after an earlier
  // timestamp with a bigger key.
  Kernel kernel;
  kernel.schedule_at(2.0, 0, 20);
  kernel.schedule_at(1.0, 9, 19);
  EXPECT_EQ(drain(kernel), (std::vector<int>{19, 20}));
}

TEST(EventKernel, MultiCoreBurstInterleavesDeterministically) {
  // Three "cores" each schedule two events per timestamp, shuffled at
  // scheduling time.  Replaying twice must give the identical total order:
  // (timestamp, key, seq) leaves nothing to scheduling luck.
  auto run_once = [] {
    Kernel kernel;
    for (double t : {1.0, 2.0}) {
      for (int core : {2, 0, 1}) {
        for (int rep = 0; rep < 2; ++rep) kernel.schedule_at(t, core, core);
      }
    }
    std::vector<std::pair<double, int>> order;
    kernel.run([&](int core) { order.emplace_back(kernel.now(), core); });
    return order;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
  const std::vector<std::pair<double, int>> expected = {
      {1.0, 0}, {1.0, 0}, {1.0, 1}, {1.0, 1}, {1.0, 2}, {1.0, 2},
      {2.0, 0}, {2.0, 0}, {2.0, 1}, {2.0, 1}, {2.0, 2}, {2.0, 2}};
  EXPECT_EQ(a, expected);
}

TEST(EventKernel, ScheduleAfterCarriesKey) {
  Kernel kernel;
  kernel.schedule_at(1.0, 0, 0);
  std::vector<int> order;
  kernel.run([&](int id) {
    if (id == 0) {
      kernel.schedule_after(1.0, 5, 5);
      kernel.schedule_after(1.0, 2, 2);
      return;
    }
    order.push_back(id);
  });
  EXPECT_EQ(order, (std::vector<int>{2, 5}));
}

TEST(EventKernel, ClearResets) {
  Kernel kernel;
  kernel.schedule_at(5.0, 0, 0);
  drain(kernel);
  kernel.clear();
  EXPECT_TRUE(kernel.empty());
  EXPECT_DOUBLE_EQ(kernel.now(), 0.0);
}

// clear() must drop *pending* events without running them — including the
// remainder of a live epoch when a bounded run() stopped mid-timestamp —
// and rewind the clock so earlier times are schedulable again.
TEST(EventKernel, ClearDropsPendingEventsWithoutRunningThem) {
  Kernel kernel;
  int ran = 0;
  auto count = [&](int) { ++ran; };
  for (int i = 0; i < 3; ++i) kernel.schedule_at(1.0, 0, i);
  kernel.schedule_at(9.0, 0, 3);
  kernel.run(count, 1);  // stops mid-epoch: two 1.0 events + the 9.0 event
  EXPECT_EQ(kernel.pending(), 3u);
  kernel.clear();
  EXPECT_TRUE(kernel.empty());
  EXPECT_EQ(kernel.pending(), 0u);
  EXPECT_EQ(ran, 1);
  // The clock rewound: times before the old now() are valid again.
  EXPECT_DOUBLE_EQ(kernel.now(), 0.0);
  kernel.schedule_at(0.5, 0, 4);
  kernel.run(count);
  EXPECT_EQ(ran, 2);
  EXPECT_DOUBLE_EQ(kernel.now(), 0.5);
}

// A cleared kernel must behave exactly like a freshly constructed one: the
// insertion-order tie-break restarts, so re-running the same schedule
// reproduces the same dispatch order (the reuse pattern the exec engine
// relies on between measurement windows).
TEST(EventKernel, ClearRestartsInsertionOrderTieBreak) {
  Kernel kernel;
  auto run_schedule = [&] {
    // Same (time, key) for all: only insertion order distinguishes them.
    for (int i = 0; i < 4; ++i) kernel.schedule_at(1.0, 7, i);
    return drain(kernel);
  };
  const std::vector<int> fresh = run_schedule();
  kernel.clear();
  const std::vector<int> reused = run_schedule();
  EXPECT_EQ(fresh, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(reused, fresh);
}

}  // namespace
}  // namespace hsw
