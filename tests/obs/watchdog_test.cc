#include "obs/watchdog.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "obs/flight_recorder.h"

namespace crowdselect::obs {
namespace {

TEST(WatchdogTest, ArmIsANoOpWhenStopped) {
  Watchdog dog;
  EXPECT_FALSE(dog.running());
  EXPECT_EQ(dog.Arm("test.stopped.op", 10.0), 0u);
  dog.Disarm(0);  // Must be safe.
  EXPECT_EQ(dog.armed(), 0u);
}

TEST(WatchdogTest, StartStopIsCleanAndIdempotent) {
  Watchdog dog;
  dog.Start(/*tick_ms=*/5.0);
  EXPECT_TRUE(dog.running());
  dog.Start(5.0);  // Idempotent while running.
  EXPECT_TRUE(dog.running());
  dog.Stop();
  EXPECT_FALSE(dog.running());
  dog.Stop();  // Idempotent when stopped.
}

TEST(WatchdogTest, OverrunFiresExactlyOneStall) {
  Watchdog dog;
  // A huge tick keeps the background thread out of the way so ScanOnce
  // drives detection deterministically.
  dog.Start(/*tick_ms=*/60000.0);
  const uint64_t token = dog.Arm("test.stall.op", /*deadline_ms=*/0.01);
  ASSERT_NE(token, 0u);
  EXPECT_EQ(dog.armed(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  dog.ScanOnce();
  EXPECT_EQ(dog.stalls(), 1u);
  dog.ScanOnce();
  EXPECT_EQ(dog.stalls(), 1u) << "an operation fires at most once";
  dog.Disarm(token);
  EXPECT_EQ(dog.armed(), 0u);
  dog.Stop();
}

TEST(WatchdogTest, StallEmitsFlightRecorderEvent) {
  FlightRecorder& rec = FlightRecorder::Global();
  Watchdog dog;
  dog.Start(/*tick_ms=*/60000.0);
  const uint64_t token = dog.Arm("test.stall.flight", 0.01);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  dog.ScanOnce();
  dog.Disarm(token);
  dog.Stop();
  const uint16_t name = rec.InternName("test.stall.flight");
  bool found = false;
  for (const FlightEvent& e : rec.Snapshot()) {
    if (e.name_id == name && e.type == FlightEventType::kStall) {
      found = true;
      EXPECT_GT(e.a, 0u) << "overrun microseconds";
    }
  }
  EXPECT_TRUE(found);
}

TEST(WatchdogTest, DisarmBeforeDeadlinePreventsStall) {
  Watchdog dog;
  dog.Start(/*tick_ms=*/60000.0);
  const uint64_t token = dog.Arm("test.ok.op", /*deadline_ms=*/60000.0);
  ASSERT_NE(token, 0u);
  dog.Disarm(token);
  dog.ScanOnce();
  EXPECT_EQ(dog.stalls(), 0u);
  dog.Stop();
}

TEST(WatchdogTest, BackgroundThreadDetectsStalls) {
  Watchdog dog;
  dog.Start(/*tick_ms=*/2.0);
  const uint64_t token = dog.Arm("test.bg.op", /*deadline_ms=*/1.0);
  ASSERT_NE(token, 0u);
  // The scanner should report the overrun within a few ticks.
  for (int i = 0; i < 500 && dog.stalls() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(dog.stalls(), 1u);
  dog.Disarm(token);
  dog.Stop();
}

TEST(WatchdogTest, ScopedDeadlineArmsAndDisarms) {
  Watchdog& global = Watchdog::Global();
  // Global() stopped: the scope must be a no-op.
  {
    ScopedDeadline deadline("test.scoped.noop", 1000.0);
    EXPECT_EQ(global.armed(), 0u);
  }
  global.Start(/*tick_ms=*/60000.0);
  {
    ScopedDeadline deadline("test.scoped.armed", 60000.0);
    EXPECT_EQ(global.armed(), 1u);
  }
  EXPECT_EQ(global.armed(), 0u);
  {
    ScopedDeadline disabled("test.scoped.disabled", 0.0);
    EXPECT_EQ(global.armed(), 0u) << "deadline <= 0 disables arming";
  }
  global.Stop();
}

TEST(WatchdogTest, RestartAfterStopDetectsStalls) {
  Watchdog dog;
  dog.Start(5.0);
  dog.Stop();
  dog.Start(/*tick_ms=*/60000.0);
  EXPECT_TRUE(dog.running());
  const uint64_t token = dog.Arm("test.restart.op", /*deadline_ms=*/0.01);
  ASSERT_NE(token, 0u) << "a restarted watchdog must accept arms";
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  dog.ScanOnce();
  EXPECT_EQ(dog.stalls(), 1u);
  dog.Disarm(token);
  dog.Stop();
}

TEST(WatchdogTest, ConcurrentStartStopLeavesConsistentState) {
  Watchdog dog;
  // Hammer the lifecycle from two threads; a Start racing a Stop's
  // join must never leave the watchdog wedged in a stopped state.
  auto churn = [&dog] {
    for (int i = 0; i < 50; ++i) {
      dog.Start(/*tick_ms=*/1.0);
      dog.Stop();
    }
  };
  std::thread a(churn);
  std::thread b(churn);
  a.join();
  b.join();
  dog.Start(/*tick_ms=*/60000.0);
  EXPECT_TRUE(dog.running());
  dog.Stop();
  EXPECT_FALSE(dog.running());
}

// A Stop right after Start must not wait out the 30 s tick.
TEST(WatchdogTest, StopRightAfterStartReturnsPromptly) {
  Watchdog dog;
  const auto start = std::chrono::steady_clock::now();
  dog.Start(/*tick_ms=*/30000.0);
  dog.Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(100));
  EXPECT_FALSE(dog.running());
}

TEST(WatchdogTest, GlobalIsASingleton) {
  EXPECT_EQ(&Watchdog::Global(), &Watchdog::Global());
}

}  // namespace
}  // namespace crowdselect::obs
