#include "util/periodic_thread.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

namespace crowdselect {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

// Polls until `ticks` reaches `want` or five seconds pass.
void WaitForTicks(const std::atomic<int>& ticks, int want) {
  const auto deadline = steady_clock::now() + std::chrono::seconds(5);
  while (ticks.load() < want && steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(1));
  }
}

TEST(PeriodicThreadTest, TicksUntilStopped) {
  PeriodicThread thread;
  std::atomic<int> ticks{0};
  EXPECT_FALSE(thread.running());
  thread.Start(milliseconds(1), [&ticks] { ticks.fetch_add(1); });
  EXPECT_TRUE(thread.running());
  WaitForTicks(ticks, 3);
  EXPECT_GE(ticks.load(), 3);
  thread.Stop();
  EXPECT_FALSE(thread.running());
  const int settled = ticks.load();
  std::this_thread::sleep_for(milliseconds(10));
  EXPECT_EQ(ticks.load(), settled) << "no tick after Stop returns";
}

TEST(PeriodicThreadTest, StartWhileRunningIsANoOp) {
  PeriodicThread thread;
  thread.Stop();  // Safe when never started.
  std::atomic<int> first{0};
  std::atomic<int> second{0};
  thread.Start(milliseconds(1), [&first] { first.fetch_add(1); });
  thread.Start(milliseconds(1), [&second] { second.fetch_add(1); });
  WaitForTicks(first, 2);
  thread.Stop();
  thread.Stop();  // Idempotent when stopped.
  EXPECT_GE(first.load(), 2);
  EXPECT_EQ(second.load(), 0) << "the second Start must not replace the tick";
}

// A Stop that runs before the thread first waits must not be lost: Stop
// returns at once instead of after a whole interval, and nothing ticks.
TEST(PeriodicThreadTest, StopRightAfterStartReturnsPromptly) {
  PeriodicThread thread;
  std::atomic<int> ticks{0};
  const auto start = steady_clock::now();
  thread.Start(std::chrono::seconds(30), [&ticks] { ticks.fetch_add(1); });
  thread.Stop();
  EXPECT_LT(steady_clock::now() - start, milliseconds(100));
  EXPECT_EQ(ticks.load(), 0);
}

TEST(PeriodicThreadTest, DestructorJoinsASleepingThread) {
  std::atomic<int> ticks{0};
  const auto start = steady_clock::now();
  {
    PeriodicThread thread;
    thread.Start(std::chrono::seconds(30), [&ticks] { ticks.fetch_add(1); });
  }
  EXPECT_LT(steady_clock::now() - start, milliseconds(100));
  EXPECT_EQ(ticks.load(), 0);
}

TEST(PeriodicThreadTest, RestartAfterStopTicksAgain) {
  PeriodicThread thread;
  std::atomic<int> ticks{0};
  thread.Start(std::chrono::seconds(30), [&ticks] { ticks.fetch_add(1); });
  thread.Stop();
  thread.Start(milliseconds(1), [&ticks] { ticks.fetch_add(1); });
  EXPECT_TRUE(thread.running());
  WaitForTicks(ticks, 1);
  EXPECT_GE(ticks.load(), 1);
  thread.Stop();
}

// A Start racing another thread's Stop must start a fresh run rather
// than revive the loop being joined, which would wedge that Stop.
TEST(PeriodicThreadTest, ConcurrentStartStopLeavesConsistentState) {
  PeriodicThread thread;
  auto churn = [&thread] {
    for (int i = 0; i < 50; ++i) {
      thread.Start(milliseconds(1), [] {});
      thread.Stop();
    }
  };
  std::thread a(churn);
  std::thread b(churn);
  a.join();
  b.join();
  EXPECT_FALSE(thread.running());
  thread.Start(std::chrono::seconds(60), [] {});
  EXPECT_TRUE(thread.running());
  thread.Stop();
  EXPECT_FALSE(thread.running());
}

// Another thread takes Start()'s lock while a tick is in progress; if
// the loop held its mutex across the callback, that Start() would wait
// out the tick and the tick would see no release.
TEST(PeriodicThreadTest, TickRunsWithNoLockHeld) {
  std::atomic<int> ticks{0};
  std::atomic<bool> released{false};
  std::atomic<bool> saw_release{false};
  PeriodicThread thread;  // Declared last: joined before the flags die.
  thread.Start(milliseconds(1), [&] {
    if (ticks.fetch_add(1) != 0) return;  // Only the first tick blocks.
    const auto deadline = steady_clock::now() + std::chrono::seconds(5);
    while (!released.load() && steady_clock::now() < deadline) {
      std::this_thread::sleep_for(milliseconds(1));
    }
    saw_release.store(released.load());
  });
  WaitForTicks(ticks, 1);
  ASSERT_GE(ticks.load(), 1);
  thread.Start(milliseconds(1), [] {});  // No-op: already running.
  released.store(true);
  thread.Stop();
  EXPECT_FALSE(thread.running());
  EXPECT_TRUE(saw_release.load()) << "Start() waited for the tick to end";
}

}  // namespace
}  // namespace crowdselect
