#include "util/periodic_thread.h"

#include <utility>

namespace crowdselect {

void PeriodicThread::Start(std::chrono::duration<double> interval,
                           std::function<void()> tick) {
  std::lock_guard<std::mutex> lock(mu_);
  if (thread_.joinable()) return;
  running_.store(true, std::memory_order_release);
  thread_ = std::thread(
      &PeriodicThread::Loop, this,
      std::chrono::duration_cast<std::chrono::microseconds>(interval),
      std::move(tick), gen_);
}

void PeriodicThread::Stop() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!thread_.joinable()) return;
    // Ends this run only: a Start() that lands before the join below
    // spawns its loop on the new generation.
    ++gen_;
    running_.store(false, std::memory_order_release);
    to_join = std::move(thread_);
  }
  cv_.notify_all();
  to_join.join();
}

void PeriodicThread::Loop(std::chrono::microseconds interval,
                          std::function<void()> tick, uint64_t gen) {
  for (;;) {
    {
      // lock-order: the thread's own mutex is its only lock, and it is
      // dropped before tick() runs.
      std::unique_lock<std::mutex> lock(mu_);
      if (cv_.wait_for(lock, interval, [&] { return gen_ != gen; })) return;
    }
    tick();
  }
}

}  // namespace crowdselect
