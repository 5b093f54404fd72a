// One background thread that calls a callback at a fixed interval until
// stopped: the only way the process runs periodic work (the SLO window
// rotation, the stall watchdog's scan, the Prometheus exporter).
//
// Guarantees:
//   * the wait is on a predicate, so a Stop() that runs before the
//     thread first waits is not lost and a spurious wakeup does not tick;
//   * every Start() opens a new run generation and Stop() ends only the
//     current one, so a Start() racing another thread's Stop() spawns a
//     fresh loop instead of reviving the one being joined;
//   * the callback runs with no lock of this class held;
//   * running() is one atomic load, cheap enough for per-query checks.
#ifndef CROWDSELECT_UTIL_PERIODIC_THREAD_H_
#define CROWDSELECT_UTIL_PERIODIC_THREAD_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

namespace crowdselect {

class PeriodicThread {
 public:
  PeriodicThread() = default;
  ~PeriodicThread() { Stop(); }

  PeriodicThread(const PeriodicThread&) = delete;
  PeriodicThread& operator=(const PeriodicThread&) = delete;

  /// Spawns a thread that calls `tick` once per `interval`, the first
  /// call one interval after the start. A no-op while running. `tick`
  /// must not call Start() or Stop(): Stop() would join its own thread,
  /// and a Start() landing inside another thread's Stop() would open a
  /// new run that outlives that Stop().
  void Start(std::chrono::duration<double> interval,
             std::function<void()> tick);

  /// Ends the current run and joins its thread; a tick in progress
  /// finishes first, and no tick starts after Stop() returns. Idempotent
  /// and safe when never started.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

 private:
  void Loop(std::chrono::microseconds interval, std::function<void()> tick,
            uint64_t gen);

  // Set and cleared under mu_ together with thread_, read lock-free.
  std::atomic<bool> running_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  // Run generation, guarded by mu_: each loop exits once it changes.
  uint64_t gen_ = 0;
  std::thread thread_;
};

}  // namespace crowdselect

#endif  // CROWDSELECT_UTIL_PERIODIC_THREAD_H_
