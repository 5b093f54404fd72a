// Stall watchdog: operations that should finish within a deadline arm
// themselves (Arm()/ScopedDeadline) in a process-wide registry; a
// background thread scans the registry on a short tick and, when an
// armed operation overruns its deadline, emits a flight-recorder
// "stall" event, increments the watchdog.stalls_total counter, and
// logs a warning with the operation name and overrun. Each armed
// operation fires at most once; Disarm() (the normal completion path)
// simply removes it.
//
// The watchdog is opt-in: when Start() has not been called, Arm() is a
// cheap no-op returning 0, so call sites can arm unconditionally.
#ifndef CROWDSELECT_OBS_WATCHDOG_H_
#define CROWDSELECT_OBS_WATCHDOG_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <unordered_map>

#include "util/lockdep.h"
#include "util/periodic_thread.h"

namespace crowdselect::obs {

class Watchdog {
 public:
  static Watchdog& Global();

  Watchdog() = default;
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Spawns the scanner thread (idempotent while running). `tick_ms`
  /// bounds detection latency: a stall is reported at most one tick
  /// after its deadline passes; `tick_ms <= 0` selects 50 ms.
  void Start(double tick_ms = 50.0);

  /// Joins the scanner thread. Idempotent; armed operations stay
  /// registered and are scanned again after a restart.
  void Stop() { scanner_.Stop(); }

  bool running() const { return scanner_.running(); }

  /// Registers an operation that should complete within `deadline_ms`.
  /// Returns a token for Disarm(), or 0 when the watchdog is stopped
  /// (Disarm(0) is a no-op). `name` is interned in the flight recorder.
  uint64_t Arm(const char* name, double deadline_ms);

  void Disarm(uint64_t token);

  /// Stalls reported since process start (mirrors watchdog.stalls_total).
  uint64_t stalls() const { return stalls_.load(std::memory_order_relaxed); }

  /// Operations currently armed (tests).
  size_t armed() const;

  /// One scan pass on the caller's thread: what every scanner tick
  /// runs, and how tests drive detection deterministically.
  void ScanOnce();

 private:
  struct Armed {
    uint16_t name_id = 0;
    std::chrono::steady_clock::time_point deadline;
    bool fired = false;
  };

  std::atomic<uint64_t> stalls_{0};
  std::atomic<uint64_t> next_token_{1};

  // Guards armed_; leaf lock (nothing else is acquired while held).
  // Lock order: obs.watchdog after any caller locks, never before them.
  mutable lockdep::Mutex mu_{"obs.watchdog"};
  std::unordered_map<uint64_t, Armed> armed_;
  // Declared last so it is joined before the table its scans read dies.
  PeriodicThread scanner_;
};

/// RAII deadline: arms on construction, disarms on destruction. A
/// no-op when the watchdog is stopped or `deadline_ms <= 0`.
class ScopedDeadline {
 public:
  ScopedDeadline(const char* name, double deadline_ms)
      : token_(deadline_ms > 0 ? Watchdog::Global().Arm(name, deadline_ms)
                               : 0) {}
  ~ScopedDeadline() {
    if (token_ != 0) Watchdog::Global().Disarm(token_);
  }

  ScopedDeadline(const ScopedDeadline&) = delete;
  ScopedDeadline& operator=(const ScopedDeadline&) = delete;

 private:
  uint64_t token_;
};

}  // namespace crowdselect::obs

#endif  // CROWDSELECT_OBS_WATCHDOG_H_
