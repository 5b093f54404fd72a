#include "obs/watchdog.h"

#include <mutex>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "util/logging.h"

namespace crowdselect::obs {

namespace {

struct WatchdogMetrics {
  Counter* stalls =
      MetricsRegistry::Global().GetCounter("watchdog.stalls_total");
};

WatchdogMetrics& GetWatchdogMetrics() {
  static WatchdogMetrics metrics;
  return metrics;
}

}  // namespace

Watchdog& Watchdog::Global() {
  // Leaked singleton; armed entries may be disarmed from threads
  // that outlive static destruction order. cslint: allow(naked-new)
  static Watchdog* watchdog = new Watchdog();
  return *watchdog;
}

void Watchdog::Start(double tick_ms) {
  scanner_.Start(
      std::chrono::duration<double, std::milli>(tick_ms <= 0 ? 50.0 : tick_ms),
      [this] { ScanOnce(); });
}

uint64_t Watchdog::Arm(const char* name, double deadline_ms) {
  if (!running()) return 0;
  const uint16_t name_id = FlightRecorder::Global().InternName(name);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(static_cast<int64_t>(deadline_ms * 1000.0));
  const uint64_t token = next_token_.fetch_add(1, std::memory_order_relaxed);
  // cs:lock(obs.watchdog)
  std::unique_lock<lockdep::Mutex> lock(mu_);
  armed_.emplace(token, Armed{name_id, deadline, false});
  return token;
}

void Watchdog::Disarm(uint64_t token) {
  if (token == 0) return;
  // cs:lock(obs.watchdog)
  std::unique_lock<lockdep::Mutex> lock(mu_);
  armed_.erase(token);
}

size_t Watchdog::armed() const {
  // cs:lock(obs.watchdog)
  std::unique_lock<lockdep::Mutex> lock(mu_);
  return armed_.size();
}

void Watchdog::ScanOnce() {
  const auto now = std::chrono::steady_clock::now();
  // cs:lock(obs.watchdog)
  std::unique_lock<lockdep::Mutex> lock(mu_);
  for (auto& [token, op] : armed_) {
    if (op.fired || now < op.deadline) continue;
    op.fired = true;
    const uint64_t overrun_us =
        static_cast<uint64_t>(std::chrono::duration_cast<
                                  std::chrono::microseconds>(now - op.deadline)
                                  .count());
    FlightRecorder::Global().Record(FlightEventType::kStall, op.name_id,
                                    overrun_us, token);
    stalls_.fetch_add(1, std::memory_order_relaxed);
    GetWatchdogMetrics().stalls->Increment();
    CS_LOG(Warning) << "watchdog: operation "
                    << FlightRecorder::Global().NameOf(op.name_id)
                    << " exceeded its deadline by " << overrun_us << " us";
  }
}

}  // namespace crowdselect::obs
