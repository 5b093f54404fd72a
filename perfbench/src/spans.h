// In-memory span recorder for the benchmark's traced run. Spans are
// recorded from the benchmark's own files, around the calls it makes
// into each module (crowddb, model, serve, text); the program itself is
// not instrumented.
//
// Every thread records into its own buffer, so recording takes no lock.
// A span carries its name, start, end, parent and request id. Each
// buffer keeps, per span name, the count, busy time, self time (duration
// minus the part covered by child spans) and every duration, for medians.
// The first kMaxKeptSpans spans of each thread are also kept whole for
// the Chrome trace dump.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-name aggregate over every recorded span of that name.
struct SpanStats {
  uint64_t count = 0;
  int64_t busy_ns = 0;
  int64_t self_ns = 0;
  bool probe = false;
  std::vector<float> durations_us;
};

class SpanLog {
 public:
  static constexpr size_t kMaxKeptSpans = 20000;

  /// Recording on the calling thread (off by default). The traced run
  /// switches it per operation so traced and untraced operations
  /// interleave in time.
  static void SetRecording(bool on);
  /// Request id attached to spans the calling thread opens from now on.
  static void SetRequest(uint64_t id);

  /// Opens a span on the calling thread; returns false (and records
  /// nothing) when recording is off. `name` must be a string literal.
  static bool Begin(const char* name, bool probe = false);
  static void End();

  /// Merged per-name statistics of every thread.
  static std::map<std::string, SpanStats> Stats();

  /// Writes the kept spans as Chrome trace JSON ("traceEvents").
  static bool WriteChromeTrace(const std::string& path, std::string* error);

  /// Spans recorded but not kept for the dump (per-thread cap).
  static uint64_t DroppedSpans();
};

/// RAII span: records only while recording is on for this thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, bool probe = false)
      : open_(SpanLog::Begin(name, probe)) {}
  ~ScopedSpan() {
    if (open_) SpanLog::End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
