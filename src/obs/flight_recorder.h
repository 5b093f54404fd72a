// Always-on "black box" flight recorder: every thread owns a lock-free
// ring of compact structured events (span begin/end, WAL appends,
// checkpoint publishes, cache hits, snapshot swaps, watchdog stalls).
// The hot path is four relaxed atomic word stores plus one release
// cursor store — no mutex, no allocation — so it is safe to leave
// enabled in production and safe to call from contexts where a lock
// would deadlock.
//
// Two readers exist:
//   * Dump()/WriteJsonlFile() merge all rings chronologically into
//     JSONL for the `debug-dump` CLI command and `--flightrec-out`.
//   * DumpToFd() is async-signal-safe (write() + hand-rolled decimal
//     formatting only) and is what the crash handler calls from inside
//     a SIGSEGV handler. Both emit the exact same line format.
//
// Ring slots are std::atomic<uint64_t> words written with relaxed
// stores and published by a release store of the cursor; readers that
// race with writers (the crash handler) may see a stale slot at the
// write frontier but never undefined behaviour, and normal dumps
// quiesce nothing — the ring simply overwrites oldest-first.
#ifndef CROWDSELECT_OBS_FLIGHT_RECORDER_H_
#define CROWDSELECT_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/lockdep.h"
#include "util/status.h"

namespace crowdselect::obs {

/// Event kinds recorded in the flight ring. Values are stable — they
/// appear packed in ring words and symbolically in dump output.
enum class FlightEventType : uint8_t {
  kSpanBegin = 0,     ///< ScopedSpan opened (a = span id).
  kSpanEnd = 1,       ///< ScopedSpan closed (a = duration us).
  kWalAppend = 2,     ///< WAL record appended (a = seq, b = bytes).
  kCheckpoint = 3,    ///< Checkpoint published (a = seq, b = bytes).
  kCacheHit = 4,      ///< Fold-in cache hit (a = key).
  kCacheMiss = 5,     ///< Fold-in cache miss (a = key).
  kSnapshotSwap = 6,  ///< Serve snapshot published (a = version).
  kApply = 7,         ///< Mutation applied to the store (a = seq, b = kind).
  kQuery = 8,         ///< Select query admitted (a = task id, b = k).
  kScanChunk = 9,     ///< Parallel top-k scan chunk (a = begin, b = end).
  kStall = 10,        ///< Watchdog deadline exceeded (a = overrun us).
  kMark = 11,         ///< Free-form marker (debug-dump, tests).
  kRouteDecision = 12,  ///< Router dispatched a query (a = member, b = mode).
  kAlert = 13,  ///< Alert rule changed state (a = rule index, b = new state).
  kKernelScan = 14,  ///< Dense panel scan (a = kernel ordinal, b = candidates).
};

/// Stable lowercase name for a FlightEventType ("span_begin", ...).
/// Returns a static string; async-signal-safe.
const char* FlightEventTypeName(FlightEventType type);

/// A decoded flight event, as returned by Snapshot().
struct FlightEvent {
  uint64_t ts_ns = 0;  ///< Nanoseconds since the recorder's time origin.
  FlightEventType type = FlightEventType::kMark;
  uint16_t name_id = 0;
  uint32_t thread_index = 0;
  uint64_t a = 0;
  uint64_t b = 0;
};

namespace internal {

/// Per-thread event ring. Leaked on thread exit (never freed) so the
/// crash handler can walk every ring that ever existed without
/// synchronizing with thread teardown.
struct FlightRing {
  static constexpr size_t kMaxOpenSpans = 32;

  explicit FlightRing(size_t capacity_pow2);
  /// Frees `words`. Only ever runs for rings that were never
  /// registered; registered rings are intentionally leaked.
  ~FlightRing();

  const size_t capacity;  ///< Power of two.
  const size_t mask;      ///< capacity - 1.
  uint32_t thread_index = 0;
  std::atomic<uint64_t> cursor{0};  ///< Next slot index (monotonic).
  /// capacity * 4 words; slot i occupies words [4i, 4i+4). Leaked with
  /// the ring.
  std::atomic<uint64_t>* const words;

  /// Open-span stack for crash dumps: name ids of spans currently open
  /// on this thread, maintained by ScopedSpan via Push/PopSpan.
  std::atomic<uint32_t> open_depth{0};
  std::atomic<uint16_t> open_names[kMaxOpenSpans];
};

}  // namespace internal

/// Process-wide flight recorder. All methods are thread-safe; Record()
/// and the span-stack hooks are lock-free and async-signal-safe once
/// the calling thread's ring exists (the first event on a thread
/// allocates and registers the ring under a mutex).
class FlightRecorder {
 public:
  static constexpr size_t kMaxThreads = 256;
  static constexpr size_t kMaxNames = 1024;

  static FlightRecorder& Global();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Per-thread ring capacity in events, rounded up to a power of two
  /// with a floor of 16. Applies to rings created after the call
  /// (existing rings keep their size). Default 4096.
  void SetCapacityPerThread(size_t events);

  /// Interns `name` (copied) and returns its id; idempotent per string.
  /// Takes the intern mutex — call at registration time, not per event.
  /// Returns 0 (the reserved "?" name) once kMaxNames is exhausted.
  uint16_t InternName(const char* name);

  /// Static string for an interned id; async-signal-safe.
  const char* NameOf(uint16_t id) const;

  /// Records one event on the calling thread's ring. Lock-free.
  void Record(FlightEventType type, uint16_t name_id, uint64_t a = 0,
              uint64_t b = 0);

  /// Open-span stack maintenance, called by ScopedSpan. PushSpan also
  /// records kSpanBegin; PopSpan records kSpanEnd with the duration.
  void PushSpan(uint16_t name_id, uint64_t span_id);
  void PopSpan(uint16_t name_id, uint64_t duration_us);

  /// Nanoseconds since the recorder's time origin (steady clock).
  uint64_t NowNs() const;

  /// Decodes every retained event across all rings, merged by time.
  std::vector<FlightEvent> Snapshot() const;

  /// Total events recorded since process start (not capped by ring
  /// capacity; overwritten events still count).
  uint64_t total_events() const;

  /// One JSON object per line: header, open-span stacks, then events in
  /// chronological order — the exact format DumpToFd() emits.
  std::string Dump(const char* reason) const;

  /// Writes Dump() atomically (tmp + rename).
  Status WriteJsonlFile(const std::string& path, const char* reason) const;

  /// Async-signal-safe dump to an open file descriptor: uses only
  /// write() and stack buffers. `reason`, `build_info` and `config`
  /// must be NUL-terminated strings that are safe to read in a signal
  /// handler (static or preformatted at install time); build_info and
  /// config may be nullptr.
  void DumpToFd(int fd, const char* reason, const char* build_info,
                const char* config) const;

  /// Test hook: drops the calling thread's cached ring pointer (and
  /// its registry-exhausted flag) so the next Record() registers a
  /// fresh ring (simulates a new thread).
  static void ResetThreadForTest();

 private:
  FlightRecorder();

  internal::FlightRing* LocalRing();
  void DecodeRing(const internal::FlightRing& ring,
                  std::vector<FlightEvent>* out) const;

  std::chrono::steady_clock::time_point origin_;
  std::atomic<bool> enabled_{true};
  std::atomic<size_t> capacity_{4096};
  std::atomic<uint64_t> total_events_{0};

  // Ring registry: fixed-size array of leaked ring pointers readable
  // without locks (and from signal handlers); ring_count_ is published
  // with release after the slot store. registry_mu_ serializes writers.
  lockdep::Mutex registry_mu_{"obs.flightrec"};
  std::atomic<internal::FlightRing*> rings_[kMaxThreads] = {};
  std::atomic<uint32_t> ring_count_{0};

  // Name intern table: names_[id] is a stable, never-freed C string;
  // name_count_ published with release. Interning takes registry_mu_.
  std::atomic<const char*> names_[kMaxNames] = {};
  std::atomic<uint32_t> name_count_{0};
};

}  // namespace crowdselect::obs

#endif  // CROWDSELECT_OBS_FLIGHT_RECORDER_H_
