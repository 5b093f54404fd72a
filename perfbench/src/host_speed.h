// Host-speed reference. The machines this benchmark runs on are shared:
// a neighbour's load slows every request by up to ~1.6x for seconds to
// minutes at a time, which is far more than the bounds a benchmark must
// resolve. The reference is a fixed mix of work owned by the benchmark
// (dot products, exp/log1p, hash lookups and a sort; no program code), run
// between requests. The end-to-end times are scaled by
// (kNominalUs / reference time near the request) ^ kSlowdownExponent, so
// they read as times on a host where the reference takes kNominalUs; the
// raw times are printed alongside.
#ifndef PERFBENCH_HOST_SPEED_H_
#define PERFBENCH_HOST_SPEED_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace perfbench {

class HostReference {
 public:
  /// Reference time, in microseconds, that normalized times are scaled to
  /// (about the reference's time on an idle 4-vCPU Xeon VM).
  static constexpr double kNominalUs = 160.0;
  /// Requests slow down more than the mix does when a neighbour loads the
  /// host: over ten runs of each single-client workload on a shared 4-vCPU
  /// VM, log(request latency) rose 1.2 to 1.4 times as fast as log(mix
  /// time). Scaling by the mix's slowdown to this power removes most of
  /// the spread that the plain ratio leaves.
  static constexpr double kSlowdownExponent = 1.3;

  HostReference();

  /// Runs the mix twice and returns the second run's time in µs: the first
  /// run refills the caches the requests evicted, so the sample tracks the
  /// host rather than the program's memory use.
  double SampleUs();

 private:
  double RunOnce();

  std::vector<double> matrix_;
  std::vector<double> vec_;
  std::vector<double> unsorted_;
  std::vector<double> work_;
  std::vector<uint64_t> keys_;
  std::unordered_map<uint64_t, uint64_t> map_;
  double sink_ = 0;
};

/// Scales raw samples by the reference measured around them. Samples are
/// grouped in blocks: block b ran between reference samples b and b + 1.
class SpeedNormalizer {
 public:
  explicit SpeedNormalizer(std::vector<float> reference_us)
      : reference_us_(std::move(reference_us)) {}

  /// (kNominalUs / median reference of the blocks around `block`) ^
  /// kSlowdownExponent.
  double Factor(uint32_t block) const;
  /// The same over every reference sample.
  double Factor() const;

  /// Median over every reference sample.
  double MedianReferenceUs() const;

 private:
  std::vector<float> reference_us_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HOST_SPEED_H_
