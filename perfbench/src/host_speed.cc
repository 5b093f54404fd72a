#include "host_speed.h"

#include <algorithm>
#include <cmath>

#include "spans.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr size_t kRows = 30;
constexpr size_t kCols = 480;
constexpr size_t kKeys = 2048;
// Reference samples on each side of a block that its factor uses.
constexpr size_t kWindow = 2;

double Scale(double reference_us) {
  return std::pow(HostReference::kNominalUs / reference_us,
                  HostReference::kSlowdownExponent);
}

double Median(std::vector<float> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

HostReference::HostReference()
    : matrix_(kRows * kCols), vec_(kCols), unsorted_(kKeys) {
  crowdselect::Rng rng(0x5EED);
  for (double& x : matrix_) x = rng.Uniform();
  for (double& x : vec_) x = rng.Uniform();
  for (double& x : unsorted_) x = rng.Uniform();
  for (size_t i = 0; i < kKeys; ++i) {
    keys_.push_back(rng.Next());
    map_[keys_.back()] = i;
  }
}

double HostReference::RunOnce() {
  const int64_t t0 = NowNs();
  double acc = 0;
  for (size_t r = 0; r < kRows; ++r) {
    const double* row = &matrix_[r * kCols];
    double s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    for (size_t c = 0; c < kCols; c += 4) {
      s0 += row[c] * vec_[c];
      s1 += row[c + 1] * vec_[c + 1];
      s2 += std::exp(row[c + 2] * vec_[c + 2]);
      s3 += std::log1p(row[c + 3] * vec_[c + 3]);
    }
    acc += s0 + s1 + s2 + s3;
  }
  uint64_t hits = 0;
  for (uint64_t key : keys_) hits += map_.find(key)->second;
  work_ = unsorted_;
  std::sort(work_.begin(), work_.end());
  sink_ += acc + static_cast<double>(hits) + work_[hits % work_.size()];
  return static_cast<double>(NowNs() - t0) / 1000.0;
}

double HostReference::SampleUs() {
  RunOnce();
  return RunOnce();
}

double SpeedNormalizer::Factor(uint32_t block) const {
  if (reference_us_.empty()) return 1.0;
  const size_t n = reference_us_.size();
  const size_t lo = block >= kWindow - 1 ? block - (kWindow - 1) : 0;
  const size_t hi = std::min(n, static_cast<size_t>(block) + kWindow + 1);
  if (lo >= hi) return Factor();
  return Scale(Median(std::vector<float>(reference_us_.begin() + lo,
                                         reference_us_.begin() + hi)));
}

double SpeedNormalizer::Factor() const {
  return reference_us_.empty() ? 1.0 : Scale(MedianReferenceUs());
}

double SpeedNormalizer::MedianReferenceUs() const {
  return reference_us_.empty() ? HostReference::kNominalUs
                               : Median(reference_us_);
}

}  // namespace perfbench
