// BlockedPanels encode/re-encode and the per-lane reference chain.
// This TU compiles with -ffp-contract=off (see src/CMakeLists.txt):
// LaneScore must execute the exact multiply-then-add sequence of the
// kernels, and a contracted FMA here would silently diverge from a
// non-contracted kernel (or vice versa) in the last ulp — enough to
// flip a near-tie and break the bitwise path-equivalence the test suite
// pins.
#include "serve/kernels/score_kernel.h"

#include "util/logging.h"

namespace crowdselect::serve::kernels {

BlockedPanels BlockedPanels::Build(const Matrix& row_major) {
  BlockedPanels panels;
  panels.num_workers_ = row_major.rows();
  panels.dims_ = row_major.cols();
  panels.num_panels_ =
      (panels.num_workers_ + kPanelWidth - 1) / kPanelWidth;
  panels.fp_.assign(panels.num_panels_ * panels.dims_ * kPanelWidth, 0.0);
  for (size_t w = 0; w < panels.num_workers_; ++w) {
    panels.ReencodeRow(w, row_major.RowPtr(w));
  }
  return panels;
}

void BlockedPanels::ReencodeRow(size_t w, const double* row) {
  CS_DCHECK(w < num_workers_);
  const size_t panel = w / kPanelWidth;
  const size_t lane = w % kPanelWidth;
  double* fp = fp_.data() + panel * dims_ * kPanelWidth;
  for (size_t d = 0; d < dims_; ++d) fp[d * kPanelWidth + lane] = row[d];
}

double BlockedPanels::LaneScore(size_t w, const double* query) const {
  CS_DCHECK(w < num_workers_);
  const size_t panel = w / kPanelWidth;
  const size_t lane = w % kPanelWidth;
  const double* fp = fp_.data() + panel * dims_ * kPanelWidth;
  double acc = 0.0;
  for (size_t d = 0; d < dims_; ++d) {
    acc = acc + fp[d * kPanelWidth + lane] * query[d];
  }
  return acc;
}

uint64_t BlockedPanels::Signature() const {
  // FNV-1a over the layout-defining constants; the *contents* are
  // deliberately excluded (the snapshot version already tracks content
  // generations — this fingerprints the physical format).
  uint64_t h = 0xCBF29CE484222325ULL;
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  };
  mix(kLayoutVersion);
  mix(kPanelWidth);
  mix(dims_);
  return h;
}

}  // namespace crowdselect::serve::kernels
