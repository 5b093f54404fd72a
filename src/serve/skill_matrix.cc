#include "serve/skill_matrix.h"

#include "obs/metrics.h"
#include "util/logging.h"

namespace crowdselect::serve {

std::shared_ptr<const SkillMatrixSnapshot> SkillMatrixSnapshot::FromPosteriors(
    const std::vector<WorkerPosterior>& workers, uint64_t version) {
  const size_t k = workers.empty() ? 0 : workers.front().lambda.size();
  Matrix skills(workers.size(), k);
  for (size_t w = 0; w < workers.size(); ++w) {
    CS_CHECK(workers[w].lambda.size() == k)
        << "worker " << w << " has " << workers[w].lambda.size()
        << " skill dims, expected " << k;
    double* row = skills.RowPtr(w);
    for (size_t d = 0; d < k; ++d) row[d] = workers[w].lambda[d];
  }
  return std::shared_ptr<const SkillMatrixSnapshot>(
      new SkillMatrixSnapshot(std::move(skills), version));
}

std::shared_ptr<const SkillMatrixSnapshot> SkillMatrixSnapshot::FromFit(
    const TdpmFitResult& fit, uint64_t version) {
  return FromPosteriors(fit.state.workers, version);
}

std::shared_ptr<const SkillMatrixSnapshot> SkillMatrixSnapshot::FromMatrix(
    Matrix skills, uint64_t version) {
  return std::shared_ptr<const SkillMatrixSnapshot>(
      new SkillMatrixSnapshot(std::move(skills), version));
}

std::shared_ptr<const SkillMatrixSnapshot>
SkillMatrixSnapshot::WithUpdatedRows(
    const std::vector<std::pair<WorkerId, Vector>>& rows) const {
  Matrix next = skills_;
  // The blocked scan view rides along copy-on-write too: only the
  // touched lanes are re-encoded, not the whole pool.
  kernels::BlockedPanels next_panels = panels_;
  for (const auto& [w, lambda] : rows) {
    CS_CHECK(w < next.rows()) << "unknown worker " << w;
    CS_CHECK(lambda.size() == next.cols()) << "skill dimension mismatch";
    double* row = next.RowPtr(w);
    for (size_t d = 0; d < next.cols(); ++d) row[d] = lambda[d];
    next_panels.ReencodeRow(w, row);
  }
  return std::shared_ptr<const SkillMatrixSnapshot>(new SkillMatrixSnapshot(
      std::move(next), std::move(next_panels), version_ + 1));
}

void SnapshotHandle::Publish(
    std::shared_ptr<const SkillMatrixSnapshot> snapshot) {
  static obs::Counter* publishes =
      obs::MetricsRegistry::Global().GetCounter("serve.snapshot.publishes");
  static obs::Gauge* version =
      obs::MetricsRegistry::Global().GetGauge("serve.snapshot.version");
  publishes->Increment();
  if (snapshot) version->Set(static_cast<double>(snapshot->version()));
  // cs:lock(serve.skills)
  std::lock_guard<std::mutex> lock(mu_);
  current_ = std::move(snapshot);
}

std::shared_ptr<const SkillMatrixSnapshot> SnapshotHandle::Acquire() const {
  // cs:lock(serve.skills)
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

}  // namespace crowdselect::serve
