// Topic-Sensitive Probabilistic Model baseline (Guo et al., CIKM'08 [8];
// Zhou et al., CIKM'12 [33]): Multinomial worker skills estimated on an
// LDA latent category space (paper §7.2.1). Like DRM it suffers the
// normalization limitation the paper targets. The LDA is fitted by
// mean-field variational EM (lda.h).
#ifndef CROWDSELECT_BASELINES_TSPM_H_
#define CROWDSELECT_BASELINES_TSPM_H_

#include <optional>
#include <string>
#include <vector>

#include "baselines/lda.h"
#include "crowddb/selector_interface.h"

namespace crowdselect {

struct TspmOptions {
  LdaOptions lda;
  /// Weight each solved task's topic proportions by its feedback score.
  bool feedback_weighted = true;
};

class TspmSelector : public CrowdSelector {
 public:
  explicit TspmSelector(TspmOptions options) : options_(std::move(options)) {}

  std::string Name() const override { return "TSPM"; }
  Status Train(const CrowdDatabase& db) override;
  Result<std::vector<RankedWorker>> SelectTopK(
      const BagOfWords& task, size_t k,
      const std::vector<WorkerId>& candidates) const override;

  /// The worker's multinomial skill vector (sums to 1).
  const Vector& WorkerSkills(WorkerId worker) const;
  /// The fitted LDA; only valid after a successful Train().
  const Lda& lda() const { return *lda_; }

 private:
  TspmOptions options_;
  std::optional<Lda> lda_;
  std::vector<Vector> skills_;
  bool trained_ = false;
};

}  // namespace crowdselect

#endif  // CROWDSELECT_BASELINES_TSPM_H_
