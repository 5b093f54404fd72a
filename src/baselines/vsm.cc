#include "baselines/vsm.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "text/tfidf.h"
#include "util/logging.h"
#include "util/timer.h"

namespace crowdselect {

Status VsmSelector::Train(const CrowdDatabase& db) {
  profiles_.assign(db.NumWorkers(), BagOfWords());
  std::vector<BagOfWords> corpus;
  corpus.reserve(db.NumTasks());
  for (const auto& task : db.tasks()) corpus.push_back(task.bag);
  tfidf_ = TfIdfModel::Fit(corpus);
  // t_w^i = union over resolved tasks with a_ij = 1.
  for (const AssignmentRecord& a : db.assignments()) {
    if (!a.has_score) continue;
    profiles_[a.worker].Merge(db.tasks()[a.task].bag);
  }
  trained_ = true;
  return Status::OK();
}

const BagOfWords& VsmSelector::WorkerProfile(WorkerId worker) const {
  CS_CHECK(trained_ && worker < profiles_.size());
  return profiles_[worker];
}

Result<std::vector<RankedWorker>> VsmSelector::SelectTopK(
    const BagOfWords& task, size_t k,
    const std::vector<WorkerId>& candidates) const {
  // Same serve.* instrumentation shape as the TDPM path (span + query
  // counter on the serve latency ladder, plus an SLO window), so
  // baseline-vs-TDPM latency comparisons come from one pipeline: compare
  // slo.serve.select.* against slo.serve.select.vsm.*.
  static obs::SpanMeter meter("serve.select.vsm",
                              obs::ServeLatencyBucketBounds());
  static obs::Counter* queries =
      obs::MetricsRegistry::Global().GetCounter("serve.queries.vsm");
  if (!trained_) return Status::FailedPrecondition("VSM not trained");
  CS_RETURN_NOT_OK(serve::ValidateCandidates(candidates, profiles_.size()));
  obs::ScopedSpan span(meter);
  Timer timer;
  queries->Increment();
  auto ranked =
      engine_.RankWithScore(k, candidates, [this, &task](WorkerId w) {
        return options_.use_tfidf ? tfidf_.CosineSimilarity(task, profiles_[w])
                                  : task.CosineSimilarity(profiles_[w]);
      });
  static obs::WindowedHistogram* const slo =
      obs::SloTracker::Global().GetWindow("serve.select.vsm");
  slo->Record(timer.ElapsedMicros());
  return ranked;
}

}  // namespace crowdselect
