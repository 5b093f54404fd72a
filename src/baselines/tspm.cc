#include "baselines/tspm.h"

#include <algorithm>

#include "util/logging.h"

namespace crowdselect {

Status TspmSelector::Train(const CrowdDatabase& db) {
  std::vector<LdaDocument> docs;
  std::vector<uint32_t> task_to_doc(db.NumTasks(), UINT32_MAX);
  for (const AssignmentRecord& a : db.assignments()) {
    if (!a.has_score || task_to_doc[a.task] != UINT32_MAX) continue;
    task_to_doc[a.task] = static_cast<uint32_t>(docs.size());
    LdaDocument doc;
    for (const auto& e : db.tasks()[a.task].bag.entries()) {
      doc.emplace_back(e.term, e.count);
    }
    docs.push_back(std::move(doc));
  }
  if (docs.empty()) return Status::FailedPrecondition("no resolved tasks");

  CS_ASSIGN_OR_RETURN(Lda model,
                      Lda::Fit(docs, db.vocabulary().size(), options_.lda));
  lda_.emplace(std::move(model));

  const size_t k = options_.lda.num_topics;
  skills_.assign(db.NumWorkers(), Vector(k, 1.0 / static_cast<double>(k)));
  std::vector<Vector> mass(db.NumWorkers(), Vector(k));
  for (const AssignmentRecord& a : db.assignments()) {
    if (!a.has_score) continue;
    const Vector topics = lda_->DocTopics(task_to_doc[a.task]);
    const double weight =
        options_.feedback_weighted ? std::max(a.score, 0.0) : 1.0;
    mass[a.worker].Axpy(weight, topics);
  }
  for (WorkerId w = 0; w < db.NumWorkers(); ++w) {
    const double total = mass[w].Sum();
    if (total > 0.0) {
      skills_[w] = mass[w] * (1.0 / total);
    }
  }
  trained_ = true;
  return Status::OK();
}

const Vector& TspmSelector::WorkerSkills(WorkerId worker) const {
  CS_CHECK(trained_ && worker < skills_.size());
  return skills_[worker];
}

Result<std::vector<RankedWorker>> TspmSelector::SelectTopK(
    const BagOfWords& task, size_t k,
    const std::vector<WorkerId>& candidates) const {
  if (!trained_) return Status::FailedPrecondition("TSPM not trained");
  const Vector categories = lda_->FoldIn(task);
  TopKAccumulator acc(k);
  for (WorkerId w : candidates) {
    if (w >= skills_.size()) {
      return Status::InvalidArgument("candidate worker unknown to the model");
    }
    acc.Offer(w, skills_[w].Dot(categories));
  }
  return acc.Take();
}

}  // namespace crowdselect
