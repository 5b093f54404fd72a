#include "eval/split.h"

#include <algorithm>
#include <unordered_set>

#include "util/rng.h"

namespace crowdselect {

Result<EvalSplit> MakeSplit(const SyntheticDataset& dataset,
                            const WorkerGroup& group,
                            const SplitOptions& options) {
  if (group.members.empty()) {
    return Status::InvalidArgument("empty worker group");
  }
  const std::unordered_set<WorkerId> members(group.members.begin(),
                                             group.members.end());
  const CrowdDatabase& db = dataset.db;

  // Eligible tasks: right worker in group, enough in-group answerers.
  std::vector<EvalCase> eligible;
  for (size_t j = 0; j < dataset.world.assignment.size(); ++j) {
    const auto& slots = dataset.world.assignment[j];
    if (slots.empty()) continue;
    const WorkerId right = dataset.RightWorker(j);
    if (!members.count(right)) continue;
    EvalCase test_case;
    test_case.task = static_cast<TaskId>(j);
    test_case.right_worker = right;
    for (WorkerId w : slots) {
      if (members.count(w)) test_case.candidates.push_back(w);
    }
    if (test_case.candidates.size() < options.min_candidates) continue;
    eligible.push_back(std::move(test_case));
  }
  if (eligible.empty()) {
    return Status::FailedPrecondition(
        "no eligible test tasks for this group");
  }

  Rng rng(options.seed);
  rng.Shuffle(&eligible);
  if (eligible.size() > options.num_test_tasks) {
    eligible.resize(options.num_test_tasks);
  }
  // The world draws answer slots by participation weight, so slot order
  // ranks the answerers; shuffle it away so no selector can score off
  // the order it is handed candidates in.
  for (EvalCase& test_case : eligible) rng.Shuffle(&test_case.candidates);

  std::unordered_set<TaskId> test_tasks;
  for (const auto& c : eligible) test_tasks.insert(c.task);

  // Rebuild the database without the test tasks' assignments. Task rows
  // stay (the corpus is public; only their outcomes are hidden).
  EvalSplit split;
  split.cases = std::move(eligible);
  CrowdDatabase& train = split.train_db;
  *train.mutable_vocabulary() = db.vocabulary();
  for (const auto& w : db.workers()) {
    train.AddWorker(w.handle, w.online);
  }
  for (const auto& t : db.tasks()) {
    train.AddTaskWithBag(t.text, t.bag);
  }
  for (const AssignmentRecord& a : db.assignments()) {
    if (test_tasks.count(a.task)) continue;
    CS_RETURN_NOT_OK(train.Assign(a.worker, a.task));
    if (a.has_score) {
      CS_RETURN_NOT_OK(train.RecordFeedback(a.worker, a.task, a.score));
    }
  }
  return split;
}

}  // namespace crowdselect
