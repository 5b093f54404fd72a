#include "crowddb/crowd_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "model/selection.h"
#include "text/tokenizer.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace crowdselect {
namespace {

// Deterministic stub selector: scores a worker by (worker id + 1) *
// task token count, so tests can predict rankings without a real model.
class StubSelector : public CrowdSelector {
 public:
  std::string Name() const override { return "Stub"; }
  Status Train(const CrowdDatabase& db) override {
    trained_tasks_ = db.NumScoredAssignments();
    ++train_calls_;
    return Status::OK();
  }
  Result<std::vector<RankedWorker>> SelectTopK(
      const BagOfWords& task, size_t k,
      const std::vector<WorkerId>& candidates) const override {
    TopKAccumulator acc(k);
    for (WorkerId w : candidates) {
      acc.Offer(w, static_cast<double>(w + 1) *
                       static_cast<double>(task.TotalTokens()));
    }
    return acc.Take();
  }
  int train_calls() const { return train_calls_; }
  size_t trained_tasks() const { return trained_tasks_; }

 private:
  int train_calls_ = 0;
  size_t trained_tasks_ = 0;
};

CrowdDatabase SeedDb() {
  CrowdDatabase db;
  db.AddWorker("a");
  db.AddWorker("b");
  db.AddWorker("c", /*online=*/false);
  return db;
}

TEST(CrowdManagerTest, SelectRequiresTraining) {
  CrowdDatabase db = SeedDb();
  CrowdManager manager(&db, std::make_unique<StubSelector>());
  BagOfWords bag;
  bag.Add(0);
  EXPECT_TRUE(manager.SelectCrowd(bag, 1).status().IsFailedPrecondition());
  ASSERT_TRUE(manager.InferCrowdModel().ok());
  EXPECT_TRUE(manager.trained());
  EXPECT_TRUE(manager.SelectCrowd(bag, 1).ok());
}

TEST(CrowdManagerTest, OnlyOnlineWorkersAreCandidates) {
  CrowdDatabase db = SeedDb();
  CrowdManager manager(&db, std::make_unique<StubSelector>());
  ASSERT_TRUE(manager.InferCrowdModel().ok());
  BagOfWords bag;
  bag.Add(0);
  auto crowd = manager.SelectCrowd(bag, 10);
  ASSERT_TRUE(crowd.ok());
  // Worker 2 is offline; stub ranks by id so 1 > 0.
  ASSERT_EQ(crowd->size(), 2u);
  EXPECT_EQ((*crowd)[0].worker, 1u);
  EXPECT_EQ((*crowd)[1].worker, 0u);

  manager.online_pool()->CheckIn(2);
  crowd = manager.SelectCrowd(bag, 10);
  ASSERT_EQ(crowd->size(), 3u);
  EXPECT_EQ((*crowd)[0].worker, 2u);
}

TEST(CrowdManagerTest, ProcessTaskEndToEnd) {
  CrowdDatabase db = SeedDb();
  CrowdManager manager(&db, std::make_unique<StubSelector>());
  ASSERT_TRUE(manager.InferCrowdModel().ok());

  TaskDispatcher dispatcher(
      &db,
      [](WorkerId w, const TaskRecord&) {
        return "answer from " + std::to_string(w);
      },
      [](WorkerId w, const TaskRecord&, const std::string&) {
        return static_cast<double>(w);
      });
  auto answers = manager.ProcessTask("how do b+ trees work", 2, &dispatcher);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  EXPECT_EQ(answers->size(), 2u);
  EXPECT_EQ(db.NumTasks(), 1u);
  EXPECT_EQ(db.NumScoredAssignments(), 2u);
  EXPECT_TRUE(db.GetTask(0).value()->resolved);
}

// Records the observer callbacks CrowdManager makes on resolve, sharing
// an event log with ObservingSelector so tests can assert ordering.
class RecordingObserver : public ResolvedTaskObserver {
 public:
  explicit RecordingObserver(std::vector<std::string>* events)
      : events_(events) {}
  void OnResolvedTask(
      const BagOfWords& task, const std::vector<RankedWorker>& predicted,
      const std::vector<std::pair<WorkerId, double>>& realized) override {
    (void)task;
    events_->push_back("observer");
    last_predicted_ = predicted;
    last_realized_ = realized;
  }
  const std::vector<RankedWorker>& last_predicted() const {
    return last_predicted_;
  }
  const std::vector<std::pair<WorkerId, double>>& last_realized() const {
    return last_realized_;
  }

 private:
  std::vector<std::string>* events_;
  std::vector<RankedWorker> last_predicted_;
  std::vector<std::pair<WorkerId, double>> last_realized_;
};

class ObservingSelector : public StubSelector {
 public:
  explicit ObservingSelector(std::vector<std::string>* events)
      : events_(events) {}
  Status ObserveResolvedTask(
      const BagOfWords& task,
      const std::vector<std::pair<WorkerId, double>>& scored) override {
    events_->push_back("fold_in");
    return StubSelector::ObserveResolvedTask(task, scored);
  }

 private:
  std::vector<std::string>* events_;
};

TEST(CrowdManagerTest, ResolvedObserverSeesTheTaskBeforeFoldIn) {
  CrowdDatabase db = SeedDb();
  std::vector<std::string> events;
  CrowdManager manager(&db, std::make_unique<ObservingSelector>(&events));
  manager.set_live_skill_updates(true);
  RecordingObserver observer(&events);
  manager.set_resolved_observer(&observer);
  ASSERT_TRUE(manager.InferCrowdModel().ok());

  TaskDispatcher dispatcher(
      &db, [](WorkerId, const TaskRecord&) { return std::string("x"); },
      [](WorkerId w, const TaskRecord&, const std::string&) {
        return static_cast<double>(w) + 1.0;
      });
  ASSERT_TRUE(manager.ProcessTask("observe ordering", 2, &dispatcher).ok());

  // The shadow evaluator must score the prediction BEFORE the feedback
  // folds into the model, so it measures held-out quality.
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], "observer");
  EXPECT_EQ(events[1], "fold_in");

  // The observer receives the selected crowd and the realized scores.
  ASSERT_EQ(observer.last_predicted().size(), 2u);
  ASSERT_EQ(observer.last_realized().size(), 2u);
  EXPECT_EQ(observer.last_realized()[0].second,
            static_cast<double>(observer.last_realized()[0].first) + 1.0);

  // Detaching stops the callbacks.
  manager.set_resolved_observer(nullptr);
  ASSERT_TRUE(manager.ProcessTask("after detach", 1, &dispatcher).ok());
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[2], "fold_in");
}

TEST(CrowdManagerTest, ObserverFiresWithoutLiveSkillUpdates) {
  CrowdDatabase db = SeedDb();
  std::vector<std::string> events;
  CrowdManager manager(&db, std::make_unique<StubSelector>());
  RecordingObserver observer(&events);
  manager.set_resolved_observer(&observer);
  ASSERT_TRUE(manager.InferCrowdModel().ok());
  TaskDispatcher dispatcher(
      &db, [](WorkerId, const TaskRecord&) { return std::string("x"); },
      [](WorkerId, const TaskRecord&, const std::string&) { return 1.0; });
  ASSERT_TRUE(manager.ProcessTask("observer only", 2, &dispatcher).ok());
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0], "observer");
}

TEST(CrowdManagerTest, AutoRetrainAfterInterval) {
  CrowdDatabase db = SeedDb();
  auto selector = std::make_unique<StubSelector>();
  StubSelector* raw = selector.get();
  CrowdManager manager(&db, std::move(selector));
  manager.set_retrain_interval(2);
  ASSERT_TRUE(manager.InferCrowdModel().ok());
  EXPECT_EQ(raw->train_calls(), 1);

  TaskDispatcher dispatcher(
      &db, [](WorkerId, const TaskRecord&) { return std::string("x"); },
      [](WorkerId, const TaskRecord&, const std::string&) { return 1.0; });
  ASSERT_TRUE(manager.ProcessTask("q one", 1, &dispatcher).ok());
  EXPECT_EQ(raw->train_calls(), 1);
  ASSERT_TRUE(manager.ProcessTask("q two", 1, &dispatcher).ok());
  EXPECT_EQ(raw->train_calls(), 2);  // Interval reached.
  EXPECT_EQ(raw->trained_tasks(), 2u);
}

// Two topics; even workers ace the first, odd workers the second.
CrowdDatabase TwoTopicDb() {
  CrowdDatabase db;
  for (int w = 0; w < 6; ++w) db.AddWorker(StringPrintf("w%d", w));
  const std::vector<std::string> texts = {
      "btree index page", "index scan buffer page",
      "matrix gradient algebra", "integral calculus matrix"};
  for (size_t i = 0; i < texts.size(); ++i) {
    const TaskId t = db.AddTask(texts[i]);
    const WorkerId experts = i < 2 ? 0 : 1;
    for (WorkerId w = 0; w < 6; ++w) {
      CS_CHECK_OK(db.Assign(w, t));
      CS_CHECK_OK(db.RecordFeedback(w, t, w % 2 == experts ? 5.0 : 1.0));
    }
  }
  return db;
}

// SelectCrowd ranks the pool's published ids in place; perfbench's traced
// route replays it as Snapshot() followed by SelectTopK(). Both must give
// the same bytes, before and after the pool changes.
TEST(CrowdManagerTest, SelectCrowdMatchesTheSnapshotReplay) {
  CrowdDatabase db = TwoTopicDb();
  TdpmOptions options;
  options.num_categories = 2;
  options.max_em_iterations = 10;
  options.seed = 5;
  CrowdManager manager(&db, std::make_unique<TdpmSelector>(options));
  ASSERT_TRUE(manager.InferCrowdModel().ok());
  Tokenizer tokenizer{TokenizerOptions{.remove_stopwords = true}};
  const BagOfWords bag = BagOfWords::FromTextFrozen(
      "btree index matrix", tokenizer, db.vocabulary());
  const auto expect_replay_matches = [&](size_t online) {
    auto crowd = manager.SelectCrowd(bag, 4);
    auto replay = manager.selector().SelectTopK(
        bag, 4, manager.online_pool()->Snapshot());
    ASSERT_TRUE(crowd.ok()) << crowd.status().ToString();
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    ASSERT_EQ(crowd->size(), std::min<size_t>(4, online));
    ASSERT_EQ(crowd->size(), replay->size());
    for (size_t i = 0; i < crowd->size(); ++i) {
      EXPECT_EQ((*crowd)[i].worker, (*replay)[i].worker);
      EXPECT_EQ(std::memcmp(&(*crowd)[i].score, &(*replay)[i].score,
                            sizeof(double)),
                0)
          << "rank " << i;
    }
  };
  expect_replay_matches(6);
  manager.online_pool()->CheckOut(0);
  manager.online_pool()->CheckOut(3);
  expect_replay_matches(4);
}

}  // namespace
}  // namespace crowdselect
