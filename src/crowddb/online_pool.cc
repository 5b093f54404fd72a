#include "crowddb/online_pool.h"

#include <algorithm>
#include <iterator>

#include "obs/metrics.h"

namespace crowdselect {

namespace {

// Pool churn metrics; the gauge tracks the online population over time.
obs::Counter* CheckinCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("pool.checkins");
  return c;
}

obs::Counter* CheckoutCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("pool.checkouts");
  return c;
}

obs::Gauge* OnlineGauge() {
  static obs::Gauge* g =
      obs::MetricsRegistry::Global().GetGauge("pool.online");
  return g;
}

}  // namespace

template <typename Edit>
size_t OnlineWorkerPool::Republish(const Edit& edit) {
  // cs:lock(crowddb.pool.writer)
  std::lock_guard<std::mutex> writer(writer_mu_);
  // Only a writer replaces ids_, and this one holds writer_mu_, so it
  // may read ids_ without mu_.
  std::vector<WorkerId> next;
  if (!edit(*ids_, &next)) return ids_->size();
  const size_t online = next.size();
  std::shared_ptr<const std::vector<WorkerId>> retired =
      std::make_shared<const std::vector<WorkerId>>(std::move(next));
  {
    // cs:lock(crowddb.pool)
    std::lock_guard<std::mutex> lock(mu_);
    ids_.swap(retired);
  }
  // `retired` frees the old vector here, outside mu_, unless a query
  // still holds it.
  return online;
}

void OnlineWorkerPool::CheckIn(WorkerId worker) {
  const size_t online = Republish([worker](const std::vector<WorkerId>& ids,
                                           std::vector<WorkerId>* next) {
    const auto at = std::lower_bound(ids.begin(), ids.end(), worker);
    if (at != ids.end() && *at == worker) return false;
    next->reserve(ids.size() + 1);
    next->insert(next->end(), ids.begin(), at);
    next->push_back(worker);
    next->insert(next->end(), at, ids.end());
    return true;
  });
  CheckinCounter()->Increment();
  OnlineGauge()->Set(static_cast<double>(online));
}

void OnlineWorkerPool::CheckOut(WorkerId worker) {
  const size_t online = Republish([worker](const std::vector<WorkerId>& ids,
                                           std::vector<WorkerId>* next) {
    const auto at = std::lower_bound(ids.begin(), ids.end(), worker);
    if (at == ids.end() || *at != worker) return false;
    next->reserve(ids.size() - 1);
    next->insert(next->end(), ids.begin(), at);
    next->insert(next->end(), at + 1, ids.end());
    return true;
  });
  CheckoutCounter()->Increment();
  OnlineGauge()->Set(static_cast<double>(online));
}

void OnlineWorkerPool::CheckInAll(const std::vector<WorkerId>& workers) {
  std::vector<WorkerId> incoming = workers;
  std::sort(incoming.begin(), incoming.end());
  incoming.erase(std::unique(incoming.begin(), incoming.end()),
                 incoming.end());
  const size_t online = Republish([&incoming](const std::vector<WorkerId>& ids,
                                              std::vector<WorkerId>* next) {
    next->reserve(ids.size() + incoming.size());
    std::set_union(ids.begin(), ids.end(), incoming.begin(), incoming.end(),
                   std::back_inserter(*next));
    return next->size() != ids.size();
  });
  CheckinCounter()->Increment(workers.size());
  OnlineGauge()->Set(static_cast<double>(online));
}

std::shared_ptr<const std::vector<WorkerId>> OnlineWorkerPool::Published()
    const {
  // cs:lock(crowddb.pool)
  std::lock_guard<std::mutex> lock(mu_);
  return ids_;
}

bool OnlineWorkerPool::IsOnline(WorkerId worker) const {
  const std::shared_ptr<const std::vector<WorkerId>> ids = Published();
  return std::binary_search(ids->begin(), ids->end(), worker);
}

size_t OnlineWorkerPool::size() const { return Published()->size(); }

std::vector<WorkerId> OnlineWorkerPool::Snapshot() const {
  return *Published();
}

}  // namespace crowdselect
