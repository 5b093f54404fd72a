// Online worker pool: tracks which workers are currently reachable so the
// crowd manager only ranks online candidates (paper §2: "the crowd manager
// returns the workers online as the candidate crowd").
//
// The pool is one sorted, duplicate-free id vector published behind an
// immutable shared_ptr. A check-in or check-out builds the next vector
// (O(pool)) and swaps the pointer; a query holds the published vector
// for as long as it ranks it (O(1)), so serving never copies, sorts or
// waits on a rebuild.
#ifndef CROWDSELECT_CROWDDB_ONLINE_POOL_H_
#define CROWDSELECT_CROWDDB_ONLINE_POOL_H_

#include <memory>
#include <mutex>
#include <vector>

#include "crowddb/records.h"

namespace crowdselect {

/// Thread-safe set of online workers, published copy-on-write.
class OnlineWorkerPool {
 public:
  /// Marks a worker online. Idempotent: a call that changes nothing
  /// publishes nothing.
  void CheckIn(WorkerId worker);
  /// Marks a worker offline. Idempotent.
  void CheckOut(WorkerId worker);
  /// Bulk check-in (dataset bootstrap).
  void CheckInAll(const std::vector<WorkerId>& workers);

  /// The online workers as of now, ascending and unique. The vector never
  /// changes: later check-ins and check-outs publish a new one, and the
  /// returned pointer keeps this one alive.
  std::shared_ptr<const std::vector<WorkerId>> Published() const;

  bool IsOnline(WorkerId worker) const;
  size_t size() const;

  /// A copy of the Published() ids.
  std::vector<WorkerId> Snapshot() const;

 private:
  /// One writer's change: `edit(ids, &next)` builds the next id vector
  /// from the published `ids` and returns false when nothing changes.
  /// Publishes `next` when it does; returns the online count after.
  template <typename Edit>
  size_t Republish(const Edit& edit);

  /// Serializes writers, so each builds on what the last one published.
  std::mutex writer_mu_;
  /// Guards only the `ids_` pointer: readers copy it, a writer swaps it.
  mutable std::mutex mu_;
  std::shared_ptr<const std::vector<WorkerId>> ids_ =
      std::make_shared<const std::vector<WorkerId>>();
};

}  // namespace crowdselect

#endif  // CROWDSELECT_CROWDDB_ONLINE_POOL_H_
