// Bounded LRU cache over fold-in posteriors, keyed by (namespace,
// content hash): the namespace identifies which model produced the
// posterior (the engine's folder generation and panel layout) and the
// hash is a 64-bit content hash of the task's bag-of-words. Repeated or
// re-dispatched tasks skip the fold-in subproblem entirely: a hit is a
// mutex-guarded map lookup plus two Vector copies, microseconds against
// the fold-in solve's tens.
//
// The namespace half of the key exists because two models can project
// the *same* task text to entirely different latent spaces — a
// posterior of the model before a retrain served after it would be a
// silent wrong answer. Keying on content hash alone did exactly that
// when an engine was rebuilt for a different model; see the
// FoldInCacheNamespace regression test.
//
// The cache stores the *posterior* (lambda, nu_sq) only — when the
// options sample c_j at selection time, sampling is applied per query
// after the lookup, so caching never freezes the sampled category.
#ifndef CROWDSELECT_SERVE_FOLDIN_CACHE_H_
#define CROWDSELECT_SERVE_FOLDIN_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "model/fold_in.h"
#include "text/bag_of_words.h"

namespace crowdselect::serve {

/// FNV-1a over the bag's sorted (term, count) entries. Two bags with the
/// same multiset of terms hash identically regardless of source text.
/// 64-bit collisions are accepted as a serving-quality trade-off (a
/// collision returns a wrong but well-formed posterior; at 2^32 distinct
/// tasks the birthday bound is ~0.4).
uint64_t HashBag(const BagOfWords& bag);

/// Thread-safe LRU map: (namespace, content hash) -> fold-in posterior.
/// Capacity 0 disables every operation (Lookup always misses, Insert
/// drops), which is how `--foldin-cache 0` turns the cache off without
/// branching at call sites.
class FoldInCache {
 public:
  explicit FoldInCache(size_t capacity);

  /// On hit, copies the cached posterior (lambda, nu_sq; category left
  /// empty) with its solve cost and convergence flag into `out` and
  /// refreshes recency. Counts serve.cache.hits / serve.cache.misses.
  /// Entries inserted under a different `ns` never hit, regardless of
  /// `key`.
  bool Lookup(uint64_t ns, uint64_t key, FoldInResult* out);

  /// Inserts or refreshes (`ns`, `key`); evicts the least-recently-used
  /// entry when at capacity. The stored category (if any) is dropped.
  void Insert(uint64_t ns, uint64_t key, const FoldInResult& value);

  /// Single-model convenience forms (namespace 0), used by benches and
  /// tests that exercise one folder.
  bool Lookup(uint64_t key, FoldInResult* out) {
    return Lookup(/*ns=*/0, key, out);
  }
  void Insert(uint64_t key, const FoldInResult& value) {
    Insert(/*ns=*/0, key, value);
  }

  void Clear();

  size_t size() const;
  size_t capacity() const { return capacity_; }

  /// Process-lifetime counters, also mirrored into the obs registry.
  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t evictions() const;

 private:
  /// Composite key: namespace (model id + snapshot family) and task
  /// content hash, compared exactly — never folded into one word, so two
  /// models can disagree about the same task without colliding.
  using Key = std::pair<uint64_t, uint64_t>;
  struct KeyHash {
    size_t operator()(const Key& k) const {
      // Splitmix-style mix of the namespace into the content hash; the
      // map only needs dispersion, equality is exact on the pair.
      uint64_t h = k.second ^ (k.first * 0x9E3779B97F4A7C15ULL);
      h ^= h >> 32;
      return static_cast<size_t>(h);
    }
  };

  struct Entry {
    Key key;
    Vector lambda;
    Vector nu_sq;
    int cg_iterations = 0;    ///< Cost of the solve that filled this entry.
    double cg_residual = 0.0;
    bool converged = true;    ///< Whether that solve met its tolerance.
  };

  const size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  ///< Front = most recently used.
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace crowdselect::serve

#endif  // CROWDSELECT_SERVE_FOLDIN_CACHE_H_
