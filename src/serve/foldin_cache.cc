#include "serve/foldin_cache.h"

#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace crowdselect::serve {

namespace {

struct CacheCounters {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* evictions;
};

CacheCounters& Counters() {
  static CacheCounters counters{
      obs::MetricsRegistry::Global().GetCounter("serve.cache.hits"),
      obs::MetricsRegistry::Global().GetCounter("serve.cache.misses"),
      obs::MetricsRegistry::Global().GetCounter("serve.cache.evictions")};
  return counters;
}

void RecordCacheFlightEvent(obs::FlightEventType type, uint64_t ns,
                            uint64_t key) {
  static const uint16_t flight_name =
      obs::FlightRecorder::Global().InternName("serve.cache.lookup");
  obs::FlightRecorder::Global().Record(type, flight_name, key, ns);
}

uint64_t Fnv1aMix(uint64_t h, uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (8 * byte)) & 0xFF;
    h *= 0x100000001B3ULL;  // FNV prime.
  }
  return h;
}

}  // namespace

uint64_t HashBag(const BagOfWords& bag) {
  uint64_t h = 0xCBF29CE484222325ULL;  // FNV offset basis.
  for (const auto& e : bag.entries()) {
    h = Fnv1aMix(h, (static_cast<uint64_t>(e.term) << 32) | e.count);
  }
  return h;
}

FoldInCache::FoldInCache(size_t capacity) : capacity_(capacity) {}

bool FoldInCache::Lookup(uint64_t ns, uint64_t key, FoldInResult* out) {
  // cs:lock(serve.foldin)
  std::lock_guard<std::mutex> lock(mu_);
  if (capacity_ == 0) {
    ++misses_;
    Counters().misses->Increment();
    RecordCacheFlightEvent(obs::FlightEventType::kCacheMiss, ns, key);
    return false;
  }
  auto it = index_.find(Key{ns, key});
  if (it == index_.end()) {
    ++misses_;
    Counters().misses->Increment();
    RecordCacheFlightEvent(obs::FlightEventType::kCacheMiss, ns, key);
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  out->lambda = it->second->lambda;
  out->nu_sq = it->second->nu_sq;
  out->category = Vector();
  // The solve cost travels with the posterior: a hit reports what its
  // entry originally cost, so EXPLAIN can show it without re-solving.
  out->cg_iterations = it->second->cg_iterations;
  out->cg_residual = it->second->cg_residual;
  ++hits_;
  Counters().hits->Increment();
  RecordCacheFlightEvent(obs::FlightEventType::kCacheHit, ns, key);
  return true;
}

void FoldInCache::Insert(uint64_t ns, uint64_t key, const FoldInResult& value) {
  if (capacity_ == 0) return;
  // cs:lock(serve.foldin)
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(Key{ns, key});
  if (it != index_.end()) {
    it->second->lambda = value.lambda;
    it->second->nu_sq = value.nu_sq;
    it->second->cg_iterations = value.cg_iterations;
    it->second->cg_residual = value.cg_residual;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++evictions_;
    Counters().evictions->Increment();
  }
  lru_.push_front(
      Entry{Key{ns, key}, value.lambda, value.nu_sq, value.cg_iterations,
            value.cg_residual});
  index_[Key{ns, key}] = lru_.begin();
}

void FoldInCache::Clear() {
  // cs:lock(serve.foldin)
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
}

size_t FoldInCache::size() const {
  // cs:lock(serve.foldin)
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

uint64_t FoldInCache::hits() const {
  // cs:lock(serve.foldin)
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t FoldInCache::misses() const {
  // cs:lock(serve.foldin)
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

uint64_t FoldInCache::evictions() const {
  // cs:lock(serve.foldin)
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

}  // namespace crowdselect::serve
