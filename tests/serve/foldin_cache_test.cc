#include "serve/foldin_cache.h"

#include <gtest/gtest.h>

namespace crowdselect::serve {
namespace {

FoldInResult MakeResult(double value) {
  FoldInResult r;
  r.lambda = Vector(3, value);
  r.nu_sq = Vector(3, value / 10.0);
  r.category = Vector(3, -1.0);  // Must NOT be cached.
  return r;
}

TEST(HashBagTest, SameEntriesSameHashDifferentEntriesDifferentHash) {
  BagOfWords a, b, c;
  a.Add(3, 2);
  a.Add(7, 1);
  b.Add(7, 1);
  b.Add(3, 2);  // Same multiset, different insertion order.
  c.Add(3, 1);  // Different count.
  c.Add(7, 1);
  EXPECT_EQ(HashBag(a), HashBag(b));
  EXPECT_NE(HashBag(a), HashBag(c));
  EXPECT_NE(HashBag(a), HashBag(BagOfWords()));
}

TEST(HashBagTest, TermAndCountDoNotAlias) {
  // (term=1, count=2) must not collide with (term=2, count=1).
  BagOfWords a, b;
  a.Add(1, 2);
  b.Add(2, 1);
  EXPECT_NE(HashBag(a), HashBag(b));
}

TEST(FoldInCacheTest, MissThenHit) {
  FoldInCache cache(4);
  FoldInResult out;
  EXPECT_FALSE(cache.Lookup(42, &out));
  EXPECT_EQ(cache.misses(), 1u);
  cache.Insert(42, MakeResult(2.0));
  EXPECT_EQ(cache.size(), 1u);
  ASSERT_TRUE(cache.Lookup(42, &out));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_DOUBLE_EQ(out.lambda[0], 2.0);
  EXPECT_DOUBLE_EQ(out.nu_sq[0], 0.2);
  // The cached entry stores the posterior only; the category is left for
  // the caller to finalize per query.
  EXPECT_EQ(out.category.size(), 0u);
}

TEST(FoldInCacheTest, EvictsLeastRecentlyUsed) {
  FoldInCache cache(2);
  cache.Insert(1, MakeResult(1.0));
  cache.Insert(2, MakeResult(2.0));
  FoldInResult out;
  ASSERT_TRUE(cache.Lookup(1, &out));  // 1 is now most recent.
  cache.Insert(3, MakeResult(3.0));    // Evicts 2.
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.Lookup(1, &out));
  EXPECT_FALSE(cache.Lookup(2, &out));
  EXPECT_TRUE(cache.Lookup(3, &out));
}

TEST(FoldInCacheTest, InsertExistingKeyRefreshesValue) {
  FoldInCache cache(2);
  cache.Insert(1, MakeResult(1.0));
  cache.Insert(1, MakeResult(9.0));
  EXPECT_EQ(cache.size(), 1u);
  FoldInResult out;
  ASSERT_TRUE(cache.Lookup(1, &out));
  EXPECT_DOUBLE_EQ(out.lambda[0], 9.0);
}

TEST(FoldInCacheTest, CapacityNeverExceeded) {
  FoldInCache cache(3);
  for (uint64_t key = 0; key < 50; ++key) {
    cache.Insert(key, MakeResult(static_cast<double>(key)));
    EXPECT_LE(cache.size(), 3u);
  }
  EXPECT_EQ(cache.evictions(), 47u);
  // The three most recent keys survive.
  FoldInResult out;
  EXPECT_TRUE(cache.Lookup(49, &out));
  EXPECT_TRUE(cache.Lookup(48, &out));
  EXPECT_TRUE(cache.Lookup(47, &out));
  EXPECT_FALSE(cache.Lookup(46, &out));
}

TEST(FoldInCacheTest, ZeroCapacityDisablesCaching) {
  FoldInCache cache(0);
  cache.Insert(1, MakeResult(1.0));
  EXPECT_EQ(cache.size(), 0u);
  FoldInResult out;
  EXPECT_FALSE(cache.Lookup(1, &out));
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
}

// Regression: keying on the content hash alone served one model's
// posterior to another model's query for the same task text. The
// namespace half of the key must isolate them even when the content
// hash is identical.
TEST(FoldInCacheNamespaceTest, SameHashDifferentNamespaceNeverHits) {
  FoldInCache cache(8);
  const uint64_t old_ns = 0x1111;
  const uint64_t new_ns = 0x2222;
  const uint64_t key = 42;

  cache.Insert(old_ns, key, MakeResult(1.0));
  FoldInResult out;
  EXPECT_FALSE(cache.Lookup(new_ns, key, &out))
      << "a query in one namespace must not see another's posterior";
  ASSERT_TRUE(cache.Lookup(old_ns, key, &out));
  EXPECT_DOUBLE_EQ(out.lambda[0], 1.0);

  // Both namespaces can hold the same content hash with different values.
  cache.Insert(new_ns, key, MakeResult(7.0));
  ASSERT_TRUE(cache.Lookup(new_ns, key, &out));
  EXPECT_DOUBLE_EQ(out.lambda[0], 7.0);
  ASSERT_TRUE(cache.Lookup(old_ns, key, &out));
  EXPECT_DOUBLE_EQ(out.lambda[0], 1.0);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(FoldInCacheNamespaceTest, SnapshotFamilyChangesNamespace) {
  // The engine derives the namespace from the folder generation; a
  // republished folder must not serve stale posteriors.
  const uint64_t gen1 = 1 * 0x9E3779B97F4A7C15ULL;
  const uint64_t gen2 = 2 * 0x9E3779B97F4A7C15ULL;
  ASSERT_NE(gen1, gen2);
  FoldInCache cache(8);
  cache.Insert(gen1, 7, MakeResult(1.0));
  FoldInResult out;
  EXPECT_FALSE(cache.Lookup(gen2, 7, &out));
}

TEST(FoldInCacheNamespaceTest, LegacyFormsUseNamespaceZero) {
  FoldInCache cache(4);
  cache.Insert(5, MakeResult(3.0));
  FoldInResult out;
  ASSERT_TRUE(cache.Lookup(/*ns=*/0, 5, &out));
  EXPECT_DOUBLE_EQ(out.lambda[0], 3.0);
  EXPECT_FALSE(cache.Lookup(/*ns=*/0x9E3779B97F4A7C15ULL, 5, &out));
}

TEST(FoldInCacheTest, ClearEmptiesButKeepsCounters) {
  FoldInCache cache(4);
  cache.Insert(1, MakeResult(1.0));
  FoldInResult out;
  ASSERT_TRUE(cache.Lookup(1, &out));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup(1, &out));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

}  // namespace
}  // namespace crowdselect::serve
