// DecodedBlockCache semantics: hit/miss accounting, LRU eviction ordering,
// byte-budget enforcement, capacity-zero passthrough, and pinned-entry
// eviction deferral (the invariant that makes concurrent readers safe).
#include "cache/block_cache.h"

#include <gtest/gtest.h>

#include <utility>

namespace primacy {
namespace {

Bytes Filled(std::size_t n, unsigned char v) {
  return Bytes(n, static_cast<std::byte>(v));
}

CacheOptions SingleShard(std::size_t capacity) {
  CacheOptions options;
  options.enabled = true;
  options.capacity_bytes = capacity;
  options.shard_count = 1;  // deterministic LRU order for the tests
  return options;
}

TEST(BlockCacheTest, MissThenInsertThenHit) {
  DecodedBlockCache cache(SingleShard(1024));
  EXPECT_FALSE(cache.Lookup(1, 0));
  EXPECT_TRUE(cache.Insert(1, 0, Filled(100, 0xab)));
  const auto handle = cache.Lookup(1, 0);
  ASSERT_TRUE(handle);
  ASSERT_EQ(handle.data().size(), 100u);
  EXPECT_EQ(handle.data()[0], static_cast<std::byte>(0xab));

  const CacheStatsSnapshot stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, 100u);
  EXPECT_DOUBLE_EQ(stats.HitRatio(), 0.5);
}

TEST(BlockCacheTest, KeysAreStreamAndChunkScoped) {
  DecodedBlockCache cache(SingleShard(1024));
  ASSERT_TRUE(cache.Insert(1, 0, Filled(10, 1)));
  EXPECT_FALSE(cache.Lookup(1, 1));  // same stream, other chunk
  EXPECT_FALSE(cache.Lookup(2, 0));  // other stream, same chunk
  EXPECT_TRUE(cache.Lookup(1, 0));
}

TEST(BlockCacheTest, LruEvictionDropsLeastRecentlyUsed) {
  // Four 256-byte entries fill the 1024-byte budget exactly.
  DecodedBlockCache cache(SingleShard(1024));
  for (std::uint64_t c = 0; c < 4; ++c) {
    ASSERT_TRUE(cache.Insert(1, c, Filled(256, static_cast<unsigned char>(c))));
  }
  // Touch chunk 0 so chunk 1 becomes the LRU entry.
  EXPECT_TRUE(cache.Lookup(1, 0));
  ASSERT_TRUE(cache.Insert(1, 4, Filled(256, 4)));

  EXPECT_TRUE(cache.Lookup(1, 0));
  EXPECT_FALSE(cache.Lookup(1, 1));  // evicted as least recently used
  EXPECT_TRUE(cache.Lookup(1, 2));
  EXPECT_TRUE(cache.Lookup(1, 3));
  EXPECT_TRUE(cache.Lookup(1, 4));
  const CacheStatsSnapshot stats = cache.Stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_EQ(stats.bytes, 1024u);
}

TEST(BlockCacheTest, CapacityZeroIsPassthrough) {
  DecodedBlockCache cache(SingleShard(0));
  EXPECT_FALSE(cache.Insert(1, 0, Filled(1, 0)));
  EXPECT_FALSE(cache.Lookup(1, 0));
  const CacheStatsSnapshot stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(BlockCacheTest, MakeBlockCacheHonorsDisablingKnobs) {
  CacheOptions options;
  EXPECT_EQ(MakeBlockCache(options), nullptr);  // enabled defaults to false
  options.enabled = true;
  options.capacity_bytes = 0;
  EXPECT_EQ(MakeBlockCache(options), nullptr);
  options.capacity_bytes = 1024;
  EXPECT_NE(MakeBlockCache(options), nullptr);
}

TEST(BlockCacheTest, ShardCountZeroClampsToOne) {
  CacheOptions options = SingleShard(1024);
  options.shard_count = 0;
  const DecodedBlockCache cache(options);
  EXPECT_EQ(cache.options().shard_count, 1u);
}

TEST(BlockCacheTest, EntryLargerThanShardBudgetRejected) {
  // 1024 bytes over 4 shards = 256 bytes per shard.
  CacheOptions options = SingleShard(1024);
  options.shard_count = 4;
  DecodedBlockCache cache(options);
  EXPECT_FALSE(cache.Insert(1, 0, Filled(512, 0)));
  EXPECT_TRUE(cache.Insert(1, 0, Filled(256, 0)));
  EXPECT_EQ(cache.Stats().rejected, 1u);
}

TEST(BlockCacheTest, DuplicateKeyKeepsFirstEntry) {
  DecodedBlockCache cache(SingleShard(1024));
  ASSERT_TRUE(cache.Insert(1, 0, Filled(10, 0xaa)));
  EXPECT_FALSE(cache.Insert(1, 0, Filled(10, 0xbb)));
  const auto handle = cache.Lookup(1, 0);
  ASSERT_TRUE(handle);
  EXPECT_EQ(handle.data()[0], static_cast<std::byte>(0xaa));
  EXPECT_EQ(cache.Stats().entries, 1u);
}

TEST(BlockCacheTest, PinnedEntriesDeferEviction) {
  // Budget fits two entries; pin both, then overflow the shard.
  DecodedBlockCache cache(SingleShard(512));
  ASSERT_TRUE(cache.Insert(1, 0, Filled(256, 0)));
  ASSERT_TRUE(cache.Insert(1, 1, Filled(256, 1)));
  auto pin0 = cache.Lookup(1, 0);
  auto pin1 = cache.Lookup(1, 1);
  ASSERT_TRUE(pin0);
  ASSERT_TRUE(pin1);

  // Every resident entry is pinned: the insert must overshoot the budget
  // rather than evict (or block) — eviction defers until the pins drop.
  ASSERT_TRUE(cache.Insert(1, 2, Filled(256, 2)));
  CacheStatsSnapshot stats = cache.Stats();
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.bytes, 768u);
  // The pinned views stay valid through the overshoot.
  EXPECT_EQ(pin0.data()[0], static_cast<std::byte>(0));
  EXPECT_EQ(pin1.data()[0], static_cast<std::byte>(1));

  // Release one pin: the next insert may evict the released entry (and any
  // unpinned neighbors) but never the still-pinned one.
  pin0 = DecodedBlockCache::Handle();
  ASSERT_TRUE(cache.Insert(1, 3, Filled(256, 3)));
  EXPECT_TRUE(cache.Lookup(1, 1));
  EXPECT_FALSE(cache.Lookup(1, 0));
  EXPECT_EQ(pin1.data()[0], static_cast<std::byte>(1));
  stats = cache.Stats();
  EXPECT_GE(stats.evictions, 1u);
}

TEST(BlockCacheTest, ClearDropsUnpinnedKeepsPinned) {
  DecodedBlockCache cache(SingleShard(1024));
  ASSERT_TRUE(cache.Insert(1, 0, Filled(100, 0)));
  ASSERT_TRUE(cache.Insert(1, 1, Filled(100, 1)));
  const auto pinned = cache.Lookup(1, 0);
  ASSERT_TRUE(pinned);
  cache.Clear();
  EXPECT_TRUE(cache.Lookup(1, 0));
  EXPECT_FALSE(cache.Lookup(1, 1));
  EXPECT_EQ(pinned.data().size(), 100u);
  EXPECT_EQ(cache.Stats().entries, 1u);
}

TEST(BlockCacheTest, MovedHandleTransfersThePin) {
  DecodedBlockCache cache(SingleShard(1024));
  ASSERT_TRUE(cache.Insert(1, 0, Filled(100, 7)));
  auto a = cache.Lookup(1, 0);
  ASSERT_TRUE(a);
  DecodedBlockCache::Handle b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move) — testing moved-from state
  ASSERT_TRUE(b);
  EXPECT_EQ(b.data()[0], static_cast<std::byte>(7));
}

TEST(BlockCacheTest, MultiShardSpreadsEntries) {
  CacheOptions options;
  options.enabled = true;
  options.capacity_bytes = 64 * 1024;
  options.shard_count = 8;
  DecodedBlockCache cache(options);
  for (std::uint64_t c = 0; c < 64; ++c) {
    ASSERT_TRUE(cache.Insert(42, c, Filled(64, static_cast<unsigned char>(c))));
  }
  EXPECT_EQ(cache.Stats().entries, 64u);
  for (std::uint64_t c = 0; c < 64; ++c) {
    const auto handle = cache.Lookup(42, c);
    ASSERT_TRUE(handle) << "chunk " << c;
    EXPECT_EQ(handle.data()[0], static_cast<std::byte>(c));
  }
}

}  // namespace
}  // namespace primacy
