// Decoded-block cache wired through the decode paths: warm range reads skip
// chunk decodes, cache-off stays byte-identical, an explicit cache instance
// is shared across decompressors, and index-chain streams stay correct when
// cache hits punch gaps into the chain.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "core/primacy_codec.h"
#include "datasets/datasets.h"
#include "util/rng.h"

namespace primacy {
namespace {

constexpr std::size_t kChunkElements = 8192;  // 64 KiB chunks of doubles
constexpr std::size_t kChunks = 5;
constexpr std::size_t kElements = kChunks * kChunkElements;

PrimacyOptions SmallChunks() {
  PrimacyOptions options;
  options.chunk_bytes = kChunkElements * 8;
  return options;
}

PrimacyOptions Cached() {
  PrimacyOptions options = SmallChunks();
  options.cache.enabled = true;
  options.cache.capacity_bytes = 16 * 1024 * 1024;
  options.cache.shard_count = 1;  // deterministic byte accounting
  return options;
}

std::vector<double> Slice(const std::vector<double>& values, std::size_t first,
                          std::size_t count) {
  return std::vector<double>(
      values.begin() + static_cast<std::ptrdiff_t>(first),
      values.begin() + static_cast<std::ptrdiff_t>(first + count));
}

class CacheDecodeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    values_ = GenerateDatasetByName("obs_temp", kElements);
    stream_ = PrimacyCompressor(SmallChunks()).Compress(values_);
  }

  std::vector<double> values_;
  Bytes stream_;
};

TEST_F(CacheDecodeTest, WarmRangeReadServesFromCache) {
  const PrimacyDecompressor decompressor(Cached());
  ASSERT_NE(decompressor.cache(), nullptr);

  // A range spanning chunks 1 and 2.
  const std::size_t first = kChunkElements + 10;
  const std::size_t count = kChunkElements;
  PrimacyDecodeStats cold;
  const auto cold_values =
      decompressor.DecompressRange(stream_, first, count, &cold);
  EXPECT_EQ(cold_values, Slice(values_, first, count));
  EXPECT_EQ(cold.chunks_decoded, 2u);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.cache_misses, 2u);

  PrimacyDecodeStats warm;
  const auto warm_values =
      decompressor.DecompressRange(stream_, first, count, &warm);
  EXPECT_EQ(warm_values, cold_values);
  EXPECT_EQ(warm.chunks_decoded, 0u);  // both chunks served from cache
  EXPECT_EQ(warm.cache_hits, 2u);
  EXPECT_EQ(warm.cache_misses, 0u);

  const CacheStatsSnapshot stats = decompressor.cache()->Stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, 2u * kChunkElements * 8);
}

TEST_F(CacheDecodeTest, CacheOffIsByteIdenticalWithZeroCacheStats) {
  const PrimacyDecompressor cached(Cached());
  const PrimacyDecompressor uncached(SmallChunks());
  EXPECT_EQ(uncached.cache(), nullptr);

  Rng rng(7);
  for (int i = 0; i < 16; ++i) {
    const std::size_t first = rng.NextBelow(kElements);
    const std::size_t count = rng.NextBelow(kElements - first + 1);
    PrimacyDecodeStats plain;
    const auto expected = uncached.DecompressRange(stream_, first, count, &plain);
    EXPECT_EQ(plain.cache_hits, 0u);
    EXPECT_EQ(plain.cache_misses, 0u);
    EXPECT_EQ(cached.DecompressRange(stream_, first, count), expected)
        << "first=" << first << " count=" << count;
  }
}

TEST_F(CacheDecodeTest, CapacityZeroYieldsNoCache) {
  PrimacyOptions options = Cached();
  options.cache.capacity_bytes = 0;
  const PrimacyDecompressor decompressor(options);
  EXPECT_EQ(decompressor.cache(), nullptr);
  PrimacyDecodeStats stats;
  EXPECT_EQ(decompressor.DecompressRange(stream_, 10, 100, &stats),
            Slice(values_, 10, 100));
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 0u);
}

TEST_F(CacheDecodeTest, ExplicitCacheInstanceSharedAcrossDecompressors) {
  PrimacyOptions options = SmallChunks();
  options.block_cache = MakeBlockCache(Cached().cache);
  ASSERT_NE(options.block_cache, nullptr);

  const PrimacyDecompressor a(options);
  const PrimacyDecompressor b(options);
  EXPECT_EQ(a.cache(), options.block_cache);
  EXPECT_EQ(a.cache(), b.cache());

  PrimacyDecodeStats cold;
  a.DecompressRange(stream_, 0, kChunkElements, &cold);
  EXPECT_EQ(cold.cache_misses, 1u);
  // The second decompressor hits what the first one filled.
  PrimacyDecodeStats warm;
  const auto warm_values = b.DecompressRange(stream_, 0, kChunkElements, &warm);
  EXPECT_EQ(warm_values, Slice(values_, 0, kChunkElements));
  EXPECT_EQ(warm.cache_hits, 1u);
  EXPECT_EQ(warm.chunks_decoded, 0u);
}

TEST_F(CacheDecodeTest, FullDecodeWarmsSubsequentRangeReads) {
  PrimacyOptions options = Cached();
  options.threads = 2;  // exercise the parallel seekable decode with a cache
  const PrimacyDecompressor decompressor(options);

  PrimacyDecodeStats full;
  EXPECT_EQ(decompressor.Decompress(stream_, &full), values_);
  EXPECT_EQ(full.chunks_decoded, kChunks);
  EXPECT_EQ(full.cache_misses, kChunks);

  PrimacyDecodeStats warm;
  const auto range =
      decompressor.DecompressRange(stream_, 3 * kChunkElements, 50, &warm);
  EXPECT_EQ(range, Slice(values_, 3 * kChunkElements, 50));
  EXPECT_EQ(warm.cache_hits, 1u);
  EXPECT_EQ(warm.chunks_decoded, 0u);

  // A second full decode is served entirely from cache.
  PrimacyDecodeStats second;
  EXPECT_EQ(decompressor.Decompress(stream_, &second), values_);
  EXPECT_EQ(second.cache_hits, kChunks);
  EXPECT_EQ(second.chunks_decoded, 0u);
}

TEST_F(CacheDecodeTest, WarmSinglePrecisionRangeRead) {
  // Smooth low-entropy floats: a raw cast of the Gaussian dataset is
  // incompressible in single precision and would take the stored fallback,
  // which is (by design) never cached.
  std::vector<float> floats(kElements);
  for (std::size_t i = 0; i < kElements; ++i) {
    floats[i] = static_cast<float>(i % 997) / 997.0f;
  }
  PrimacyOptions compress = SmallChunks();
  compress.precision = Precision::kSingle;
  compress.chunk_bytes = kChunkElements * 4;
  PrimacyStats cstats;
  const Bytes stream = PrimacyCompressor(compress).Compress(floats, &cstats);
  ASSERT_EQ(cstats.chunks, kChunks) << "stream took the stored fallback";

  PrimacyOptions decode = Cached();
  const PrimacyDecompressor decompressor(decode);
  const std::size_t first = kChunkElements + 5;
  PrimacyDecodeStats cold;
  const auto cold_values =
      decompressor.DecompressRangeSingle(stream, first, 100, &cold);
  EXPECT_EQ(cold_values,
            std::vector<float>(floats.begin() + static_cast<std::ptrdiff_t>(first),
                               floats.begin() + static_cast<std::ptrdiff_t>(first + 100)));
  EXPECT_EQ(cold.cache_misses, 1u);
  PrimacyDecodeStats warm;
  EXPECT_EQ(decompressor.DecompressRangeSingle(stream, first, 100, &warm),
            cold_values);
  EXPECT_EQ(warm.cache_hits, 1u);
  EXPECT_EQ(warm.chunks_decoded, 0u);
}

TEST_F(CacheDecodeTest, IndexChainStreamsStayCorrectAcrossCacheHitGaps) {
  // Build data whose chunks share one base pattern plus a few per-chunk
  // novel values, so kReuseWhenCorrelated emits flag-0/flag-2 chains: a
  // cache hit then leaves the decoder's index state behind the chunk a
  // later miss needs, forcing the chain re-prime path.
  std::vector<double> chained(kElements);
  const std::vector<double> base =
      GenerateDatasetByName("obs_temp", kChunkElements);
  for (std::size_t c = 0; c < kChunks; ++c) {
    for (std::size_t i = 0; i < kChunkElements; ++i) {
      chained[c * kChunkElements + i] = base[i];
    }
    // A handful of values with exponents the base never produces, so later
    // chunks extend the index (flag 2) instead of reusing it verbatim.
    for (std::size_t i = 0; i < 4; ++i) {
      chained[c * kChunkElements + 17 * (i + 1)] =
          1.0e30 * static_cast<double>(c * 4 + i + 1);
    }
  }
  PrimacyOptions compress = SmallChunks();
  compress.index_mode = IndexMode::kReuseWhenCorrelated;
  PrimacyStats cstats;
  const Bytes stream = PrimacyCompressor(compress).Compress(chained, &cstats);
  ASSERT_EQ(cstats.chunks, kChunks);
  // The test only means something if chains actually formed.
  ASSERT_LT(cstats.indexes_emitted, cstats.chunks);

  const PrimacyDecompressor cached(Cached());
  const PrimacyDecompressor uncached(SmallChunks());
  Rng rng(42);
  for (int i = 0; i < 48; ++i) {
    const std::size_t first = rng.NextBelow(kElements);
    const std::size_t count = rng.NextBelow(kElements - first + 1);
    const auto expected = uncached.DecompressRange(stream, first, count);
    EXPECT_EQ(cached.DecompressRange(stream, first, count), expected)
        << "first=" << first << " count=" << count;
  }
  // And the fully-warm stream still decodes end to end.
  EXPECT_EQ(cached.Decompress(stream), chained);
}

}  // namespace
}  // namespace primacy
