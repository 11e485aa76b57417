// Thread-pool parallel decompression: byte-identical to serial decode, for
// both kPerChunk (fully parallel) and kReuseWhenCorrelated (group-parallel)
// streams, at several thread counts.
#include <gtest/gtest.h>

#include <bit>
#include <span>
#include <vector>

#include "core/primacy_codec.h"
#include "datasets/datasets.h"
#include "util/rng.h"

namespace primacy {
namespace {

PrimacyOptions ManyChunks(std::size_t threads) {
  PrimacyOptions options;
  options.chunk_bytes = 8 * 1024;  // 1024 doubles per chunk
  options.threads = threads;
  return options;
}

TEST(ParallelDecodeTest, ParallelMatchesSerialAtSeveralThreadCounts) {
  const auto values = GenerateDatasetByName("gts_phi_l", 40000);  // 40 chunks
  const Bytes stream = PrimacyCompressor(ManyChunks(1)).Compress(values);

  PrimacyDecodeStats serial_stats;
  const auto serial =
      PrimacyDecompressor(ManyChunks(1)).Decompress(stream, &serial_stats);
  ASSERT_EQ(serial.size(), values.size());
  EXPECT_EQ(serial_stats.threads_used, 1u);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{4},
                                    std::size_t{0}}) {
    PrimacyDecodeStats stats;
    const auto parallel =
        PrimacyDecompressor(ManyChunks(threads)).Decompress(stream, &stats);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(parallel[i]),
                std::bit_cast<std::uint64_t>(serial[i]))
          << "threads=" << threads << " element " << i;
    }
    EXPECT_GT(stats.threads_used, 1u) << "threads=" << threads;
    EXPECT_EQ(stats.chunks_decoded, 40u);
    EXPECT_TRUE(stats.used_directory);

    // A range over chunks 2..9 with both edge chunks trimmed takes the same
    // group-parallel path.
    PrimacyDecodeStats range_stats;
    const auto range = PrimacyDecompressor(ManyChunks(threads))
                           .DecompressRange(stream, 2500, 7000, &range_stats);
    EXPECT_EQ(range, std::vector<double>(serial.begin() + 2500,
                                         serial.begin() + 9500))
        << "threads=" << threads;
    EXPECT_GT(range_stats.threads_used, 1u) << "threads=" << threads;
    EXPECT_EQ(range_stats.chunks_decoded, 8u);
  }
}

TEST(ParallelDecodeTest, ParallelCompressionOutputIsByteIdenticalToSerial) {
  const auto values = GenerateDatasetByName("obs_temp", 30000);
  const Bytes serial = PrimacyCompressor(ManyChunks(1)).Compress(values);
  const Bytes parallel = PrimacyCompressor(ManyChunks(4)).Compress(values);
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelDecodeTest, GroupParallelDecodeOfCorrelatedStream) {
  // kReuseWhenCorrelated chains chunks onto shared indexes; parallel decode
  // must split at full-index boundaries only and still match serial exactly.
  PrimacyOptions write_options = ManyChunks(1);
  write_options.index_mode = IndexMode::kReuseWhenCorrelated;
  const auto values = GenerateDatasetByName("num_plasma", 30000);
  const Bytes stream = PrimacyCompressor(write_options).Compress(values);

  const auto serial = PrimacyDecompressor(ManyChunks(1)).Decompress(stream);
  const auto parallel = PrimacyDecompressor(ManyChunks(4)).Decompress(stream);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial, values);
  // A parallel range that starts mid-chain primes its first group's index.
  std::size_t index_loads = 0;
  for (const std::uint64_t first : {std::uint64_t{1500}, std::uint64_t{7100}}) {
    PrimacyDecodeStats stats;
    EXPECT_EQ(PrimacyDecompressor(ManyChunks(4))
                  .DecompressRange(stream, first, 20000, &stats),
              std::vector<double>(values.begin() + first,
                                  values.begin() + first + 20000))
        << "first=" << first;
    index_loads += stats.index_loads;
  }
  EXPECT_GT(index_loads, 0u);
}

TEST(ParallelDecodeTest, SinglePrecisionParallelDecode) {
  PrimacyOptions options;
  options.precision = Precision::kSingle;
  options.chunk_bytes = 4 * 1024;
  options.threads = 4;
  Rng rng(11);
  std::vector<float> values(30000);
  for (auto& v : values) v = static_cast<float>(rng.NextGaussian());
  const Bytes stream = PrimacyCompressor(options).Compress(values);
  const auto serial = PrimacyDecompressor().DecompressSingle(stream);
  const auto parallel =
      PrimacyDecompressor(options).DecompressSingle(stream);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial, values);
}

TEST(ParallelDecodeTest, TinyStreamsDecodeOnOneThread) {
  // Fewer groups than threads: the decoder must quietly stay serial.
  const std::vector<double> values{1.0, 2.0, 3.0};
  const Bytes stream = PrimacyCompressor().Compress(values);
  PrimacyDecodeStats stats;
  const auto restored =
      PrimacyDecompressor(ManyChunks(8)).Decompress(stream, &stats);
  EXPECT_EQ(restored, values);
  EXPECT_EQ(stats.threads_used, 1u);
}

}  // namespace
}  // namespace primacy
