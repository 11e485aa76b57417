#include "core/streaming.h"

#include <gtest/gtest.h>

#include "datasets/datasets.h"
#include "support/legacy_streams.h"
#include "util/error.h"
#include "util/rng.h"

namespace primacy {
namespace {

/// Collects sink output into one buffer.
struct Collector {
  Bytes stream;
  PrimacyStreamWriter::Sink AsSink() {
    return [this](ByteSpan data) { AppendBytes(stream, data); };
  }
};

PrimacyOptions SmallChunks() {
  PrimacyOptions options;
  options.chunk_bytes = 64 * 1024;
  return options;
}

TEST(StreamingTest, BatchedAppendsRoundTrip) {
  const auto values = GenerateDatasetByName("obs_info", 100000);
  Collector collector;
  PrimacyStreamWriter writer(collector.AsSink(), SmallChunks());
  // Feed in uneven batches.
  std::size_t offset = 0;
  Rng rng(1);
  while (offset < values.size()) {
    const std::size_t batch =
        std::min<std::size_t>(1 + rng.NextBelow(20000), values.size() - offset);
    writer.Append(std::span(values).subspan(offset, batch));
    offset += batch;
  }
  writer.Finish();

  PrimacyStreamReader reader(collector.stream);
  EXPECT_EQ(reader.ReadAllDoubles(), values);
}

/// The chunk-record bytes of a v3 stream: everything between the header
/// and the tail block.
Bytes RecordBytes(const Bytes& stream) {
  const internal::OpenedStream s = internal::OpenStream(stream, true);
  return Bytes(stream.begin() + static_cast<std::ptrdiff_t>(s.chunks_begin),
               stream.begin() +
                   static_cast<std::ptrdiff_t>(s.directory.tail_offset));
}

TEST(StreamingTest, StatsMatchOneShotCompressor) {
  const auto values = GenerateDatasetByName("num_plasma", 80000);
  Collector collector;
  PrimacyStreamWriter writer(collector.AsSink(), SmallChunks());
  writer.Append(std::span(values));
  const PrimacyStats streaming_stats = writer.Finish();

  PrimacyStats oneshot_stats;
  const Bytes oneshot =
      PrimacyCompressor(SmallChunks()).Compress(values, &oneshot_stats);
  // Every field but output_bytes (and the stage timings, which are wall
  // clock) is equal.
  EXPECT_EQ(streaming_stats.chunks, oneshot_stats.chunks);
  EXPECT_EQ(streaming_stats.indexes_emitted, oneshot_stats.indexes_emitted);
  EXPECT_EQ(streaming_stats.delta_indexes, oneshot_stats.delta_indexes);
  EXPECT_EQ(streaming_stats.input_bytes, oneshot_stats.input_bytes);
  EXPECT_EQ(streaming_stats.index_bytes, oneshot_stats.index_bytes);
  EXPECT_EQ(streaming_stats.id_compressed_bytes,
            oneshot_stats.id_compressed_bytes);
  EXPECT_EQ(streaming_stats.mantissa_stream_bytes,
            oneshot_stats.mantissa_stream_bytes);
  EXPECT_EQ(streaming_stats.mantissa_raw_bytes,
            oneshot_stats.mantissa_raw_bytes);
  EXPECT_EQ(streaming_stats.mean_compressible_fraction,
            oneshot_stats.mean_compressible_fraction);
  EXPECT_EQ(streaming_stats.top_byte_frequency_before,
            oneshot_stats.top_byte_frequency_before);
  EXPECT_EQ(streaming_stats.top_byte_frequency_after,
            oneshot_stats.top_byte_frequency_after);
  EXPECT_EQ(streaming_stats.output_bytes, collector.stream.size());
  EXPECT_EQ(oneshot_stats.output_bytes, oneshot.size());
  // The streams differ only in the header's total (the 10-byte sentinel
  // varint) and in the directory offsets that shifts.
  EXPECT_EQ(RecordBytes(collector.stream), RecordBytes(oneshot));
}

TEST(StreamingTest, StreamedRecordsMatchOneShotAcrossOptions) {
  PrimacyOptions reuse = SmallChunks();
  reuse.index_mode = IndexMode::kReuseWhenCorrelated;
  PrimacyOptions parallel = SmallChunks();
  parallel.threads = 4;
  PrimacyOptions single = SmallChunks();
  single.precision = Precision::kSingle;
  const auto values = GenerateDatasetByName("num_plasma", 70000);
  const std::vector<float> floats(values.begin(), values.end());
  for (const PrimacyOptions& options : {SmallChunks(), reuse, parallel,
                                        single}) {
    Bytes raw = options.precision == Precision::kSingle
                    ? ToBytes(AsBytes(floats))
                    : ToBytes(AsBytes(values));
    raw.push_back(std::byte{0x5a});  // a partial trailing element
    Collector collector;
    PrimacyStreamWriter writer(collector.AsSink(), options);
    // Uneven batches: chunks straddle appends, and one append holds several
    // whole chunks (the parallel case).
    std::size_t offset = 0;
    for (const std::size_t batch : {std::size_t{1000}, std::size_t{200000},
                                    std::size_t{77777}}) {
      writer.AppendBytes(ByteSpan(raw).subspan(offset, batch));
      offset += batch;
    }
    writer.AppendBytes(ByteSpan(raw).subspan(offset));
    writer.Finish();
    const Bytes oneshot = PrimacyCompressor(options).CompressBytes(raw);
    EXPECT_EQ(RecordBytes(collector.stream), RecordBytes(oneshot));
    EXPECT_EQ(PrimacyDecompressor().DecompressBytes(collector.stream), raw);
  }
}

TEST(StreamingTest, ChunksEmittedIncrementally) {
  const auto values = GenerateDatasetByName("obs_temp", 64 * 1024);
  std::size_t sink_calls = 0;
  std::size_t bytes_before_finish = 0;
  PrimacyStreamWriter writer(
      [&](ByteSpan data) {
        ++sink_calls;
        bytes_before_finish += data.size();
      },
      SmallChunks());
  // 8192 elements per 64 KiB chunk: each append of 16384 yields records.
  for (std::size_t offset = 0; offset < values.size(); offset += 16384) {
    writer.Append(std::span(values).subspan(offset, 16384));
  }
  const std::size_t calls_before_finish = sink_calls;
  writer.Finish();
  EXPECT_GE(calls_before_finish, 4u);  // header + several record batches
}

TEST(StreamingTest, ReaderBoundsMemoryByChunk) {
  const auto values = GenerateDatasetByName("flash_velx", 100000);
  Collector collector;
  PrimacyStreamWriter writer(collector.AsSink(), SmallChunks());
  writer.Append(std::span(values));
  writer.Finish();

  PrimacyStreamReader reader(collector.stream);
  EXPECT_EQ(reader.element_width(), 8u);
  Bytes restored;
  std::size_t chunks = 0;
  Bytes chunk;
  while (reader.NextChunk(chunk)) {
    ++chunks;
    // Each NextChunk call appends at most one chunk's worth of bytes.
    EXPECT_LE(chunk.size(), 64u * 1024u);
    AppendBytes(restored, chunk);
    chunk.clear();
  }
  AppendBytes(restored, chunk);  // tail from the final call
  EXPECT_GT(chunks, 10u);
  EXPECT_EQ(FromBytes<double>(restored), values);
}

TEST(StreamingTest, ReaderAlsoReadsOneShotStreams) {
  const auto values = GenerateDatasetByName("gts_phi_l", 50000);
  const Bytes stream = PrimacyCompressor(SmallChunks()).Compress(values);
  PrimacyStreamReader reader(stream);
  EXPECT_EQ(reader.ReadAllDoubles(), values);
}

TEST(StreamingTest, OneShotDecompressorRejectsStreamedStream) {
  // A streamed v1 stream (the pre-v3 writer's shape) has no directory to
  // derive its total from: only PrimacyStreamReader reads it.
  const std::vector<double> hundred(100, 1.0);
  const Bytes streamed_v1 =
      legacy::MakeStreamedV1Stream(AsBytes(hundred), SmallChunks());
  const PrimacyDecompressor decompressor;
  EXPECT_THROW(decompressor.DecompressBytes(streamed_v1), CorruptStreamError);
  PrimacyStreamReader reader(streamed_v1);
  EXPECT_EQ(reader.ReadAllDoubles(), hundred);
}

TEST(StreamingTest, TailBytesSurviveStreaming) {
  Collector collector;
  PrimacyStreamWriter writer(collector.AsSink(), SmallChunks());
  Bytes raw(8 * 5000 + 3);
  Rng rng(2);
  for (auto& b : raw) b = static_cast<std::byte>(rng.NextBelow(256));
  writer.AppendBytes(raw);
  writer.Finish();

  PrimacyStreamReader reader(collector.stream);
  Bytes restored;
  while (reader.NextChunk(restored)) {
  }
  EXPECT_EQ(restored, raw);
}

TEST(StreamingTest, EmptyStreamRoundTrips) {
  Collector collector;
  PrimacyStreamWriter writer(collector.AsSink(), SmallChunks());
  writer.Finish();
  PrimacyStreamReader reader(collector.stream);
  Bytes restored;
  EXPECT_FALSE(reader.NextChunk(restored));
  EXPECT_TRUE(restored.empty());
}

TEST(StreamingTest, AppendAfterFinishRejected) {
  Collector collector;
  PrimacyStreamWriter writer(collector.AsSink(), SmallChunks());
  writer.Finish();
  const std::vector<double> one(1, 1.0);
  EXPECT_THROW(writer.Append(std::span(one)), InvalidArgumentError);
  EXPECT_THROW(writer.Finish(), InvalidArgumentError);
}

TEST(StreamingTest, NullSinkRejected) {
  EXPECT_THROW(PrimacyStreamWriter writer({}, SmallChunks()),
               InvalidArgumentError);
}

TEST(StreamingTest, IndexReuseWorksAcrossStreamedChunks) {
  PrimacyOptions options = SmallChunks();
  options.index_mode = IndexMode::kReuseWhenCorrelated;
  const auto values = GenerateDatasetByName("obs_temp", 200000);
  Collector collector;
  PrimacyStreamWriter writer(collector.AsSink(), options);
  for (std::size_t offset = 0; offset < values.size(); offset += 30000) {
    const std::size_t batch = std::min<std::size_t>(30000, values.size() - offset);
    writer.Append(std::span(values).subspan(offset, batch));
  }
  const PrimacyStats stats = writer.Finish();
  EXPECT_GT(stats.delta_indexes + (stats.chunks - stats.indexes_emitted -
                                   stats.delta_indexes),
            0u);
  PrimacyStreamReader reader(collector.stream);
  EXPECT_EQ(reader.ReadAllDoubles(), values);
}

TEST(StreamingTest, SinglePrecisionStreamsRoundTrip) {
  PrimacyOptions options = SmallChunks();
  options.precision = Precision::kSingle;
  std::vector<float> values(60000);
  Rng rng(3);
  for (auto& v : values) {
    v = static_cast<float>(1.0 + rng.NextGaussian() * 0.1);
  }
  Collector collector;
  PrimacyStreamWriter writer(collector.AsSink(), options);
  writer.Append(std::span(values));
  writer.Finish();

  PrimacyStreamReader reader(collector.stream);
  EXPECT_EQ(reader.element_width(), 4u);
  Bytes restored;
  while (reader.NextChunk(restored)) {
  }
  EXPECT_EQ(FromBytes<float>(restored), values);
}

TEST(StreamingTest, TruncatedStreamedStreamDetected) {
  Collector collector;
  PrimacyStreamWriter writer(collector.AsSink(), SmallChunks());
  const auto values = GenerateDatasetByName("obs_info", 50000);
  writer.Append(std::span(values));
  writer.Finish();
  Bytes truncated = collector.stream;
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW(
      {
        PrimacyStreamReader reader(truncated);
        Bytes out;
        while (reader.NextChunk(out)) {
        }
      },
      CorruptStreamError);
}

// The streaming writer emits v3 (directory, footer and checksums after the
// data, the sentinel as the header total), so the one-shot decompressor,
// range reads and the hash-only verifier all accept its output.
TEST(StreamingTest, StreamWriterEmitsV3Streams) {
  Collector collector;
  PrimacyStreamWriter writer(collector.AsSink(), PrimacyOptions{});
  std::vector<double> values(512);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = 1.5 + static_cast<double>(i) * 0.125;
  }
  writer.Append(std::span(values));
  writer.Finish();

  ASSERT_GT(collector.stream.size(), 5u);
  // Byte 4 is the format version (after the 4-byte magic).
  EXPECT_EQ(static_cast<std::uint8_t>(collector.stream[4]),
            internal::kFormatVersion3);
  PrimacyDecompressor decompressor;
  EXPECT_EQ(decompressor.Decompress(collector.stream), values);
  EXPECT_EQ(decompressor.DecompressRange(collector.stream, 100, 16),
            std::vector<double>(values.begin() + 100, values.begin() + 116));
  const StreamVerifyResult verdict = VerifyStream(collector.stream);
  EXPECT_TRUE(verdict.ok) << verdict.error;
  EXPECT_TRUE(verdict.has_checksums);
  EXPECT_EQ(verdict.chunks_checked, 1u);
  PrimacyStreamReader reader{ByteSpan(collector.stream)};
  EXPECT_EQ(reader.ReadAllDoubles(), values);
}

}  // namespace
}  // namespace primacy
