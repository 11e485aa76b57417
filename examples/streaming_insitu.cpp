// Streaming in-situ compression: a simulation loop produces field data in
// bursts; PrimacyStreamWriter compresses chunk-by-chunk as data arrives
// (bounded memory, records emitted incrementally to the staging buffer),
// and a restart reads it back one chunk at a time through
// PrimacyStreamReader. The streamed stream is v3 — its directory and
// checksums follow the data — so a partial restart (range read) and an
// integrity check work on it too.
//
//   ./streaming_insitu [dataset] [elements] [burst_elements]
#include <algorithm>
#include <cstdio>
#include <string>

#include "core/streaming.h"
#include "datasets/datasets.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  const std::string dataset = argc > 1 ? argv[1] : "flash_velx";
  const std::size_t elements =
      argc > 2 ? static_cast<std::size_t>(std::stoull(argv[2])) : 1u << 21;
  const std::size_t burst =
      argc > 3 ? static_cast<std::size_t>(std::stoull(argv[3])) : 40000;

  const std::vector<double> field =
      primacy::GenerateDatasetByName(dataset, elements);

  // The "staging buffer" the sink writes into. In a real deployment this
  // would be the transport into the I/O nodes.
  primacy::Bytes staged;
  std::size_t sink_calls = 0;

  primacy::PrimacyOptions options;
  options.index_mode = primacy::IndexMode::kReuseWhenCorrelated;
  primacy::PrimacyStreamWriter writer(
      [&](primacy::ByteSpan data) {
        primacy::AppendBytes(staged, data);
        ++sink_calls;
      },
      options);

  primacy::WallTimer timer;
  for (std::size_t offset = 0; offset < field.size(); offset += burst) {
    const std::size_t count = std::min(burst, field.size() - offset);
    writer.Append(std::span(field).subspan(offset, count));
  }
  const primacy::PrimacyStats stats = writer.Finish();
  const double write_seconds = timer.Seconds();

  std::printf("streamed %zu doubles in bursts of %zu\n", field.size(), burst);
  std::printf("  sink invocations   : %zu (incremental emission)\n",
              sink_calls);
  std::printf("  compression ratio  : %.3f\n", stats.CompressionRatio());
  std::printf("  full/delta indexes : %zu / %zu over %zu chunks\n",
              stats.indexes_emitted, stats.delta_indexes, stats.chunks);
  std::printf("  throughput         : %.1f MB/s\n",
              primacy::ThroughputMBps(stats.input_bytes, write_seconds));

  // Restart: chunk-at-a-time read with bounded memory.
  timer.Reset();
  primacy::PrimacyStreamReader reader(staged);
  primacy::Bytes restored;
  std::size_t chunks = 0;
  while (reader.NextChunk(restored)) ++chunks;
  const double read_seconds = timer.Seconds();

  const auto restored_values = primacy::FromBytes<double>(restored);
  if (restored_values != field) {
    std::printf("ERROR: restart mismatch!\n");
    return 1;
  }
  std::printf("restart: %zu chunks, %.1f MB/s, bit-exact\n", chunks,
              primacy::ThroughputMBps(restored.size(), read_seconds));

  // Partial restart: only the chunks covering the middle of the field.
  const std::size_t first = field.size() / 2;
  const std::size_t count = std::min<std::size_t>(1000, field.size() - first);
  const std::vector<double> slice =
      primacy::PrimacyDecompressor().DecompressRange(staged, first, count);
  if (!std::equal(slice.begin(), slice.end(),
                  field.begin() + static_cast<std::ptrdiff_t>(first))) {
    std::printf("ERROR: range read mismatch!\n");
    return 1;
  }
  std::printf("range read: %zu doubles at %zu, bit-exact\n", count, first);
  const primacy::StreamVerifyResult verdict = primacy::VerifyStream(staged);
  if (!verdict.ok) {
    std::printf("ERROR: %s\n", verdict.error.c_str());
    return 1;
  }
  std::printf("checksums: %zu chunks verified\n", verdict.chunks_checked);
  return 0;
}
