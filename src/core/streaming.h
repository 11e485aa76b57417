// Incremental (streaming) PRIMACY interfaces for in-situ use, where a
// simulation produces data in bursts and the compressed checkpoint must be
// emitted without ever materializing the whole input or output:
//
//  * PrimacyStreamWriter::Append accepts arbitrarily-sized batches of
//    values; whole chunks are encoded and handed to the sink as soon as
//    they are full. Finish() flushes the remainder, directory and footer.
//  * PrimacyStreamReader::NextChunk yields the decoded values one chunk at
//    a time, bounding peak memory at one chunk regardless of stream size.
//
// The writer is the one encoder: PrimacyCompressor wraps it, and it always
// writes v3, whose directory and footer follow the data. A one-shot stream
// records its byte count in the header; a streamed one records the
// kStreamingTotal sentinel there, and readers derive the total from the
// directory and tail block. PrimacyStreamReader also reads legacy streamed
// v1 streams, which PrimacyDecompressor rejects.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/chunk_pipeline.h"
#include "core/primacy_codec.h"
#include "core/stream_format.h"
#include "util/checksum.h"

namespace primacy {

/// Header total-byte sentinel marking a streamed (unknown-size) stream.
inline constexpr std::uint64_t kStreamingTotal = ~std::uint64_t{0};

class PrimacyStreamWriter {
 public:
  /// `sink` receives the stream bytes in order (header, each chunk record as
  /// soon as it is encoded, tail block + directory + footer) on the
  /// caller's thread.
  using Sink = std::function<void(ByteSpan)>;

  explicit PrimacyStreamWriter(Sink sink, PrimacyOptions options = {});

  /// Appends values; must match the options' precision.
  void Append(std::span<const double> values);
  void Append(std::span<const float> values);

  /// Appends raw native-layout bytes (any size; a trailing partial element
  /// is only allowed immediately before Finish()). Whole chunks encode
  /// straight from `data`, chunk-parallel as options.threads allows; only a
  /// partial chunk is buffered.
  void AppendBytes(ByteSpan data);

  /// Flushes the final partial chunk and writes the tail block, directory
  /// and footer. No Append may follow. Returns the cumulative stats.
  PrimacyStats Finish();

  const PrimacyStats& stats() const { return stats_; }

 private:
  friend class PrimacyCompressor;

  /// PrimacyCompressor's writer when `sink` is null: the stream accumulates
  /// in out_, the input totals `total_bytes`, and a non-null `encoder` is
  /// borrowed (Reset first), which pins the serial path.
  PrimacyStreamWriter(Sink sink, PrimacyOptions options,
                      std::shared_ptr<const Codec> solver,
                      ChunkEncoder* encoder, std::uint64_t total_bytes);

  /// The stored fallback of `data`: header, raw block, XXH64 of both.
  static Bytes StoredStream(const PrimacyOptions& options, ByteSpan data);

  /// Encodes `data` as consecutive chunks (the last may be short).
  void EncodeChunks(ByteSpan data);
  /// Enters the record just written to out_ in the directory and emits it.
  void EmitRecord(const ChunkRecordStats& chunk);
  void Emit();  // emits the bytes written to out_ since the last call

  Sink sink_;
  Bytes out_;  // written bytes: the unemitted ones, or (no sink) the stream
  std::size_t unsent_ = 0;  // offset in out_ of the first unemitted byte
  PrimacyOptions options_;
  std::size_t chunk_bytes_;  // whole elements per chunk
  std::shared_ptr<const Codec> solver_;
  std::uint64_t total_bytes_;  // the header's total (or kStreamingTotal)
  ChunkEncoder* borrowed_;      // the caller's encoder, or null
  std::optional<ChunkEncoder> own_encoder_;  // used when none is borrowed
  Bytes pending_;  // a partial chunk of not-yet-encoded input bytes
  internal::ChunkDirectory directory_;
  Xxh64State header_tail_;  // header bytes, then the tail block
  /// Cumulative accounting (output_bytes = the next record's offset); the
  /// per-chunk mean fields hold running sums until Finish().
  PrimacyStats stats_;
  bool finished_ = false;
};

class PrimacyStreamReader {
 public:
  /// Reads from an in-memory stream view (the common in-situ case: the
  /// staged buffer); the view must outlive the reader. v2/v3 streams are
  /// opened up front (directory, element starts, tail) and decode one
  /// directory chunk per call; v3 records are verified against
  /// their checksums first (disable with `verify_checksums` for raw speed).
  /// v1 streams, streamed or one-shot, decode record by record.
  explicit PrimacyStreamReader(ByteSpan stream, bool verify_checksums = true);

  /// Element width of the stream (4 or 8).
  std::size_t element_width() const { return header_.width; }

  /// Decodes the next chunk into `out` (appending native-layout bytes).
  /// Returns false when the stream is exhausted — at which point the tail
  /// bytes (if any) have been appended too.
  bool NextChunk(Bytes& out);

  /// Convenience: drain the remaining chunks as doubles.
  std::vector<double> ReadAllDoubles();

  /// Per-stage decode time accumulated over the chunks read so far (zero
  /// when telemetry is off).
  const telemetry::StageBreakdown& stage_breakdown() const;

 private:
  /// The v1 record loop, for streamed and one-shot v1 streams.
  bool NextSequentialChunk(Bytes& out);

  ByteReader reader_;  // v1 record cursor
  internal::StreamHeader header_;
  std::unique_ptr<const Codec> solver_;
  std::unique_ptr<ChunkDecoder> decoder_;
  /// Every stream but a streamed v1 one, parsed once by OpenStream: stored
  /// payloads and v2/v3 records are read through it.
  std::optional<internal::OpenedStream> opened_;
  std::size_t chunk_index_ = 0;
  std::uint64_t decoded_bytes_ = 0;  // v1 records and tail so far
  bool saw_trailer_ = false;
};

}  // namespace primacy
