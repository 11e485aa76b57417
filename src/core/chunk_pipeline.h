// The per-chunk encode/decode pipeline shared by the one-shot
// PrimacyCompressor/PrimacyDecompressor and the streaming writer/reader.
//
// A ChunkEncoder carries the cross-chunk state (previous frequency vector +
// index for IndexMode::kReuseWhenCorrelated) and turns one chunk of
// *native-layout element bytes* into one self-delimiting chunk record; a
// ChunkDecoder mirrors it. The surrounding stream header/tail framing lives
// with the callers.
#pragma once

#include <memory>
#include <optional>
#include <span>

#include "bitstream/byte_io.h"
#include "compress/codec.h"
#include "core/frequency.h"
#include "core/primacy_codec.h"
#include "telemetry/stage.h"

namespace primacy {

/// Bucket bounds of the primacy_{encode,decode}_stage_seconds histogram
/// families. Registry histograms fix their buckets at first registration,
/// so anyone resolving those series (the service_load bench's percentile
/// reporter) must pass exactly these bounds.
std::span<const double> StageSecondsBounds();

/// Accounting for a single encoded chunk.
struct ChunkRecordStats {
  std::size_t elements = 0;
  std::size_t record_bytes = 0;
  std::size_t index_bytes = 0;
  bool emitted_full_index = false;
  bool emitted_delta_index = false;
  std::size_t id_compressed_bytes = 0;
  std::size_t mantissa_stream_bytes = 0;
  std::size_t mantissa_raw_bytes = 0;
  double compressible_fraction = 0.0;
  double top_byte_frequency_before = 0.0;
  double top_byte_frequency_after = 0.0;
  /// Per-stage encode time for this chunk (zero when telemetry is off).
  telemetry::StageBreakdown stage;
};

/// Folds one chunk's accounting into per-stream totals. The per-chunk mean
/// fields (top-byte frequencies, compressible fraction) are accumulated as
/// running sums; call FinalizeChunkStatMeans once after the last chunk to
/// divide them through. Shared by the one-shot compressor, the streaming
/// writer, and the in-situ driver.
void AccumulateChunkStats(PrimacyStats& totals, const ChunkRecordStats& chunk);
void FinalizeChunkStatMeans(PrimacyStats& totals);

class ChunkEncoder {
 public:
  /// `solver` must outlive the encoder; `options` is copied (so a temporary
  /// is fine — ASan caught a dangling reference from exactly that).
  ChunkEncoder(const PrimacyOptions& options, const Codec& solver);

  /// Encodes one chunk (native element layout, size = multiple of the
  /// precision's element width) and appends its record to `out`.
  ChunkRecordStats EncodeChunk(ByteSpan chunk, Bytes& out);

  /// Drops the cross-chunk index state (a fresh index will be emitted next).
  void Reset();

 private:
  const PrimacyOptions options_;
  const Codec& solver_;
  // Reused across chunks: each EncodeChunk analyzes into freq_scratch_ and
  // then swaps it into prev_freq_, so the 256 KiB counts buffer is allocated
  // once per encoder instead of once per chunk.
  PairFrequency freq_scratch_;
  std::optional<PairFrequency> prev_freq_;
  std::optional<IdIndex> prev_index_;
};

class ChunkDecoder {
 public:
  ChunkDecoder(const Codec& solver, Linearization linearization,
               std::size_t element_width);

  /// Decodes one chunk record body from `reader`. The caller has already
  /// consumed the record's leading element-count varint (so it can detect
  /// end-of-chunks sentinels); the restored native-layout bytes are appended
  /// to `out`.
  void DecodeChunk(ByteReader& reader, std::uint64_t count, Bytes& out);

  /// Same, but writes the restored bytes straight into `out`, which must be
  /// exactly count * element_width bytes. This is the parallel-decode path:
  /// each chunk's output position is known from the v2 directory, so workers
  /// decode into disjoint slices of one preallocated buffer with no
  /// intermediate append/copy.
  void DecodeChunkInto(ByteReader& reader, std::uint64_t count,
                       MutableByteSpan out);

  /// Seeds the cross-chunk index state. Range reads resolve the index chain
  /// (nearest full index plus deltas) out-of-band and prime the decoder with
  /// the result before decoding the covering chunks.
  void SetIndex(IdIndex index) { index_ = std::move(index); }

  /// Per-stage decode time accumulated across every chunk this decoder has
  /// decoded (zero when telemetry is off).
  const telemetry::StageBreakdown& stage_breakdown() const { return stage_; }

  /// Charges externally measured work (e.g. the caller's checksum pass over
  /// the record bytes) to one of this decoder's stages, registry included.
  void AddStageNs(telemetry::Stage stage, std::uint64_t ns);

 private:
  const Codec& solver_;
  Linearization linearization_;
  std::size_t width_;
  std::optional<IdIndex> index_;
  telemetry::StageBreakdown stage_;
  // Per-chunk decode scratch, reused across chunks: the ID plane, its
  // unmapped high bytes and the solved mantissa columns.
  Bytes ids_;
  Bytes high_;
  Bytes columns_;
};

}  // namespace primacy
