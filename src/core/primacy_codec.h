// The PRIMACY compressor/decompressor: the paper's Algorithm 1 end to end.
//
// Per 3 MB chunk of doubles:
//   1. split the N x 8 byte matrix into high-order N x 2 and mantissa N x 6;
//   2. frequency-analyze the high-order byte pairs and build the ID index;
//   3. rewrite high-order pairs as frequency-ranked IDs, column-linearized;
//   4. compress the ID bytes with the solver codec;
//   5. run the ISOBAR analyzer/partitioner on the mantissa matrix: solver-
//      compress the compressible byte columns, store the rest raw;
//   6. emit [header | index | compressed IDs | ISOBAR stream] per chunk.
//
// Stream format (v3; readers also accept v1, which stops after the tail,
// and v2, which lacks the checksum fields):
//   u32 magic "PRY1", u8 version (1, 2 or 3), u8 flags (bit 0 = column
//   linearization, bit 1 = stored fallback), u8 element_width,
//   block(solver name), varint byte_count
//   per chunk:
//     varint chunk_elements
//     u8 index_flag (1 = full index follows, 0 = reuse previous index,
//                    2 = delta: extend the previous index with the listed
//                        sequences, appended at the high-ID end)
//     [block(index or delta sequence list)]
//     block(solver-compressed ID bytes)
//     block(ISOBAR mantissa stream)
//   block(tail bytes beyond a whole number of elements)
//   v2/v3 only — chunk directory, so readers can jump to any chunk without
//   scanning (parallel decode, random-access range reads):
//     varint chunk_count
//     per chunk: varint record_offset_delta, varint chunk_elements,
//                u8 index_flag (copied from the record; lets a reader plan
//                parallel decode groups and index chains without touching
//                record bytes),
//                v3: u64 XXH64 of the chunk's record bytes
//     varint tail_offset_delta
//     v3: u64 XXH64 of the header bytes ++ tail-block bytes
//   footer (fixed size, read from the end):
//     v2 (12 bytes): u32 directory_bytes, u32 chunk_count, u32 magic "PRD2"
//     v3 (20 bytes): u64 XXH64 of the directory payload, u32 directory_bytes,
//                    u32 chunk_count, u32 magic "PRD3"
//   v3 stored fallback: the raw block is followed by a trailing u64 XXH64
//   of every preceding stream byte (stored streams have no directory).
//
// Checksum coverage (v3): every byte before the footer is covered by
// exactly one checksum — chunk records by their directory entry, header and
// tail block by the header/tail checksum, the directory payload (which
// contains the other checksums) by the footer checksum — so a single
// flipped bit anywhere is detected, and a range read can verify just the
// chunks it touches plus the (small) header/tail and directory.
//
// Versioning rules: the header magic/version are always the first 5 bytes;
// unknown versions are rejected. v3 readers decode v1/v2 streams (v1
// serially — no directory to parallelize over; both without checksum
// verification — there is nothing to verify); older readers reject newer
// versions by the version byte. PrimacyStreamWriter (streaming.h) writes
// every stream; streamed (unknown-length) ones store the kStreamingTotal
// sentinel as byte_count, and readers derive the total from the directory.
//
// Decode paths: every stream but a streamed v1 one is opened once (header,
// stored payload, directory, checksums, element starts, tail block) and
// v2/v3 chunks decode through one chunk-span driver — a full decode is the
// span over every chunk, a range read the span over its covering chunks.
// PrimacyStreamReader decodes the same directory chunks one per call; v1
// streams (streamed or one-shot) decode through the reader's sequential
// record loop.
#pragma once

#include <memory>
#include <string>

#include "cache/block_cache.h"
#include "compress/codec.h"
#include "core/id_mapper.h"
#include "isobar/analyzer.h"
#include "telemetry/stage.h"

namespace primacy {

class ChunkEncoder;  // chunk_pipeline.h

/// Per-chunk index policy (paper Section II-F; kReuseWhenCorrelated is the
/// "more intelligent indexing scheme" sketched as future work).
enum class IndexMode {
  kPerChunk,
  kReuseWhenCorrelated,
};

/// Element precision. The paper evaluates double precision and notes the
/// mapping scheme generalizes to other precisions (Section IV-B); single
/// precision splits each 4-byte element into a 2-byte high-order part (sign +
/// exponent + leading mantissa bits) and a 2-byte mantissa tail.
enum class Precision {
  kDouble,  // 8-byte elements, 2 high-order + 6 mantissa bytes
  kSingle,  // 4-byte elements, 2 high-order + 2 mantissa bytes
};

constexpr std::size_t ElementWidth(Precision precision) {
  return precision == Precision::kDouble ? 8 : 4;
}

struct PrimacyOptions {
  /// Chunk size in bytes of input data; the paper settles on 3 MB.
  std::size_t chunk_bytes = 3 * 1024 * 1024;
  /// Solver codec name (resolved through the registry).
  std::string solver = "deflate";
  Linearization linearization = Linearization::kColumn;
  IndexMode index_mode = IndexMode::kPerChunk;
  Precision precision = Precision::kDouble;
  /// Worker threads for chunk-parallel compression and decompression
  /// (0 = hardware concurrency, 1 = serial). Work runs on the process-wide
  /// SharedThreadPool; this knob only bounds per-call concurrency.
  /// Compression: only kPerChunk indexing parallelizes (chunks are then
  /// independent, and the output is byte-identical to a serial run);
  /// kReuseWhenCorrelated has a serial cross-chunk dependency and ignores
  /// this knob. Decompression: full decodes and range reads of v2/v3
  /// streams decode index-chain groups in parallel (every chunk is its own
  /// group under kPerChunk), byte-identical to serial; v1 streams always
  /// decode serially.
  std::size_t threads = 1;
  /// Decode-side integrity knob: verify the per-chunk and header/tail
  /// checksums of v3 streams before trusting their bytes (full decodes
  /// check every chunk; range reads check only the chunks they touch).
  /// Ignored for v1/v2 streams, which carry no checksums. The directory
  /// payload's own checksum is always verified — it drives every bounds
  /// computation — regardless of this setting.
  bool verify_checksums = true;
  /// Decoded-chunk cache knobs (off by default). When enabled, the
  /// decompressor constructed from these options builds a private
  /// DecodedBlockCache and serves repeated chunk decodes from it; cached
  /// results are byte-identical to a cold decode. v1 and stored streams
  /// are never cached (no chunk directory to key against; stored payloads
  /// are sliced directly).
  CacheOptions cache;
  /// Explicit cache instance, shared across decompressors (a CheckpointReader
  /// shares one across its per-call decompressors; callers can share one
  /// across readers). Takes precedence over `cache` — the knobs above are
  /// only consulted when this is null.
  std::shared_ptr<DecodedBlockCache> block_cache;
  IsobarOptions isobar;
};

/// Per-stream accounting used by the benches and EXPERIMENTS.md tables.
struct PrimacyStats {
  std::size_t chunks = 0;
  std::size_t indexes_emitted = 0;  // full per-chunk indexes
  std::size_t delta_indexes = 0;    // delta extensions under kReuseWhenCorrelated
  std::size_t input_bytes = 0;
  std::size_t output_bytes = 0;
  std::size_t index_bytes = 0;
  std::size_t id_compressed_bytes = 0;
  std::size_t mantissa_stream_bytes = 0;
  std::size_t mantissa_raw_bytes = 0;  // stored-verbatim share of mantissa
  /// Mean fraction of mantissa columns ISOBAR judged compressible (alpha2).
  double mean_compressible_fraction = 0.0;
  /// Repeatability (top byte frequency) of the high-order bytes before and
  /// after ID mapping — the paper's Section II-C "+15%" metric.
  double top_byte_frequency_before = 0.0;
  double top_byte_frequency_after = 0.0;
  /// Wall time spent in each encode stage, summed across chunks (and across
  /// workers when chunk-parallel — i.e. CPU time, which can exceed the call's
  /// wall time). All-zero when built with PRIMACY_TELEMETRY=OFF.
  telemetry::StageBreakdown stage;

  double CompressionRatio() const {
    return output_bytes == 0
               ? 0.0
               : static_cast<double>(input_bytes) /
                     static_cast<double>(output_bytes);
  }
};

/// The preconditioner + solver pipeline over a stream of doubles.
class PrimacyCompressor {
 public:
  explicit PrimacyCompressor(PrimacyOptions options = {});

  /// Compresses `values`; `stats` (optional) receives per-stage accounting.
  /// The double overload requires Precision::kDouble options, the float
  /// overload Precision::kSingle.
  Bytes Compress(std::span<const double> values,
                 PrimacyStats* stats = nullptr) const;
  Bytes Compress(std::span<const float> values,
                 PrimacyStats* stats = nullptr) const;

  /// Raw-byte interface: any trailing bytes beyond a whole number of
  /// elements are stored verbatim.
  Bytes CompressBytes(ByteSpan data, PrimacyStats* stats = nullptr) const;

  /// As CompressBytes, but encodes through a caller-owned ChunkEncoder
  /// instead of constructing one per call, so long-lived callers (the
  /// service layer's batch workers) amortize encoder scratch allocation
  /// across requests. The encoder is Reset() first and must have been built
  /// with the same options/solver as this compressor. Always takes the
  /// serial path; output is byte-identical to CompressBytes with
  /// threads == 1.
  Bytes CompressBytesWith(ChunkEncoder& encoder, ByteSpan data,
                          PrimacyStats* stats = nullptr) const;

  const PrimacyOptions& options() const { return options_; }

 private:
  Bytes CompressBytesImpl(ByteSpan data, ChunkEncoder* reuse,
                          PrimacyStats* stats) const;

  PrimacyOptions options_;
  std::shared_ptr<const Codec> solver_;
};

/// Per-call decode accounting: how much work a Decompress/DecompressRange
/// call actually did. The counters let tests and benches verify that range
/// reads touch only the covering chunks and that parallel decode engaged.
struct PrimacyDecodeStats {
  std::size_t chunks_decoded = 0;  // chunk records fully decoded
  /// Records whose index block was read (but not decoded) while resolving a
  /// range read's index chain under IndexMode::kReuseWhenCorrelated.
  std::size_t index_loads = 0;
  std::size_t threads_used = 1;  // decode slots actually provisioned
  std::size_t output_bytes = 0;
  bool used_directory = false;  // v2+ directory-driven decode
  /// Chunk records whose checksum was verified before decoding (v3 streams
  /// with verify_checksums on).
  std::size_t chunks_verified = 0;
  /// Chunks served from the decoded-block cache (no decode work; not
  /// counted in chunks_decoded) vs. looked up but absent. Both zero when
  /// no cache is configured.
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  /// Wall time per decode stage, summed across chunks and decode slots (CPU
  /// time under parallel decode). All-zero when PRIMACY_TELEMETRY=OFF.
  telemetry::StageBreakdown stage;

  /// Folds another call's (or decode group's) accounting into this one:
  /// counters and stage times add, used_directory ORs. threads_used is a
  /// per-call provisioning figure and is left as is.
  void Accumulate(const PrimacyDecodeStats& other) {
    chunks_decoded += other.chunks_decoded;
    index_loads += other.index_loads;
    output_bytes += other.output_bytes;
    used_directory = used_directory || other.used_directory;
    chunks_verified += other.chunks_verified;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    stage.Accumulate(other.stage);
  }
};

class PrimacyDecompressor {
 public:
  /// The solver is recovered from the stream header; `options` supplies the
  /// decode-side knobs (threads).
  explicit PrimacyDecompressor(PrimacyOptions options = {});

  std::vector<double> Decompress(ByteSpan stream,
                                 PrimacyDecodeStats* stats = nullptr) const;
  std::vector<float> DecompressSingle(ByteSpan stream,
                                      PrimacyDecodeStats* stats = nullptr) const;
  Bytes DecompressBytes(ByteSpan stream,
                        PrimacyDecodeStats* stats = nullptr) const;

  /// Random-access range read: decodes elements [first_element,
  /// first_element + count) touching only the chunks that cover the range
  /// (plus, under IndexMode::kReuseWhenCorrelated, the index blocks of the
  /// chain back to the nearest full index — counted in stats->index_loads,
  /// never decoded). Requires a v2 stream (or a stored stream, which is
  /// sliced directly); v1 streams throw InvalidArgumentError. An empty range
  /// is valid anywhere within [0, element_count]. Bytes beyond the last
  /// whole element (the stored tail) are not element-addressable.
  std::vector<double> DecompressRange(ByteSpan stream,
                                      std::uint64_t first_element,
                                      std::uint64_t count,
                                      PrimacyDecodeStats* stats = nullptr) const;
  std::vector<float> DecompressRangeSingle(
      ByteSpan stream, std::uint64_t first_element, std::uint64_t count,
      PrimacyDecodeStats* stats = nullptr) const;
  Bytes DecompressBytesRange(ByteSpan stream, std::uint64_t first_element,
                             std::uint64_t count,
                             PrimacyDecodeStats* stats = nullptr) const;

  /// The decoded-block cache this decompressor reads through: the instance
  /// supplied in options.block_cache, one built from options.cache, or null
  /// (uncached). Exposed so callers can inspect Stats() or share it.
  const std::shared_ptr<DecodedBlockCache>& cache() const { return cache_; }

 private:
  Bytes DecompressRangeImpl(ByteSpan stream, std::uint64_t first_element,
                            std::uint64_t count, std::size_t expected_width,
                            PrimacyDecodeStats* stats) const;

  PrimacyOptions options_;
  std::shared_ptr<DecodedBlockCache> cache_;
};

/// Outcome of a VerifyStream integrity pass.
struct StreamVerifyResult {
  bool ok = false;
  std::uint8_t version = 0;
  /// True when the stream carried checksums (v3) and verification was
  /// hash-only; false for v1/v2, where the fallback is a full decode.
  bool has_checksums = false;
  std::size_t chunks_checked = 0;
  /// Empty when ok; otherwise the failure message.
  std::string error;
};

/// Validates a stream's integrity without materializing its contents. For
/// v3 streams this hashes the chunk records, header/tail, and directory
/// against the stored checksums (no decompression). For v1/v2 streams —
/// which carry no checksums — it falls back to a full structural decode and
/// reports whether that succeeded. Never throws on corrupt input; the
/// failure is returned in the result.
StreamVerifyResult VerifyStream(ByteSpan stream);

/// Implements Codec so PRIMACY(solver) can drop into any harness slot that
/// expects a plain byte codec (sizes must be multiples of 8; other sizes
/// throw InvalidArgumentError).
class PrimacyCodec final : public Codec {
 public:
  explicit PrimacyCodec(PrimacyOptions options = {});

  std::string_view name() const override { return "primacy"; }
  Bytes Compress(ByteSpan data) const override;
  Bytes Decompress(ByteSpan data) const override;

 private:
  PrimacyCompressor compressor_;
  PrimacyDecompressor decompressor_;
};

}  // namespace primacy
