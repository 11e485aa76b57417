// The codec one layer down: replays a PRIMACY encode or decode of a byte
// buffer through the public functions of the layers beneath
// PrimacyCompressor / PrimacyDecompressor, chunk by chunk and stage by
// stage, timing each call.
//
// Encode, per 3 MiB chunk: kernels.split (big-endian rows + SplitHighLow),
// core.frequency (pair counts + index build + serialization), core.idmap,
// deflate.encode of the ID bytes (child lz77.parse), isobar.encode (children
// isobar.analyze and deflate.encode of the compressible columns, itself with
// child lz77.parse), util.checksum. Decode mirrors it with core.index,
// deflate.decode, core.idunmap, isobar.decode, kernels.merge; LzExpand is
// timed beside the fused deflate decoder as a reference (not nested).
//
// The whole-call spans (core.encode / core.decode) time the real library
// call on the same bytes, so their self time is the work the stage replay
// does not explain: record framing, the chunk directory, and per-chunk
// statistics the pipeline computes.
#pragma once

#include <cstdint>
#include <vector>

#include "core/primacy_codec.h"
#include "lz77/lz77.h"
#include "util/bytes.h"

namespace perfbench {

/// PrimacyOptions with threads = 1: every direct library call the
/// benchmark makes or replays runs on the calling thread.
primacy::PrimacyOptions SerialOptions();

/// Sums over every replayed call; merged across threads with Add.
struct StageTotals {
  std::uint64_t chunks = 0;
  std::uint64_t distinct_pairs = 0;
  std::uint64_t encode_bytes = 0;  // native input bytes of replayed chunks
  std::uint64_t decode_bytes = 0;  // native output bytes of replayed chunks
  /// Sum of the nested encode stage replays (what core.encode explains).
  std::uint64_t encode_stages_ns = 0;
  std::uint64_t split_ns = 0;
  std::uint64_t frequency_ns = 0;
  std::uint64_t idmap_ns = 0;
  std::uint64_t idunmap_ns = 0;
  std::uint64_t merge_ns = 0;
  std::uint64_t checksum_ns = 0;
  std::uint64_t checksum_bytes = 0;
  std::uint64_t checksum_digest = 0;  // keeps the hashing observable
  std::uint64_t lz_parse_ns = 0;
  std::uint64_t lz_parse_bytes = 0;
  std::uint64_t lz_tokens = 0;
  std::uint64_t lz_expand_ns = 0;
  std::uint64_t lz_expand_bytes = 0;
  std::uint64_t deflate_encode_ns = 0;
  std::uint64_t deflate_encode_bytes = 0;
  std::uint64_t deflate_decode_ns = 0;
  std::uint64_t deflate_decode_bytes = 0;
  std::uint64_t deflate_calls = 0;
  std::uint64_t deflate_stored_calls = 0;  // output >= input
  std::uint64_t id_in = 0, id_out = 0;
  std::uint64_t mantissa_in = 0, mantissa_out = 0;
  std::uint64_t isobar_bytes = 0;  // mantissa matrix bytes
  std::uint64_t isobar_encode_ns = 0;
  std::uint64_t isobar_analyze_ns = 0;
  std::uint64_t isobar_solver_ns = 0;
  std::uint64_t isobar_decode_ns = 0;
  std::uint64_t isobar_decode_bytes = 0;
  std::uint64_t compressible_cols = 0;
  std::uint64_t total_cols = 0;
  std::uint64_t core_encode_ns = 0;
  std::uint64_t core_encode_bytes = 0;
  std::uint64_t core_decode_ns = 0;
  std::uint64_t core_decode_bytes = 0;
  /// The library's own stage table for the replayed encodes.
  std::uint64_t reported_isobar_ns = 0;
  std::uint64_t reported_total_ns = 0;

  void Add(const StageTotals& other);
};

/// The encode-side intermediates of one chunk the decode replay consumes.
struct ChunkArtifacts {
  std::size_t count = 0;
  primacy::Bytes index;  // serialized
  primacy::Bytes id_compressed;
  std::vector<primacy::LzToken> id_tokens;
  std::size_t id_bytes = 0;
  primacy::Bytes isobar_stream;
  primacy::Bytes columns_compressed;
  std::vector<primacy::LzToken> column_tokens;
  std::size_t column_bytes = 0;
};

struct EncodeReplay {
  primacy::Bytes stream;  // PrimacyCompressor::CompressBytes output
  std::vector<ChunkArtifacts> chunks;
};

/// Replays the encode of `native` (whole doubles): times
/// PrimacyCompressor::CompressBytes as core.encode under `parent`, then the
/// stages of every chunk beneath it.
EncodeReplay ReplayEncode(primacy::ByteSpan native, std::uint64_t parent,
                          std::uint64_t group, StageTotals& totals);

/// Replays the decode of `encoded.stream` (produced from `native`): times
/// PrimacyDecompressor::DecompressBytes as core.decode under `parent`, then
/// the decode stages of every chunk beneath it. Returns false when any
/// replayed output differs from `native`.
bool ReplayDecode(primacy::ByteSpan native, const EncodeReplay& encoded,
                  std::uint64_t parent, std::uint64_t group,
                  StageTotals& totals);

class Report;
/// Sets the solver-stack and core per-layer metrics from `totals`.
void ReportStageMetrics(Report& report, const StageTotals& totals);

}  // namespace perfbench
