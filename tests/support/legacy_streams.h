// Hand-assembled legacy PRIMACY streams for tests and the golden corpus.
//
// PrimacyStreamWriter writes only v3, yet readers must keep decoding the
// shapes older writers produced. These builders lay those streams out the
// way the old writers did, with record bytes from today's ChunkEncoder:
//
//   MakeV1Stream          one-shot v1: header (byte count), records, tail
//                         block — no directory.
//   MakeV2Stream          one-shot v2: the v1 payload plus a checksum-free
//                         directory and 12-byte footer.
//   MakeStreamedV1Stream  streamed v1: header with the kStreamingTotal
//                         sentinel, records, a 0 count, the tail block and
//                         the real byte count.
//
// `input` is native-layout element bytes; bytes past the last whole element
// go to the tail block.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bitstream/byte_io.h"
#include "core/chunk_pipeline.h"
#include "core/primacy_codec.h"
#include "core/stream_format.h"
#include "core/streaming.h"

namespace primacy::legacy {

/// Appends the header and one record per chunk of `input`'s whole elements,
/// returning each record's directory entry (no checksums).
inline std::vector<internal::ChunkDirectoryEntry> AppendHeaderAndRecords(
    Bytes& out, ByteSpan input, const PrimacyOptions& options,
    std::uint64_t total_bytes, std::uint8_t version) {
  internal::WriteStreamHeader(out, options, total_bytes, /*stored=*/false,
                              version);
  const std::size_t width = ElementWidth(options.precision);
  const std::size_t chunk_bytes =
      options.chunk_bytes - options.chunk_bytes % width;
  const std::size_t body = input.size() - input.size() % width;
  const auto solver = internal::ResolveSolver(options.solver);
  ChunkEncoder encoder(options, *solver);
  std::vector<internal::ChunkDirectoryEntry> entries;
  for (std::size_t first = 0; first < body; first += chunk_bytes) {
    const std::uint64_t offset = out.size();
    const ChunkRecordStats chunk = encoder.EncodeChunk(
        input.subspan(first, std::min(chunk_bytes, body - first)), out);
    entries.push_back({offset, chunk.elements,
                       static_cast<std::uint8_t>(
                           chunk.emitted_full_index    ? 1
                           : chunk.emitted_delta_index ? 2
                                                       : 0)});
  }
  return entries;
}

inline ByteSpan TailOf(ByteSpan input, const PrimacyOptions& options) {
  return input.last(input.size() % ElementWidth(options.precision));
}

inline Bytes MakeV1Stream(ByteSpan input, const PrimacyOptions& options) {
  Bytes out;
  AppendHeaderAndRecords(out, input, options, input.size(),
                         internal::kFormatVersion1);
  PutBlock(out, TailOf(input, options));
  return out;
}

inline Bytes MakeV2Stream(ByteSpan input, const PrimacyOptions& options) {
  Bytes out;
  internal::ChunkDirectory directory;
  directory.chunks = AppendHeaderAndRecords(out, input, options, input.size(),
                                            internal::kFormatVersion2);
  directory.tail_offset = out.size();
  PutBlock(out, TailOf(input, options));
  internal::AppendChunkDirectory(out, directory, internal::kFormatVersion2);
  return out;
}

inline Bytes MakeStreamedV1Stream(ByteSpan input,
                                  const PrimacyOptions& options) {
  Bytes out;
  AppendHeaderAndRecords(out, input, options, kStreamingTotal,
                         internal::kFormatVersion1);
  PutVarint(out, 0);  // end-of-chunks sentinel (chunk counts are >= 1)
  PutBlock(out, TailOf(input, options));
  PutVarint(out, input.size());
  return out;
}

}  // namespace primacy::legacy
