#include "core/primacy_codec.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <vector>

#include "bitstream/byte_io.h"
#include "compress/registry.h"
#include "core/builtin_codecs.h"
#include "core/chunk_pipeline.h"
#include "core/stream_format.h"
#include "core/streaming.h"
#include "telemetry/trace.h"
#include "util/checksum.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace primacy {
namespace {

/// Reads only the index block of chunk `c`'s record (for index chain
/// resolution), validating the flag against the directory and (v3 + verify)
/// the record checksum.
ByteSpan ReadIndexBlock(const internal::OpenedStream& s, std::size_t c) {
  internal::VerifyChunkChecksum(s, c);
  try {
    ByteReader reader(internal::RecordSpan(s, c));
    reader.GetVarint();  // element count
    const std::uint8_t flag = reader.GetU8();
    if (flag != s.directory.chunks[c].index_flag) {
      throw CorruptStreamError("primacy: directory index flag mismatch");
    }
    return reader.GetBlock();
  } catch (const InternalError&) {
    throw;
  } catch (const Error& e) {
    internal::ThrowChunkError(c, s.directory.chunks[c].offset, e.what());
  }
}

/// Content-derived 64-bit identity of a seekable stream: the stream half of
/// the decoded-block cache key. Hashes the header bytes plus the directory
/// payload and footer — for v3 the directory embeds every record's content
/// checksum, so the identity is a function of all payload bytes. v2
/// directories carry only structure (offsets/counts/flags), so a bounded
/// sample of each record's bytes is mixed in as well. Streams with equal
/// content hash equal (correct: their decoded chunks are identical);
/// distinct streams colliding requires a 64-bit XXH64 collision.
std::uint64_t StreamCacheIdentity(const internal::OpenedStream& s) {
  Xxh64State state;
  state.Update(s.bytes.first(s.chunks_begin));
  state.Update(
      s.bytes.subspan(static_cast<std::size_t>(s.directory.directory_offset)));
  if (!s.directory.has_checksums) {
    for (std::size_t c = 0; c < s.directory.chunks.size(); ++c) {
      const ByteSpan record = internal::RecordSpan(s, c);
      const std::size_t sample = std::min<std::size_t>(record.size(), 16);
      state.Update(record.first(sample));
      state.Update(record.last(sample));
    }
  }
  return state.Digest();
}

/// Seeds `decoder` with the cross-chunk index state chunk `c` decodes
/// under: a no-op for a full-index chunk, otherwise the
/// kReuseWhenCorrelated chain is resolved — walk back to the nearest full
/// index, then replay the delta extensions up to (but not including) `c`.
/// Only index blocks are read (counted in accounting.index_loads); no chunk
/// payload is decoded.
void PrimeDecoderIndex(const internal::OpenedStream& s, std::size_t c,
                       ChunkDecoder& decoder,
                       PrimacyDecodeStats& accounting) {
  const internal::ChunkDirectory& directory = s.directory;
  if (directory.chunks[c].index_flag == 1) return;
  std::size_t base = c;
  while (base > 0 && directory.chunks[base].index_flag != 1) --base;
  if (directory.chunks[base].index_flag != 1) {
    internal::ThrowChunkError(c, directory.chunks[c].offset,
                              "no full index precedes chunk");
  }
  IdIndex index = DeserializeIndex(ReadIndexBlock(s, base));
  ++accounting.index_loads;
  for (std::size_t i = base + 1; i < c; ++i) {
    if (directory.chunks[i].index_flag == 2) {
      index = index.Extended(DeserializeSequenceList(ReadIndexBlock(s, i)));
      ++accounting.index_loads;
    }
  }
  decoder.SetIndex(std::move(index));
}

/// Sentinel for CachedChunkReader::state_for: the decoder's index state is
/// not known to match any chunk.
constexpr std::size_t kNoIndexState = static_cast<std::size_t>(-1);

/// Decodes directory chunks through the decoded-block cache: a hit is a
/// memcpy of the cached bytes, a miss decodes and inserts the result. With
/// a null cache this degenerates to exactly the uncached sequential decode
/// (every chunk a plain DecodeDirectoryChunk, no lookups, no priming beyond
/// what the first chunk needs).
///
/// The subtlety is IndexMode::kReuseWhenCorrelated: skipping a chunk whose
/// record would have (re)built the decoder's index (flag 1 or 2) leaves the
/// decoder's cross-chunk state stale for the next miss. `state_for` tracks
/// which chunk the state is currently valid for; a miss on a reuse/delta
/// chunk whose state is stale re-primes via PrimeDecoderIndex first.
struct CachedChunkReader {
  const internal::OpenedStream& s;
  DecodedBlockCache* cache;  // null = uncached
  std::uint64_t stream_id;
  std::size_t state_for = kNoIndexState;  // chunk the index state decodes

  /// Decodes chunk `c` into `out`, which must be exactly the chunk's
  /// decoded extent. A cache hit never re-enters the decoder, so it is
  /// neither decoded nor verified.
  void DecodeChunk(std::size_t c, ChunkDecoder& decoder, MutableByteSpan out,
                   PrimacyDecodeStats& accounting) {
    const std::uint8_t flag = s.directory.chunks[c].index_flag;
    if (cache != nullptr) {
      if (DecodedBlockCache::Handle handle = cache->Lookup(stream_id, c)) {
        if (handle.data().size() != out.size()) {
          internal::ThrowChunkError(c, s.directory.chunks[c].offset,
                                    "cached chunk size mismatch");
        }
        std::memcpy(out.data(), handle.data().data(), out.size());
        ++accounting.cache_hits;
        if (flag == 0) {
          // A reuse chunk leaves the index untouched: state valid for c is
          // equally valid for c + 1. Full/delta chunks rebuild state their
          // record carries — skipping them leaves the decoder stale.
          if (state_for == c) state_for = c + 1;
        } else {
          state_for = kNoIndexState;
        }
        return;
      }
      ++accounting.cache_misses;
    }
    if (flag != 1 && state_for != c) {
      PrimeDecoderIndex(s, c, decoder, accounting);
    }
    accounting.chunks_verified +=
        internal::DecodeDirectoryChunk(s, c, decoder, out);
    state_for = c + 1;
    ++accounting.chunks_decoded;
    if (cache != nullptr) cache->Insert(stream_id, c, ToBytes(ByteSpan(out)));
  }
};

/// Maximal runs of chunks in [cfirst, cend) that start at a full index (or
/// at cfirst): within a group chunks depend on the running index state
/// (flags 0/2); across groups they are independent, which is the unit of
/// parallel decode. Under kPerChunk every chunk is flag 1 and thus its own
/// group.
std::vector<std::pair<std::size_t, std::size_t>> IndexGroups(
    const internal::ChunkDirectory& directory, std::size_t cfirst,
    std::size_t cend) {
  std::vector<std::pair<std::size_t, std::size_t>> groups;
  for (std::size_t c = cfirst; c < cend; ++c) {
    if (directory.chunks[c].index_flag == 1 || groups.empty()) {
      groups.emplace_back(c, 1);
    } else {
      ++groups.back().second;
    }
  }
  return groups;
}

/// The one decode driver for v2/v3 streams: decodes chunks [cfirst, cend)
/// into `out`, which holds elements [first_element, first_element +
/// out.size() / width). Chunks inside that range decode in place; an edge
/// chunk that overhangs it decodes into scratch and is trimmed. A full
/// decode is the span over every chunk. With threads != 1 and more than one
/// index group, groups spread across the shared pool, byte-identical to a
/// serial run. Only a span that starts mid-chain primes the index chain.
/// Reads go through the decoded-block cache when one is configured.
void DecodeChunkSpan(const internal::OpenedStream& s, std::size_t cfirst,
                     std::size_t cend, std::uint64_t first_element,
                     MutableByteSpan out, const PrimacyOptions& options,
                     DecodedBlockCache* cache,
                     PrimacyDecodeStats& accounting) {
  accounting.used_directory = true;
  const std::uint64_t width = s.header.width;
  const std::uint64_t end_element = first_element + out.size() / width;
  const std::uint64_t stream_id =
      cache != nullptr ? StreamCacheIdentity(s) : 0;
  const auto groups = IndexGroups(s.directory, cfirst, cend);
  // Per-group accounting, folded in after the (possibly parallel) decode —
  // workers never touch shared counters.
  std::vector<PrimacyDecodeStats> per_group(groups.size());
  const auto decode_group = [&](ChunkDecoder& decoder, Bytes& scratch,
                                std::size_t g) {
    const auto [first, n] = groups[g];
    CachedChunkReader chunks{s, cache, stream_id};
    for (std::size_t c = first; c < first + n; ++c) {
      const std::uint64_t chunk_first = s.starts[c];
      const std::uint64_t chunk_end =
          chunk_first + s.directory.chunks[c].elements;
      const auto chunk_bytes =
          static_cast<std::size_t>((chunk_end - chunk_first) * width);
      if (chunk_first >= first_element && chunk_end <= end_element) {
        chunks.DecodeChunk(
            c, decoder,
            out.subspan(
                static_cast<std::size_t>((chunk_first - first_element) * width),
                chunk_bytes),
            per_group[g]);
        continue;
      }
      scratch.resize(chunk_bytes);
      chunks.DecodeChunk(c, decoder, scratch, per_group[g]);
      const std::uint64_t lo = std::max(chunk_first, first_element);
      const std::uint64_t hi = std::min(chunk_end, end_element);
      std::memcpy(out.data() + (lo - first_element) * width,
                  scratch.data() + (lo - chunk_first) * width,
                  static_cast<std::size_t>((hi - lo) * width));
    }
  };

  const std::size_t slots =
      SharedThreadPool().SlotCount(groups.size(), options.threads);
  if (slots > 1 && groups.size() > 1) {
    // One solver + decoder + edge scratch per slot, reused across that
    // slot's groups instead of constructed per chunk. Slots never run two
    // groups at once, so the per-slot state needs no locking.
    struct Slot {
      std::unique_ptr<const Codec> solver;
      std::optional<ChunkDecoder> decoder;
      Bytes scratch;
    };
    std::vector<Slot> slot_state(slots);
    SharedThreadPool().ParallelForSlots(
        groups.size(), options.threads, [&](std::size_t slot, std::size_t g) {
          Slot& state = slot_state[slot];
          if (!state.decoder) {
            state.solver = CreateCodec(s.header.solver_name);
            state.decoder.emplace(*state.solver, s.header.linearization,
                                  s.header.width);
          }
          decode_group(*state.decoder, state.scratch, g);
        });
    accounting.threads_used = slots;
    // Stage times fold after the barrier — workers never share counters.
    for (const Slot& state : slot_state) {
      if (state.decoder) {
        accounting.stage.Accumulate(state.decoder->stage_breakdown());
      }
    }
  } else {
    const auto solver = CreateCodec(s.header.solver_name);
    ChunkDecoder decoder(*solver, s.header.linearization, s.header.width);
    Bytes scratch;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      decode_group(decoder, scratch, g);
    }
    accounting.stage.Accumulate(decoder.stage_breakdown());
  }
  for (const PrimacyDecodeStats& g : per_group) accounting.Accumulate(g);
}

}  // namespace

PrimacyCompressor::PrimacyCompressor(PrimacyOptions options)
    : options_(std::move(options)),
      solver_(internal::ResolveSolver(options_.solver)) {
  if (options_.chunk_bytes < ElementWidth(options_.precision)) {
    throw InvalidArgumentError("PrimacyCompressor: chunk_bytes too small");
  }
}

Bytes PrimacyCompressor::Compress(std::span<const double> values,
                                  PrimacyStats* stats) const {
  if (options_.precision != Precision::kDouble) {
    throw InvalidArgumentError(
        "PrimacyCompressor: double input requires Precision::kDouble");
  }
  return CompressBytes(AsBytes(values), stats);
}

Bytes PrimacyCompressor::Compress(std::span<const float> values,
                                  PrimacyStats* stats) const {
  if (options_.precision != Precision::kSingle) {
    throw InvalidArgumentError(
        "PrimacyCompressor: float input requires Precision::kSingle");
  }
  return CompressBytes(AsBytes(values), stats);
}

Bytes PrimacyCompressor::CompressBytes(ByteSpan data,
                                       PrimacyStats* stats) const {
  return CompressBytesImpl(data, /*reuse=*/nullptr, stats);
}

Bytes PrimacyCompressor::CompressBytesWith(ChunkEncoder& encoder,
                                           ByteSpan data,
                                           PrimacyStats* stats) const {
  return CompressBytesImpl(data, &encoder, stats);
}

Bytes PrimacyCompressor::CompressBytesImpl(ByteSpan data, ChunkEncoder* reuse,
                                           PrimacyStats* stats) const {
  telemetry::TraceSpan span("primacy.compress", "bytes",
                            static_cast<std::uint64_t>(data.size()));
  PrimacyStreamWriter writer(nullptr, options_, solver_, reuse, data.size());
  writer.AppendBytes(data);
  PrimacyStats accounting = writer.Finish();
  Bytes out = std::move(writer.out_);

  // Whole-stream stored fallback: adversarial inputs (near-unique high-order
  // pairs) would otherwise pay index metadata with no compression to show
  // for it.
  if (out.size() > data.size() + 64) {
    out = PrimacyStreamWriter::StoredStream(options_, data);
    accounting = PrimacyStats{};
    accounting.input_bytes = data.size();
    accounting.output_bytes = out.size();
  }
  if (stats != nullptr) *stats = accounting;
  return out;
}

PrimacyDecompressor::PrimacyDecompressor(PrimacyOptions options)
    : options_(std::move(options)),
      cache_(options_.block_cache != nullptr ? options_.block_cache
                                             : MakeBlockCache(options_.cache)) {
  RegisterBuiltinCodecs();
}

Bytes PrimacyDecompressor::DecompressBytes(ByteSpan stream,
                                           PrimacyDecodeStats* stats) const {
  telemetry::TraceSpan span("primacy.decompress", "bytes",
                            static_cast<std::uint64_t>(stream.size()));
  PrimacyDecodeStats accounting;
  const internal::OpenedStream s =
      internal::OpenStream(stream, options_.verify_checksums);
  Bytes out;
  if (s.header.stored) {
    out = ToBytes(internal::VerifiedStoredPayload(s));
  } else if (s.header.version == internal::kFormatVersion1) {
    // No directory to plan a span with: the reader's sequential loop.
    PrimacyStreamReader reader(stream, options_.verify_checksums);
    out.reserve(std::min<std::uint64_t>(s.header.total_bytes, 1u << 26));
    while (reader.NextChunk(out)) ++accounting.chunks_decoded;
    accounting.stage.Accumulate(reader.stage_breakdown());
  } else {
    out.resize(static_cast<std::size_t>(s.header.total_bytes));
    const std::size_t element_bytes = out.size() - s.tail.size();
    DecodeChunkSpan(s, 0, s.directory.chunks.size(), 0,
                    MutableByteSpan(out).first(element_bytes), options_,
                    cache_.get(), accounting);
    if (!s.tail.empty()) {
      std::memcpy(out.data() + element_bytes, s.tail.data(), s.tail.size());
    }
  }
  if (stats != nullptr) {
    accounting.output_bytes = out.size();
    *stats = accounting;
  }
  return out;
}

std::vector<double> PrimacyDecompressor::Decompress(
    ByteSpan stream, PrimacyDecodeStats* stats) const {
  const Bytes raw = DecompressBytes(stream, stats);
  if (raw.size() % 8 != 0) {
    throw CorruptStreamError("primacy: stream is not a whole double array");
  }
  return FromBytes<double>(raw);
}

std::vector<float> PrimacyDecompressor::DecompressSingle(
    ByteSpan stream, PrimacyDecodeStats* stats) const {
  const Bytes raw = DecompressBytes(stream, stats);
  if (raw.size() % 4 != 0) {
    throw CorruptStreamError("primacy: stream is not a whole float array");
  }
  return FromBytes<float>(raw);
}

Bytes PrimacyDecompressor::DecompressRangeImpl(ByteSpan stream,
                                               std::uint64_t first_element,
                                               std::uint64_t count,
                                               std::size_t expected_width,
                                               PrimacyDecodeStats* stats) const {
  telemetry::TraceSpan span("primacy.range_read", "elements", count);
  PrimacyDecodeStats accounting;
  const internal::OpenedStream s =
      internal::OpenStream(stream, options_.verify_checksums);
  if (expected_width != 0 && s.header.width != expected_width) {
    throw InvalidArgumentError(
        "primacy: stream element width does not match the requested type");
  }
  const std::uint64_t width = s.header.width;
  const std::uint64_t total_elements = s.elements();
  if (first_element > total_elements ||
      count > total_elements - first_element) {
    throw InvalidArgumentError("primacy: element range out of bounds");
  }
  const auto finish = [&](Bytes result) {
    if (stats != nullptr) {
      accounting.output_bytes = result.size();
      *stats = accounting;
    }
    return result;
  };
  if (count == 0) return finish(Bytes{});
  if (s.header.stored) {
    // Slicing cannot verify the whole-stream checksum without hashing every
    // byte, so a stored range is sliced unverified.
    return finish(ToBytes(
        s.stored.subspan(static_cast<std::size_t>(first_element * width),
                         static_cast<std::size_t>(count * width))));
  }
  if (s.header.version == internal::kFormatVersion1) {
    throw InvalidArgumentError(
        "primacy: DecompressRange requires a v2+ stream with a chunk "
        "directory (v1 streams decode sequentially only)");
  }
  // total_elements >= count > 0, so there is at least one chunk.
  const auto chunk_of = [&](std::uint64_t element) {
    return static_cast<std::size_t>(
        std::upper_bound(s.starts.begin(), s.starts.end(), element) -
        s.starts.begin() - 1);
  };
  Bytes result(static_cast<std::size_t>(count * width));
  DecodeChunkSpan(s, chunk_of(first_element),
                  chunk_of(first_element + count - 1) + 1, first_element,
                  result, options_, cache_.get(), accounting);
  return finish(std::move(result));
}

Bytes PrimacyDecompressor::DecompressBytesRange(
    ByteSpan stream, std::uint64_t first_element, std::uint64_t count,
    PrimacyDecodeStats* stats) const {
  return DecompressRangeImpl(stream, first_element, count, /*expected_width=*/0,
                             stats);
}

std::vector<double> PrimacyDecompressor::DecompressRange(
    ByteSpan stream, std::uint64_t first_element, std::uint64_t count,
    PrimacyDecodeStats* stats) const {
  return FromBytes<double>(
      DecompressRangeImpl(stream, first_element, count, 8, stats));
}

std::vector<float> PrimacyDecompressor::DecompressRangeSingle(
    ByteSpan stream, std::uint64_t first_element, std::uint64_t count,
    PrimacyDecodeStats* stats) const {
  return FromBytes<float>(
      DecompressRangeImpl(stream, first_element, count, 4, stats));
}

StreamVerifyResult VerifyStream(ByteSpan stream) {
  StreamVerifyResult result;
  try {
    ByteReader reader(stream);
    const internal::StreamHeader header = internal::ReadStreamHeader(reader);
    result.version = header.version;
    if (header.version >= internal::kFormatVersion3) {
      // Hash-only pass: every byte before the footer is covered by a
      // checksum, so no decompression is needed.
      result.has_checksums = true;
      const internal::OpenedStream s =
          internal::OpenStream(stream, /*verify_checksums=*/true);
      if (s.header.stored) internal::VerifiedStoredPayload(s);
      for (std::size_t c = 0; c < s.directory.chunks.size(); ++c) {
        internal::VerifyChunkChecksum(s, c);
        ++result.chunks_checked;
      }
    } else if (header.total_bytes == kStreamingTotal) {
      // Streamed v1: sequential structural decode, one chunk resident.
      PrimacyStreamReader stream_reader(stream);
      Bytes sink;
      while (stream_reader.NextChunk(sink)) {
        sink.clear();
        ++result.chunks_checked;
      }
    } else {
      // v1/v2 one-shot: no checksums to hash, so the only integrity signal
      // is a clean full decode.
      PrimacyDecodeStats stats;
      PrimacyDecompressor().DecompressBytes(stream, &stats);
      result.chunks_checked = stats.chunks_decoded;
    }
    result.ok = true;
  } catch (const Error& e) {
    result.error = e.what();
  } catch (const std::exception& e) {
    result.error = e.what();
  }
  return result;
}

PrimacyCodec::PrimacyCodec(PrimacyOptions options)
    : compressor_(options), decompressor_(std::move(options)) {}

Bytes PrimacyCodec::Compress(ByteSpan data) const {
  return compressor_.CompressBytes(data);
}

Bytes PrimacyCodec::Decompress(ByteSpan data) const {
  return decompressor_.DecompressBytes(data);
}

}  // namespace primacy
