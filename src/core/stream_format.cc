#include "core/stream_format.h"

#include "compress/registry.h"
#include "core/builtin_codecs.h"
#include "core/chunk_pipeline.h"
#include "core/streaming.h"
#include "util/checksum.h"
#include "util/error.h"
#include "util/timer.h"

namespace primacy::internal {
namespace {
constexpr std::uint32_t kMagic = 0x31595250;            // "PRY1"
constexpr std::uint32_t kDirectoryMagicV2 = 0x32445250;  // "PRD2"
constexpr std::uint32_t kDirectoryMagicV3 = 0x33445250;  // "PRD3"
constexpr std::size_t kFooterBytesV2 = 12;
constexpr std::size_t kFooterBytesV3 = 20;

std::size_t FooterBytes(std::uint8_t version) {
  return version >= kFormatVersion3 ? kFooterBytesV3 : kFooterBytesV2;
}
}  // namespace

void WriteStreamHeader(Bytes& out, const PrimacyOptions& options,
                       std::uint64_t total_bytes, bool stored,
                       std::uint8_t version) {
  PutU32(out, kMagic);
  PutU8(out, version);
  std::uint8_t flags =
      options.linearization == Linearization::kColumn ? 1 : 0;
  if (stored) flags |= 2;
  PutU8(out, flags);
  PutU8(out, static_cast<std::uint8_t>(ElementWidth(options.precision)));
  PutBlock(out, BytesFromString(options.solver));
  PutVarint(out, total_bytes);
}

StreamHeader ReadStreamHeader(ByteReader& reader) {
  if (reader.GetU32() != kMagic) {
    throw CorruptStreamError("primacy: bad magic");
  }
  const std::uint8_t version = reader.GetU8();
  if (version < kFormatVersion1 || version > kFormatVersion3) {
    throw CorruptStreamError("primacy: unsupported version");
  }
  const std::uint8_t flags = reader.GetU8();
  if (flags > 3) {
    throw CorruptStreamError("primacy: bad header flags");
  }
  StreamHeader header;
  header.version = version;
  header.linearization =
      (flags & 1) != 0 ? Linearization::kColumn : Linearization::kRow;
  header.stored = (flags & 2) != 0;
  const std::uint8_t width = reader.GetU8();
  if (width != 4 && width != 8) {
    throw CorruptStreamError("primacy: unsupported element width");
  }
  header.width = width;
  header.solver_name = StringFromBytes(reader.GetBlock());
  RegisterBuiltinCodecs();
  if (!CodecRegistry::Global().Contains(header.solver_name)) {
    throw CorruptStreamError("primacy: unknown solver " + header.solver_name);
  }
  header.total_bytes = reader.GetVarint();
  return header;
}

void AppendChunkDirectory(Bytes& out, const ChunkDirectory& directory,
                          std::uint8_t version) {
  const bool checksums = version >= kFormatVersion3;
  Bytes payload;
  PutVarint(payload, directory.chunks.size());
  std::uint64_t prev_offset = 0;
  for (const ChunkDirectoryEntry& entry : directory.chunks) {
    PutVarint(payload, entry.offset - prev_offset);
    PutVarint(payload, entry.elements);
    PutU8(payload, entry.index_flag);
    if (checksums) PutU64(payload, entry.checksum);
    prev_offset = entry.offset;
  }
  PutVarint(payload, directory.tail_offset - prev_offset);
  if (checksums) PutU64(payload, directory.header_tail_checksum);
  AppendBytes(out, payload);
  if (checksums) {
    PutU64(out, Xxh64(payload));
  }
  PutU32(out, static_cast<std::uint32_t>(payload.size()));
  PutU32(out, static_cast<std::uint32_t>(directory.chunks.size()));
  PutU32(out, checksums ? kDirectoryMagicV3 : kDirectoryMagicV2);
}

ChunkDirectory ReadChunkDirectory(ByteSpan stream, std::size_t chunks_begin,
                                  std::uint8_t version) {
  const bool checksums = version >= kFormatVersion3;
  const std::size_t footer_bytes = FooterBytes(version);
  if (stream.size() < chunks_begin + footer_bytes) {
    throw CorruptStreamError("primacy: stream too small for a directory");
  }
  ByteReader footer(stream.subspan(stream.size() - footer_bytes));
  const std::uint64_t directory_checksum = checksums ? footer.GetU64() : 0;
  const std::uint32_t payload_bytes = footer.GetU32();
  const std::uint32_t footer_count = footer.GetU32();
  if (footer.GetU32() !=
      (checksums ? kDirectoryMagicV3 : kDirectoryMagicV2)) {
    throw CorruptStreamError("primacy: bad directory magic");
  }
  if (payload_bytes > stream.size() - chunks_begin - footer_bytes) {
    throw CorruptStreamError("primacy: directory size out of range");
  }
  const std::size_t directory_begin =
      stream.size() - footer_bytes - payload_bytes;
  const ByteSpan payload = stream.subspan(directory_begin, payload_bytes);
  if (checksums && Xxh64(payload) != directory_checksum) {
    throw CorruptStreamError("primacy: directory checksum mismatch");
  }
  ByteReader reader(payload);
  const std::uint64_t count = reader.GetVarint();
  if (count != footer_count) {
    throw CorruptStreamError("primacy: directory chunk count mismatch");
  }
  ChunkDirectory directory;
  directory.has_checksums = checksums;
  directory.chunks.reserve(count);
  std::uint64_t prev_offset = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    ChunkDirectoryEntry entry;
    const std::uint64_t delta = reader.GetVarint();
    // Overflow-safe: every record offset must land inside
    // [chunks_begin, directory_begin), so the delta may never exceed the
    // room left before the directory.
    if (delta > directory_begin - prev_offset) {
      throw CorruptStreamError("primacy: directory offset out of range");
    }
    entry.offset = prev_offset + delta;
    entry.elements = reader.GetVarint();
    entry.index_flag = reader.GetU8();
    if (checksums) entry.checksum = reader.GetU64();
    if (i == 0) {
      if (entry.offset != chunks_begin) {
        throw CorruptStreamError("primacy: directory first offset mismatch");
      }
    } else if (delta == 0) {
      throw CorruptStreamError("primacy: directory offsets not increasing");
    }
    if (entry.elements == 0) {
      throw CorruptStreamError("primacy: directory chunk with zero elements");
    }
    if (entry.index_flag > 2) {
      throw CorruptStreamError("primacy: bad directory index flag");
    }
    prev_offset = entry.offset;
    directory.chunks.push_back(entry);
  }
  const std::uint64_t tail_delta = reader.GetVarint();
  if (tail_delta > directory_begin - prev_offset) {
    throw CorruptStreamError("primacy: directory tail offset out of range");
  }
  directory.tail_offset = prev_offset + tail_delta;
  directory.directory_offset = directory_begin;
  if (checksums) directory.header_tail_checksum = reader.GetU64();
  if (!directory.chunks.empty() && directory.chunks.front().index_flag != 1) {
    throw CorruptStreamError("primacy: first chunk lacks a full index");
  }
  if (!directory.chunks.empty() && directory.tail_offset <= prev_offset) {
    throw CorruptStreamError("primacy: directory tail offset out of range");
  }
  if (directory.tail_offset > directory_begin ||
      directory.tail_offset < chunks_begin) {
    throw CorruptStreamError("primacy: directory tail offset out of range");
  }
  if (!reader.AtEnd()) {
    throw CorruptStreamError("primacy: trailing directory bytes");
  }
  return directory;
}

std::uint64_t ComputeHeaderTailChecksum(ByteSpan stream,
                                        const ChunkDirectory& directory,
                                        std::size_t chunks_begin) {
  Xxh64State state;
  state.Update(stream.first(chunks_begin));
  state.Update(stream.subspan(
      static_cast<std::size_t>(directory.tail_offset),
      static_cast<std::size_t>(directory.directory_offset -
                               directory.tail_offset)));
  return state.Digest();
}

OpenedStream OpenStream(ByteSpan stream, bool verify_checksums) {
  OpenedStream s;
  s.bytes = stream;
  ByteReader reader(stream);
  s.header = ReadStreamHeader(reader);
  // A streamed header carries the sentinel instead of the total; only v3
  // derives the total from its directory and tail block.
  const bool streamed = s.header.total_bytes == kStreamingTotal;
  if (streamed &&
      (s.header.version < kFormatVersion3 || s.header.stored)) {
    throw CorruptStreamError(
        "primacy: streamed pre-v3 stream; use PrimacyStreamReader");
  }
  s.chunks_begin = reader.Offset();
  if (s.header.stored) {
    s.stored = reader.GetBlock();
    if (s.stored.size() != s.header.total_bytes) {
      throw CorruptStreamError("primacy: stored payload size mismatch");
    }
    if (s.header.version >= kFormatVersion3) {
      s.stored_end = reader.Offset();
      s.stored_checksum = reader.GetU64();
      s.verify = verify_checksums;
    }
    return s;
  }
  if (s.header.version < kFormatVersion2) return s;

  s.directory = ReadChunkDirectory(stream, s.chunks_begin, s.header.version);
  s.verify = verify_checksums && s.directory.has_checksums;
  // The header and tail block are small; verifying them up front keeps every
  // byte a range read depends on covered without hashing untouched records.
  if (s.verify && ComputeHeaderTailChecksum(stream, s.directory,
                                            s.chunks_begin) !=
                      s.directory.header_tail_checksum) {
    throw CorruptStreamError("primacy: header/tail checksum mismatch");
  }
  // Streamed: the most elements whose bytes still fit in 64 bits.
  const std::uint64_t total_elements =
      streamed ? kStreamingTotal / s.header.width : s.elements();
  s.starts.resize(s.directory.chunks.size());
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < s.directory.chunks.size(); ++i) {
    s.starts[i] = sum;
    // Overflow-safe running total: a tampered entry may not push the sum
    // past the element count (the wrapped sum could otherwise land back on
    // the expected total and drive out-of-bounds output slices).
    if (s.directory.chunks[i].elements > total_elements - sum) {
      throw CorruptStreamError("primacy: directory element total mismatch");
    }
    sum += s.directory.chunks[i].elements;
  }
  if (!streamed && sum != total_elements) {
    throw CorruptStreamError("primacy: directory element total mismatch");
  }
  // The tail block sits between the last chunk record and the directory.
  ByteReader tail(stream.subspan(
      static_cast<std::size_t>(s.directory.tail_offset),
      static_cast<std::size_t>(s.directory.directory_offset -
                               s.directory.tail_offset)));
  s.tail = tail.GetBlock();
  if (!tail.AtEnd()) {
    throw CorruptStreamError("primacy: bytes between tail and directory");
  }
  if (streamed) {
    // The derived total must fit, and must not collide with the sentinel.
    if (s.tail.size() >= kStreamingTotal - sum * s.header.width) {
      throw CorruptStreamError("primacy: streamed total out of range");
    }
    s.header.total_bytes = sum * s.header.width + s.tail.size();
  }
  if (sum * s.header.width + s.tail.size() != s.header.total_bytes) {
    throw CorruptStreamError("primacy: tail size mismatch");
  }
  return s;
}

ByteSpan VerifiedStoredPayload(const OpenedStream& stream) {
  // v3 stored streams end with an XXH64 of every preceding byte.
  if (stream.verify &&
      Xxh64(stream.bytes.first(stream.stored_end)) != stream.stored_checksum) {
    throw CorruptStreamError("primacy: stored stream checksum mismatch");
  }
  return stream.stored;
}

ByteSpan RecordSpan(const OpenedStream& stream, std::size_t c) {
  const ChunkDirectory& directory = stream.directory;
  const std::uint64_t begin = directory.chunks[c].offset;
  const std::uint64_t end = c + 1 < directory.chunks.size()
                                ? directory.chunks[c + 1].offset
                                : directory.tail_offset;
  return stream.bytes.subspan(static_cast<std::size_t>(begin),
                              static_cast<std::size_t>(end - begin));
}

[[noreturn]] void ThrowChunkError(std::size_t chunk, std::uint64_t offset,
                                  const std::string& what) {
  throw CorruptStreamError("primacy: chunk " + std::to_string(chunk) +
                           " (record at byte " + std::to_string(offset) +
                           "): " + what);
}

bool VerifyChunkChecksum(const OpenedStream& stream, std::size_t c) {
  if (!stream.verify) return false;
  const ChunkDirectoryEntry& entry = stream.directory.chunks[c];
  if (Xxh64(RecordSpan(stream, c)) != entry.checksum) {
    ThrowChunkError(c, entry.offset, "checksum mismatch");
  }
  return true;
}

bool DecodeDirectoryChunk(const OpenedStream& stream, std::size_t c,
                          ChunkDecoder& decoder, MutableByteSpan out) {
  const ChunkDirectoryEntry& entry = stream.directory.chunks[c];
  bool verified = false;
  if constexpr (telemetry::kEnabled) {
    const WallTimer checksum_timer;
    verified = VerifyChunkChecksum(stream, c);
    if (verified) {
      decoder.AddStageNs(telemetry::Stage::kChecksum,
                         checksum_timer.ElapsedNs());
    }
  } else {
    verified = VerifyChunkChecksum(stream, c);
  }
  try {
    ByteReader reader(RecordSpan(stream, c));
    const std::uint64_t count = reader.GetVarint();
    if (count != entry.elements) {
      throw CorruptStreamError("primacy: directory element count mismatch");
    }
    decoder.DecodeChunkInto(reader, count, out);
  } catch (const InternalError&) {
    throw;  // library invariant failure, not stream damage — keep the type
  } catch (const Error& e) {
    ThrowChunkError(c, entry.offset, e.what());
  }
  return verified;
}

std::shared_ptr<const Codec> ResolveSolver(const std::string& name) {
  RegisterBuiltinCodecs();
  return std::shared_ptr<const Codec>(CreateCodec(name));
}

}  // namespace primacy::internal
