// Deflate-class codec: LZ77 parsing + dynamic canonical Huffman coding of
// literal/length and distance symbols, using deflate's standard extra-bit
// tables. This is the library's zlib stand-in — the byte-level entropy-based
// "solver" the PRIMACY preconditioner targets (paper Sections II-C/II-E).
//
// The container format is our own (not RFC 1950/1951 compatible):
//   varint original_size, then blocks:
//     u8 block_type (0 = stored, 1 = huffman)
//     stored : varint byte_count, raw bytes
//     huffman: varint token_count,
//              block(serialized litlen code lengths),
//              block(serialized distance code lengths),
//              block(bit-packed token stream)
//
// The decoder is table-driven (zlib inflate_fast / libdeflate layout): one
// packed lookup per literal/length and per distance, a 64-bit bit buffer
// refilled once per token, and word-wise match copies into caller memory.
// The format above is the same one the symbol-at-a-time decoder read.
#pragma once

#include "compress/codec.h"
#include "lz77/lz77.h"

namespace primacy {

class DeflateCodec final : public Codec {
 public:
  explicit DeflateCodec(LzParams params = LzParams::Default())
      : params_(params) {}

  std::string_view name() const override { return "deflate"; }
  Bytes Compress(ByteSpan data) const override;
  /// Reads the declared size, bounds it by what the stream can hold,
  /// allocates, and decodes through DecompressInto.
  Bytes Decompress(ByteSpan data) const override;
  void DecompressInto(ByteSpan data, MutableByteSpan out) const override;

 private:
  LzParams params_;
};

/// "deflate-fast": weaker parse, higher throughput (zlib level-1 analogue).
class DeflateFastCodec final : public Codec {
 public:
  std::string_view name() const override { return "deflate-fast"; }
  Bytes Compress(ByteSpan data) const override;
  Bytes Decompress(ByteSpan data) const override;
  void DecompressInto(ByteSpan data, MutableByteSpan out) const override;
};

namespace internal {

/// Deflate length code (0..28, RFC 1951 section 3.2.5) of a match length in
/// [kLzMinMatch, kLzMaxMatch]; 258 has its own code 28.
std::size_t LengthCode(std::size_t length);

/// Deflate distance code (0..29) of a distance in [1, kLzWindowSize], by
/// one lookup in a 512-entry table.
std::size_t DistCode(std::size_t distance);

}  // namespace internal

}  // namespace primacy
