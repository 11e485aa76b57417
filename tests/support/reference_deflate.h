// Reference Deflate decoder: the symbol-at-a-time decoder as it stood before
// the table-driven rewrite (one HuffmanDecoder::Decode per symbol, separate
// ReadBits calls for the extra bits, one push_back per output byte), kept
// verbatim as an oracle. DeflateCodec::Decompress in src/deflate must return
// exactly the same bytes, or throw the same exception type, for every input;
// tests/codecs/deflate_decode_identity_test holds it to that.
#pragma once

#include <algorithm>
#include <array>
#include <optional>
#include <vector>

#include "bitstream/bit_io.h"
#include "bitstream/byte_io.h"
#include "huffman/huffman.h"
#include "lz77/lz77.h"
#include "util/error.h"

namespace primacy::reference {
namespace detail {

constexpr std::size_t kNumLengthCodes = 29;
constexpr std::array<std::uint16_t, kNumLengthCodes> kLengthBase = {
    3,  4,  5,  6,  7,  8,  9,  10, 11,  13,  15,  17,  19,  23, 27,
    31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258};
constexpr std::array<std::uint8_t, kNumLengthCodes> kLengthExtra = {
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2,
    2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0};

constexpr std::size_t kNumDistCodes = 30;
constexpr std::array<std::uint32_t, kNumDistCodes> kDistBase = {
    1,    2,    3,    4,    5,    7,     9,     13,    17,   25,
    33,   49,   65,   97,   129,  193,   257,   385,   513,  769,
    1025, 1537, 2049, 3073, 4097, 6145,  8193,  12289, 16385, 24577};
constexpr std::array<std::uint8_t, kNumDistCodes> kDistExtra = {
    0, 0, 0, 0, 1, 1, 2, 2,  3,  3,  4,  4,  5,  5,  6,
    6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13};

constexpr std::size_t kLitLenAlphabet = 256 + kNumLengthCodes;

constexpr std::uint8_t kBlockStored = 0;
constexpr std::uint8_t kBlockHuffman = 1;

}  // namespace detail

/// The pre-rewrite DecompressImpl, verbatim apart from the detail:: names.
inline Bytes DeflateDecompress(ByteSpan data) {
  using namespace detail;
  ByteReader reader(data);
  const std::uint64_t original_size = reader.GetVarint();
  Bytes out;
  out.reserve(std::min<std::uint64_t>(original_size, 1u << 26));
  std::vector<LzToken> tokens;

  while (out.size() < original_size) {
    if (reader.AtEnd()) {
      throw CorruptStreamError("deflate: stream ended before payload");
    }
    const std::uint8_t type = reader.GetU8();
    if (type == kBlockStored) {
      const std::uint64_t count = reader.GetVarint();
      const ByteSpan raw = reader.GetRaw(count);
      AppendBytes(out, raw);
      continue;
    }
    if (type != kBlockHuffman) {
      throw CorruptStreamError("deflate: unknown block type");
    }
    const std::uint64_t token_count = reader.GetVarint();
    const auto litlen_lengths =
        DeserializeCodeLengths(reader.GetBlock(), kLitLenAlphabet);
    const auto dist_lengths =
        DeserializeCodeLengths(reader.GetBlock(), kNumDistCodes);
    const ByteSpan payload = reader.GetBlock();
    // Every token costs at least one bit; a corrupt count must not drive an
    // unbounded decode loop off zero-padded peeks.
    if (token_count > 8 * payload.size()) {
      throw CorruptStreamError("deflate: token count exceeds payload bits");
    }

    const HuffmanDecoder litlen_decoder(litlen_lengths);
    const bool has_dist =
        std::any_of(dist_lengths.begin(), dist_lengths.end(),
                    [](std::uint8_t l) { return l != 0; });
    std::optional<HuffmanDecoder> dist_decoder;
    if (has_dist) dist_decoder.emplace(dist_lengths);

    BitReader bits(payload);
    for (std::uint64_t i = 0; i < token_count; ++i) {
      const std::size_t symbol = litlen_decoder.Decode(bits);
      if (symbol < 256) {
        if (out.size() >= original_size) {
          throw CorruptStreamError("deflate: output overrun");
        }
        out.push_back(static_cast<std::byte>(symbol));
        continue;
      }
      const std::size_t lcode = symbol - 256;
      if (lcode >= kNumLengthCodes) {
        throw CorruptStreamError("deflate: bad length symbol");
      }
      const std::size_t length =
          kLengthBase[lcode] + bits.ReadBits(kLengthExtra[lcode]);
      if (!dist_decoder) {
        throw CorruptStreamError("deflate: match without distance table");
      }
      const std::size_t dcode = dist_decoder->Decode(bits);
      const std::size_t distance =
          kDistBase[dcode] + bits.ReadBits(kDistExtra[dcode]);
      if (distance == 0 || distance > out.size()) {
        throw CorruptStreamError("deflate: distance exceeds output");
      }
      if (out.size() + length > original_size) {
        throw CorruptStreamError("deflate: output overrun");
      }
      const std::size_t src = out.size() - distance;
      for (std::size_t j = 0; j < length; ++j) out.push_back(out[src + j]);
    }
  }
  if (out.size() != original_size) {
    throw CorruptStreamError("deflate: size mismatch");
  }
  return out;
}

}  // namespace primacy::reference
