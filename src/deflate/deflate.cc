#include "deflate/deflate.h"

#include <algorithm>
#include <array>
#include <optional>
#include <vector>

#include "bitstream/bit_io.h"
#include "bitstream/byte_io.h"
#include "huffman/huffman.h"
#include "util/error.h"

namespace primacy {
namespace {

// Deflate's standard length/distance code tables (RFC 1951 section 3.2.5).
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

// Literal/length alphabet: 256 literals + 29 length codes.
constexpr std::size_t kLitLenAlphabet = 256 + kNumLengthCodes;

constexpr std::uint8_t kBlockStored = 0;
constexpr std::uint8_t kBlockHuffman = 1;

/// Tokens per Huffman block: large enough to amortize table headers, small
/// enough that statistics stay locally adaptive.
constexpr std::size_t kTokensPerBlock = 1u << 16;

/// Length -> length code, for lengths in [kLzMinMatch, kLzMaxMatch].
constexpr auto kLengthCode = [] {
  std::array<std::uint8_t, kLzMaxMatch + 1> table{};
  std::size_t code = 0;
  for (std::size_t len = kLzMinMatch; len <= kLzMaxMatch; ++len) {
    while (code + 1 < kNumLengthCodes && len >= kLengthBase[code + 1]) ++code;
    table[len] = static_cast<std::uint8_t>(code);
  }
  return table;
}();

/// Index of `distance` in kDistCode (zlib's _dist_code layout): distances up
/// to 256 index it directly; above 256 every code base is 128k + 1, so
/// (distance - 1) >> 7 names one code.
constexpr std::size_t DistCodeIndex(std::size_t distance) {
  return distance <= 256 ? distance - 1 : 256 + ((distance - 1) >> 7);
}

/// Distance -> distance code, indexed through DistCodeIndex.
constexpr auto kDistCode = [] {
  std::array<std::uint8_t, 512> table{};
  for (std::size_t code = 0; code < kNumDistCodes; ++code) {
    const std::size_t end =
        kDistBase[code] + (std::size_t{1} << kDistExtra[code]);
    for (std::size_t d = kDistBase[code]; d < end; ++d) {
      table[DistCodeIndex(d)] = static_cast<std::uint8_t>(code);
    }
  }
  return table;
}();

void EncodeBlock(Bytes& out, std::span<const LzToken> tokens) {
  // Gather symbol statistics.
  std::vector<std::uint64_t> litlen_freq(kLitLenAlphabet, 0);
  std::vector<std::uint64_t> dist_freq(kNumDistCodes, 0);
  for (const LzToken& token : tokens) {
    if (token.IsLiteral()) {
      ++litlen_freq[token.literal];
    } else {
      ++litlen_freq[256 + internal::LengthCode(token.length)];
      ++dist_freq[internal::DistCode(token.distance)];
    }
  }

  const auto litlen_lengths = BuildCodeLengths(litlen_freq);
  const auto dist_lengths = BuildCodeLengths(dist_freq);
  const HuffmanEncoder litlen_encoder(litlen_lengths);

  BitWriter writer;
  const bool has_dist =
      std::any_of(dist_freq.begin(), dist_freq.end(),
                  [](std::uint64_t f) { return f != 0; });
  // A distance encoder only exists when the block contains matches.
  std::optional<HuffmanEncoder> dist_encoder;
  if (has_dist) dist_encoder.emplace(dist_lengths);

  for (const LzToken& token : tokens) {
    if (token.IsLiteral()) {
      litlen_encoder.Encode(writer, token.literal);
      continue;
    }
    const std::size_t lcode = internal::LengthCode(token.length);
    litlen_encoder.Encode(writer, 256 + lcode);
    writer.WriteBits(token.length - kLengthBase[lcode], kLengthExtra[lcode]);
    const std::size_t dcode = internal::DistCode(token.distance);
    dist_encoder->Encode(writer, dcode);
    writer.WriteBits(token.distance - kDistBase[dcode], kDistExtra[dcode]);
  }

  PutU8(out, kBlockHuffman);
  PutVarint(out, tokens.size());
  PutBlock(out, SerializeCodeLengths(litlen_lengths));
  PutBlock(out, SerializeCodeLengths(dist_lengths));
  PutBlock(out, writer.Finish());
}

Bytes CompressImpl(ByteSpan data, const LzParams& params) {
  Bytes out;
  PutVarint(out, data.size());
  if (data.empty()) return out;

  const std::vector<LzToken> tokens = LzParse(data, params);
  for (std::size_t begin = 0; begin < tokens.size();
       begin += kTokensPerBlock) {
    const std::size_t count =
        std::min(kTokensPerBlock, tokens.size() - begin);
    EncodeBlock(out, std::span(tokens).subspan(begin, count));
  }

  // Whole-stream stored fallback: never expand beyond input + small header.
  if (out.size() > data.size() + 16) {
    Bytes stored;
    PutVarint(stored, data.size());
    PutU8(stored, kBlockStored);
    PutVarint(stored, data.size());
    AppendBytes(stored, data);
    return stored;
  }
  return out;
}

Bytes DecompressImpl(ByteSpan data) {
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

}  // namespace

namespace internal {

std::size_t LengthCode(std::size_t length) {
  PRIMACY_CHECK(length >= kLzMinMatch && length <= kLzMaxMatch);
  return kLengthCode[length];
}

std::size_t DistCode(std::size_t distance) {
  PRIMACY_CHECK(distance >= 1 && distance <= kLzWindowSize);
  return kDistCode[DistCodeIndex(distance)];
}

}  // namespace internal

Bytes DeflateCodec::Compress(ByteSpan data) const {
  return CompressImpl(data, params_);
}

Bytes DeflateCodec::Decompress(ByteSpan data) const {
  return DecompressImpl(data);
}

Bytes DeflateFastCodec::Compress(ByteSpan data) const {
  return CompressImpl(data, LzParams::Fast());
}

Bytes DeflateFastCodec::Decompress(ByteSpan data) const {
  return DecompressImpl(data);
}

}  // namespace primacy
