#include "deflate/deflate.h"

#include <algorithm>
#include <array>
#include <cstring>
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

// Decoding follows the zlib inflate_fast / libdeflate layout. Each Huffman
// block builds one packed table per alphabet: a lookup of the next
// kLitLenTableBits (kDistTableBits) bits yields a literal, or a length
// (distance) base with its extra-bit count, plus the code length. Longer
// codes continue in a subtable linked from the primary entry. A packed
// entry (u32):
//   bits 0-4   bits to consume: the code word still unread plus its extra
//              bits (0: no code word has this window); a link: the
//              primary table's bits
//   bits 8-11  of those, the code word's; a link: its subtable's bits
//   bit  12    a length or distance base (clear: a literal byte)
//   bit  13    a subtable link
//   bits 16-31 the literal byte, the base, or the subtable's offset
constexpr unsigned kLitLenTableBits = 10;
constexpr unsigned kDistTableBits = 8;
constexpr std::uint32_t kEntryBase = 1u << 12;
constexpr std::uint32_t kEntryLink = 1u << 13;

constexpr std::uint32_t PackEntry(std::uint32_t value, std::uint32_t flags,
                                  unsigned code_bits, unsigned bits) {
  return value << 16 | flags | code_bits << 8 | bits;
}

/// A symbol's entry with its code word of `code_bits` added.
constexpr std::uint32_t WithCode(std::uint32_t entry, unsigned code_bits) {
  return entry + (code_bits << 8) + code_bits;
}

/// Each litlen symbol's entry before its code word is known: only its
/// extra bits to consume.
constexpr auto kLitLenEntries = [] {
  std::array<std::uint32_t, kLitLenAlphabet> table{};
  for (std::uint32_t s = 0; s < 256; ++s) table[s] = PackEntry(s, 0, 0, 0);
  for (std::size_t c = 0; c < kNumLengthCodes; ++c) {
    table[256 + c] =
        PackEntry(kLengthBase[c], kEntryBase, 0, kLengthExtra[c]);
  }
  return table;
}();

/// Each distance symbol's entry before its code word is known.
constexpr auto kDistEntries = [] {
  std::array<std::uint32_t, kNumDistCodes> table{};
  for (std::size_t c = 0; c < kNumDistCodes; ++c) {
    table[c] = PackEntry(kDistBase[c], kEntryBase, 0, kDistExtra[c]);
  }
  return table;
}();

/// Output room the fast loop needs per round: two literals, then a 258-byte
/// match copied in 8-byte words, which stores up to 7 bytes past its end.
constexpr std::size_t kFastOutSlack = 2 + kLzMaxMatch + 8;

/// A valid stream holds at most 8 tokens per payload byte and each token
/// yields at most kLzMaxMatch bytes; stored bytes yield one each.
constexpr std::uint64_t kMaxExpansion = 8 * kLzMaxMatch;

/// Builds the packed table of one alphabet's code `lengths`. The lengths come
/// off the wire and are checked as HuffmanDecoder checks them: a length over
/// kMaxHuffmanCodeLength, an empty code (unless `allow_empty`) and an
/// oversubscribed code throw CorruptStreamError. An incomplete code is
/// accepted; its unassigned windows throw when a token lands on them, and
/// an empty distance code leaves every window so.
void BuildDecodeTable(std::span<const std::uint8_t> lengths,
                      std::span<const std::uint32_t> entries,
                      unsigned table_bits, bool allow_empty,
                      std::vector<std::uint32_t>& table) {
  std::array<std::uint32_t, kMaxHuffmanCodeLength + 1> count{};
  unsigned max_length = 0;
  for (const std::uint8_t len : lengths) {
    if (len > kMaxHuffmanCodeLength) {
      throw CorruptStreamError("deflate: code length > max");
    }
    ++count[len];
    max_length = std::max<unsigned>(max_length, len);
  }
  const std::size_t primary = std::size_t{1} << table_bits;
  if (max_length == 0) {
    if (!allow_empty) throw CorruptStreamError("deflate: empty code");
    table.assign(primary, 0);
    return;
  }

  // Canonical codes exactly as HuffmanEncoder assigns them, bit-reversed for
  // the LSB-first reader.
  count[0] = 0;
  std::array<std::uint32_t, kMaxHuffmanCodeLength + 1> next_code{};
  std::uint32_t code = 0;
  for (unsigned len = 1; len <= kMaxHuffmanCodeLength; ++len) {
    code = (code + count[len - 1]) << 1;
    next_code[len] = code;
  }
  std::array<std::uint16_t, kLitLenAlphabet> codes{};
  // Per primary window: bits of the subtable its long codes continue in.
  std::array<std::uint8_t, std::size_t{1} << kLitLenTableBits> link_bits{};
  for (std::size_t symbol = 0; symbol < lengths.size(); ++symbol) {
    const unsigned len = lengths[symbol];
    if (len == 0) continue;
    const std::uint32_t canonical = next_code[len]++;
    if (canonical >= (1u << len)) {
      throw CorruptStreamError("deflate: oversubscribed code lengths");
    }
    std::uint32_t reversed = 0;
    for (unsigned i = 0; i < len; ++i) {
      reversed = (reversed << 1) | ((canonical >> i) & 1u);
    }
    codes[symbol] = static_cast<std::uint16_t>(reversed);
    if (len > table_bits) {
      std::uint8_t& bits = link_bits[reversed & (primary - 1)];
      bits = std::max(bits, static_cast<std::uint8_t>(len - table_bits));
    }
  }

  // Subtables follow the primary table, in window order.
  std::array<std::uint16_t, std::size_t{1} << kLitLenTableBits> link_offset{};
  std::size_t size = primary;
  for (std::size_t w = 0; w < primary; ++w) {
    if (link_bits[w] == 0) continue;
    link_offset[w] = static_cast<std::uint16_t>(size);
    size += std::size_t{1} << link_bits[w];
  }
  table.assign(size, 0);
  for (std::size_t w = 0; w < primary; ++w) {
    if (link_bits[w] == 0) continue;
    table[w] = PackEntry(link_offset[w], kEntryLink, link_bits[w], table_bits);
  }
  for (std::size_t symbol = 0; symbol < lengths.size(); ++symbol) {
    const unsigned len = lengths[symbol];
    if (len == 0) continue;
    if (len <= table_bits) {
      for (std::size_t w = codes[symbol]; w < primary; w += 1u << len) {
        table[w] = WithCode(entries[symbol], len);
      }
      continue;
    }
    const std::size_t link = codes[symbol] & (primary - 1);
    const std::size_t sub_size = std::size_t{1} << link_bits[link];
    for (std::size_t w = codes[symbol] >> table_bits; w < sub_size;
         w += std::size_t{1} << (len - table_bits)) {
      table[link_offset[link] + w] =
          WithCode(entries[symbol], len - table_bits);
    }
  }
}

/// Looks up the code word at the front of `bitbuf` (which holds at least
/// kMaxHuffmanCodeLength bits). A linked code consumes its primary bits
/// here; the returned entry's code bits are the ones still to consume.
inline std::uint32_t Lookup(const std::uint32_t* table, unsigned table_bits,
                            std::uint64_t& bitbuf, unsigned& bitsleft) {
  std::uint32_t entry = table[bitbuf & ((1u << table_bits) - 1)];
  if ((entry & kEntryLink) != 0) [[unlikely]] {
    bitbuf >>= table_bits;
    bitsleft -= table_bits;
    entry = table[(entry >> 16) +
                  (bitbuf & ((1u << ((entry >> 8) & 15)) - 1))];
  }
  if ((entry & 31) == 0) [[unlikely]] {
    throw CorruptStreamError("deflate: invalid code word");
  }
  return entry;
}

/// Consumes `entry`'s code word and extra bits; returns the literal byte,
/// or the base plus the extra bits' value.
inline std::uint32_t Take(std::uint32_t entry, std::uint64_t& bitbuf,
                          unsigned& bitsleft) {
  const unsigned bits = entry & 31;
  const auto extra = static_cast<std::uint32_t>(
      (bitbuf & ((std::uint64_t{1} << bits) - 1)) >> ((entry >> 8) & 15));
  bitbuf >>= bits;
  bitsleft -= bits;
  return (entry >> 16) + extra;
}

/// Stores the 8 bytes at `src` to `dst`, loading them all first.
inline void CopyWord(const std::byte* src, std::byte* dst) {
  std::uint64_t word;
  std::memcpy(&word, src, 8);
  std::memcpy(dst, &word, 8);
}

/// Copies a `length`-byte match from `distance` back to `dst`, which has at
/// least kLzMaxMatch + 8 bytes of room: a fill for distance 1, else whole
/// 8-byte words once the source runs a word behind. A shorter distance is
/// first widened by copying the pattern onto itself, doubling the distance
/// (a multiple of the period) until it is 8 or more.
inline void CopyMatchFast(std::byte* dst, std::size_t distance,
                          std::size_t length) {
  const std::byte* src = dst - distance;
  if (distance == 1) {
    std::memset(dst, static_cast<int>(*src), length);
    return;
  }
  std::byte* const end = dst + length;
  while (dst - src < 8) {
    CopyWord(src, dst);
    dst += dst - src;
  }
  while (dst < end) {
    CopyWord(src, dst);
    src += 8;
    dst += 8;
  }
}

/// Decodes one Huffman block's `token_count` tokens from `payload` into
/// `out`, starting at `pos`. A fast loop runs while 16 input bytes and
/// kFastOutSlack output bytes remain: one 8-byte refill per match or per
/// up to three literals, and word copies into the room ahead. A checked
/// loop finishes the block, feeding zero bits past the payload's end and
/// throwing once a token has read them.
void DecodeHuffmanBlock(ByteSpan payload, std::uint64_t token_count,
                        const std::uint32_t* litlen, const std::uint32_t* dist,
                        MutableByteSpan out, std::size_t& pos) {
  const std::byte* in = payload.data();
  const std::byte* const in_end = in + payload.size();
  std::byte* const out_begin = out.data();
  std::byte* const out_end = out_begin + out.size();
  std::byte* op = out_begin + pos;
  std::uint64_t bitbuf = 0;
  unsigned bitsleft = 0;

  // Bits above `bitsleft` in `bitbuf` are those of the next input bytes, so
  // a refill may OR them in again, and an entry looked up before a refill
  // stays valid after it. A refill leaves at least 56 bits buffered; one
  // match takes at most 15 + 5 + 15 + 13 = 48 and one literal at most 15.
  const auto refill = [&] {
    std::uint64_t word;
    std::memcpy(&word, in, 8);
    bitbuf |= word << bitsleft;
    in += (63 - bitsleft) >> 3;
    bitsleft |= 56;
  };
  // Two refills per round may each advance 7 bytes before loading 8.
  while (token_count != 0 && in_end - in >= 16 &&
         out_end - op >= static_cast<std::ptrdiff_t>(kFastOutSlack)) {
    refill();
    std::uint32_t entry = Lookup(litlen, kLitLenTableBits, bitbuf, bitsleft);
    if ((entry & kEntryBase) == 0) {
      // Up to three literals per refill, then a refill before a match.
      *op++ = static_cast<std::byte>(Take(entry, bitbuf, bitsleft));
      if (--token_count == 0) break;
      entry = Lookup(litlen, kLitLenTableBits, bitbuf, bitsleft);
      if ((entry & kEntryBase) == 0) {
        *op++ = static_cast<std::byte>(Take(entry, bitbuf, bitsleft));
        if (--token_count == 0) break;
        entry = Lookup(litlen, kLitLenTableBits, bitbuf, bitsleft);
        if ((entry & kEntryBase) == 0) {
          *op++ = static_cast<std::byte>(Take(entry, bitbuf, bitsleft));
          --token_count;
          continue;
        }
      }
      refill();
    }
    const std::size_t length = Take(entry, bitbuf, bitsleft);
    entry = Lookup(dist, kDistTableBits, bitbuf, bitsleft);
    const std::size_t distance = Take(entry, bitbuf, bitsleft);
    if (distance > static_cast<std::size_t>(op - out_begin)) {
      throw CorruptStreamError("deflate: distance exceeds output");
    }
    CopyMatchFast(op, distance, length);
    op += length;
    --token_count;
  }

  std::size_t overread = 0;  // zero bytes fed past the payload's end
  for (; token_count != 0; --token_count) {
    while (bitsleft < 56) {
      std::uint64_t byte = 0;
      if (in != in_end) {
        byte = static_cast<std::uint64_t>(*in++);
      } else {
        ++overread;
      }
      bitbuf |= byte << bitsleft;
      bitsleft += 8;
    }
    std::uint32_t entry = Lookup(litlen, kLitLenTableBits, bitbuf, bitsleft);
    if ((entry & kEntryBase) == 0) {
      if (op == out_end) throw CorruptStreamError("deflate: output overrun");
      *op++ = static_cast<std::byte>(Take(entry, bitbuf, bitsleft));
    } else {
      const std::size_t length = Take(entry, bitbuf, bitsleft);
      entry = Lookup(dist, kDistTableBits, bitbuf, bitsleft);
      const std::size_t distance = Take(entry, bitbuf, bitsleft);
      if (distance > static_cast<std::size_t>(op - out_begin)) {
        throw CorruptStreamError("deflate: distance exceeds output");
      }
      if (length > static_cast<std::size_t>(out_end - op)) {
        throw CorruptStreamError("deflate: output overrun");
      }
      for (std::size_t j = 0; j < length; ++j) op[j] = op[j - distance];
      op += length;
    }
    if (8 * overread > bitsleft) {
      throw CorruptStreamError("deflate: token runs past the payload");
    }
  }
  pos = static_cast<std::size_t>(op - out_begin);
}

/// The one decode loop: decodes the blocks after the size varint until
/// `out` is full. Blocks past that point are never read.
void DecodeBlocks(ByteReader& reader, MutableByteSpan out) {
  std::vector<std::uint32_t> litlen_table;
  std::vector<std::uint32_t> dist_table;
  std::size_t pos = 0;
  while (pos < out.size()) {
    if (reader.AtEnd()) {
      throw CorruptStreamError("deflate: stream ended before payload");
    }
    const std::uint8_t type = reader.GetU8();
    if (type == kBlockStored) {
      const std::uint64_t count = reader.GetVarint();
      const ByteSpan raw = reader.GetRaw(count);
      if (count > out.size() - pos) {
        throw CorruptStreamError("deflate: output overrun");
      }
      std::memcpy(out.data() + pos, raw.data(), raw.size());
      pos += raw.size();
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
    // unbounded decode loop off zero-padded bits.
    if (token_count > 8 * payload.size()) {
      throw CorruptStreamError("deflate: token count exceeds payload bits");
    }
    BuildDecodeTable(litlen_lengths, kLitLenEntries, kLitLenTableBits,
                     /*allow_empty=*/false, litlen_table);
    BuildDecodeTable(dist_lengths, kDistEntries, kDistTableBits,
                     /*allow_empty=*/true, dist_table);
    DecodeHuffmanBlock(payload, token_count, litlen_table.data(),
                       dist_table.data(), out, pos);
  }
}

/// Decodes `data` into `out`, whose size must be the declared original size.
void DecompressIntoImpl(ByteSpan data, MutableByteSpan out) {
  ByteReader reader(data);
  if (reader.GetVarint() != out.size()) {
    throw CorruptStreamError("deflate: size mismatch");
  }
  DecodeBlocks(reader, out);
}

/// Reads the declared original size, bounded by what `data` can hold, and
/// decodes into a buffer of that size.
Bytes DecompressImpl(ByteSpan data) {
  ByteReader reader(data);
  const std::uint64_t original_size = reader.GetVarint();
  if (original_size > kMaxExpansion * data.size()) {
    throw CorruptStreamError("deflate: declared size exceeds stream bound");
  }
  Bytes out(static_cast<std::size_t>(original_size));
  DecompressIntoImpl(data, out);
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

void DeflateCodec::DecompressInto(ByteSpan data, MutableByteSpan out) const {
  DecompressIntoImpl(data, out);
}

Bytes DeflateFastCodec::Compress(ByteSpan data) const {
  return CompressImpl(data, LzParams::Fast());
}

Bytes DeflateFastCodec::Decompress(ByteSpan data) const {
  return DecompressImpl(data);
}

void DeflateFastCodec::DecompressInto(ByteSpan data,
                                      MutableByteSpan out) const {
  DecompressIntoImpl(data, out);
}

}  // namespace primacy
