#include "deflate/deflate.h"

#include <gtest/gtest.h>

#include "codec_test_util.h"
#include "util/error.h"
#include "util/stats.h"

namespace primacy {
namespace {

using testing::AllInputGenerators;

TEST(DeflateTest, CompressesRepeatedPhrasesWell) {
  const DeflateCodec codec;
  const Bytes input = AllInputGenerators()[4].make(200000, 1);
  const Bytes compressed = codec.Compress(input);
  // Heavily repetitive text: at least 5x.
  EXPECT_LT(compressed.size(), input.size() / 5);
}

TEST(DeflateTest, CompressesSkewedBytesNearEntropy) {
  const DeflateCodec codec;
  const Bytes input = AllInputGenerators()[3].make(200000, 2);
  const double entropy = ByteEntropyBits(input);
  const Bytes compressed = codec.Compress(input);
  const double bits_per_byte =
      8.0 * static_cast<double>(compressed.size()) /
      static_cast<double>(input.size());
  // Within 15% of the order-0 entropy (LZ matches can beat it).
  EXPECT_LT(bits_per_byte, entropy * 1.15 + 0.2);
}

TEST(DeflateTest, RandomDataFallsBackToStored) {
  const DeflateCodec codec;
  const Bytes input = AllInputGenerators()[2].make(100000, 3);
  const Bytes compressed = codec.Compress(input);
  EXPECT_LE(compressed.size(), input.size() + 16);
  EXPECT_EQ(codec.Decompress(compressed), input);
}

TEST(DeflateTest, FastPresetIsFasterButNoSmaller) {
  const DeflateCodec standard;
  const DeflateFastCodec fast;
  const Bytes input = AllInputGenerators()[4].make(500000, 4);
  const Bytes small = standard.Compress(input);
  const Bytes quick = fast.Compress(input);
  // The thorough parse should essentially never lose to the fast one; allow
  // a 2% slack since lazy matching is a heuristic, not a guarantee.
  EXPECT_LE(small.size(), quick.size() + quick.size() / 50);
  EXPECT_EQ(fast.Decompress(quick), input);
}

TEST(DeflateTest, MultiBlockStreamsRoundTrip) {
  // Force multiple Huffman blocks (> 2^16 tokens of mostly literals).
  const Bytes input = AllInputGenerators()[2].make(300000, 5);
  const DeflateCodec codec;
  EXPECT_EQ(codec.Decompress(codec.Compress(input)), input);
}

TEST(DeflateTest, StatisticsShiftAcrossBlocksHandled) {
  // First half noise, second half zeros: per-block codes must adapt.
  Bytes input = AllInputGenerators()[2].make(150000, 6);
  AppendBytes(input, Bytes(150000, 0_b));
  const DeflateCodec codec;
  const Bytes compressed = codec.Compress(input);
  EXPECT_EQ(codec.Decompress(compressed), input);
  // The zero half must compress to almost nothing.
  EXPECT_LT(compressed.size(), 160000u);
}

TEST(DeflateTest, BadBlockTypeRejected) {
  const DeflateCodec codec;
  Bytes stream;
  stream.push_back(5_b);   // varint original_size = 5
  stream.push_back(9_b);   // invalid block type
  EXPECT_THROW(codec.Decompress(stream), CorruptStreamError);
}

TEST(DeflateTest, DistanceBeyondOutputRejected) {
  // Hand-craft: original size 4 but the first token is a match — no output
  // yet, so any distance is invalid. Easiest via corrupting a real stream is
  // flaky; instead check the empty-output+match path through a stored-size
  // lie: declared size smaller than actual expansion.
  const DeflateCodec codec;
  const Bytes input(1000, 1_b);
  Bytes compressed = codec.Compress(input);
  // Shrink the declared original size (first varint byte(s)).
  // 1000 encodes as 0xE8 0x07; rewrite to 10 (0x0A) and pad to keep parsing.
  ASSERT_EQ(static_cast<unsigned>(compressed[0]), 0xE8u);
  ASSERT_EQ(static_cast<unsigned>(compressed[1]), 0x07u);
  Bytes lied;
  lied.push_back(0x0a_b);
  AppendBytes(lied, ByteSpan(compressed).subspan(2));
  EXPECT_THROW(codec.Decompress(lied), CorruptStreamError);
}

TEST(DeflateTest, EmptyInputProducesDecodableStream) {
  const DeflateCodec codec;
  const Bytes compressed = codec.Compress({});
  EXPECT_LE(compressed.size(), 2u);
  EXPECT_TRUE(codec.Decompress(compressed).empty());
}

// RFC 1951 section 3.2.5, written out independently of the encoder's tables.
constexpr std::uint32_t kRfcLengthBase[] = {
    3,  4,  5,  6,  7,  8,  9,  10, 11,  13,  15,  17,  19,  23, 27,
    31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258};
constexpr std::uint32_t kRfcLengthExtra[] = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1,
                                             1, 1, 2, 2, 2, 2, 3, 3, 3, 3,
                                             4, 4, 4, 4, 5, 5, 5, 5, 0};
constexpr std::uint32_t kRfcDistBase[] = {
    1,    2,    3,    4,    5,    7,    9,    13,    17,    25,
    33,   49,   65,   97,   129,  193,  257,  385,   513,   769,
    1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577};
constexpr std::uint32_t kRfcDistExtra[] = {0, 0, 0,  0,  1,  1,  2,  2,
                                           3, 3, 4,  4,  5,  5,  6,  6,
                                           7, 7, 8,  8,  9,  9,  10, 10,
                                           11, 11, 12, 12, 13, 13};

TEST(DeflateCodeTable, EveryLengthFallsInItsCodeRange) {
  for (std::size_t length = kLzMinMatch; length <= kLzMaxMatch; ++length) {
    const std::size_t code = internal::LengthCode(length);
    ASSERT_LT(code, std::size(kRfcLengthBase)) << "length " << length;
    EXPECT_LE(kRfcLengthBase[code], length) << "length " << length;
    EXPECT_LT(length, kRfcLengthBase[code] + (1u << kRfcLengthExtra[code]))
        << "length " << length;
  }
  // Code 27's extra bits could spell 258, but 258 has its own code.
  EXPECT_EQ(internal::LengthCode(kLzMaxMatch), 28u);
}

TEST(DeflateCodeTable, EveryDistanceFallsInItsCodeRange) {
  for (std::size_t distance = 1; distance <= kLzWindowSize; ++distance) {
    const std::size_t code = internal::DistCode(distance);
    ASSERT_LT(code, std::size(kRfcDistBase)) << "distance " << distance;
    EXPECT_LE(kRfcDistBase[code], distance) << "distance " << distance;
    EXPECT_LT(distance, kRfcDistBase[code] + (1u << kRfcDistExtra[code]))
        << "distance " << distance;
  }
}

}  // namespace
}  // namespace primacy
