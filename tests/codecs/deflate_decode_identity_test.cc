// DeflateCodec's table-driven decoder must return exactly the bytes of the
// reference decoder (tests/support/reference_deflate.h), or throw the same
// exception type, for every input: encoder output, the golden corpus's
// Deflate streams, hand-built streams that steer tokens through the fast
// loop's edges, and damaged streams. DecompressInto is held to the same
// answers.
#include <gtest/gtest.h>

#include <fstream>
#include <initializer_list>
#include <optional>
#include <string>
#include <typeinfo>
#include <vector>

#include "bitstream/bit_io.h"
#include "bitstream/byte_io.h"
#include "codec_test_util.h"
#include "core/chunk_pipeline.h"
#include "core/stream_format.h"
#include "deflate/deflate.h"
#include "huffman/huffman.h"
#include "support/reference_deflate.h"
#include "util/error.h"
#include "util/rng.h"

namespace primacy {
namespace {

namespace ref = reference::detail;
using Sizes = std::initializer_list<std::size_t>;

struct Outcome {
  bool ok = false;
  Bytes bytes;
  std::string error;  // exception type when !ok
};

template <typename Decode>
Outcome Run(Decode&& decode) {
  try {
    return Outcome{true, decode(), ""};
  } catch (const std::exception& e) {
    return Outcome{false, {}, typeid(e).name()};
  }
}

/// The stream's declared size, or nothing when the varint does not parse.
std::optional<std::uint64_t> DeclaredSize(ByteSpan stream) {
  try {
    ByteReader reader(stream);
    return reader.GetVarint();
  } catch (const CorruptStreamError&) {
    return std::nullopt;
  }
}

/// Decompress and DecompressInto agree with the oracle on `stream`.
/// Returns false (after one failure) so callers sweeping many streams stop
/// at the first difference.
bool ExpectSameDecode(ByteSpan stream, const std::string& label) {
  const DeflateCodec codec;
  const Outcome want =
      Run([&] { return reference::DeflateDecompress(stream); });
  const Outcome got = Run([&] { return codec.Decompress(stream); });
  if (got.ok != want.ok || got.error != want.error || got.bytes != want.bytes) {
    ADD_FAILURE() << label << ": Decompress "
                  << (got.ok ? "returned " + std::to_string(got.bytes.size()) +
                                   " bytes"
                             : "threw " + got.error)
                  << ", oracle "
                  << (want.ok ? "returned " +
                                    std::to_string(want.bytes.size()) + " bytes"
                              : "threw " + want.error);
    return false;
  }
  // Into a buffer of the declared size (when that is small enough to try),
  // prefilled so a byte the decoder forgets to write shows.
  const std::optional<std::uint64_t> declared = DeclaredSize(stream);
  if (!declared.has_value() || *declared > (std::uint64_t{1} << 22)) {
    return true;
  }
  const Outcome into = Run([&] {
    Bytes out(static_cast<std::size_t>(*declared), std::byte{0xcd});
    codec.DecompressInto(stream, out);
    return out;
  });
  if (into.ok != want.ok || into.error != want.error ||
      into.bytes != want.bytes) {
    ADD_FAILURE() << label << ": DecompressInto "
                  << (into.ok ? "returned" : "threw " + into.error)
                  << ", oracle "
                  << (want.ok ? "returned" : "threw " + want.error);
    return false;
  }
  // A buffer of any other size is a size mismatch, never a decode.
  Bytes wrong(static_cast<std::size_t>(*declared) + 1);
  EXPECT_THROW(codec.DecompressInto(stream, wrong), CorruptStreamError)
      << label;
  return true;
}

// ---------------------------------------------------------------------------
// Hand-built streams.

/// One token of a hand-built block: a literal byte, or a match.
struct Token {
  std::uint32_t literal = 0;
  std::uint32_t length = 0;  // 0: literal
  std::uint32_t distance = 0;
};

Token Lit(std::uint32_t byte) { return Token{byte, 0, 0}; }
Token Match(std::uint32_t length, std::uint32_t distance) {
  return Token{0, length, distance};
}

/// Code lengths every symbol can use: a complete code over the whole
/// alphabet (lengths 8 and 9 for litlen, 5 for distances).
std::vector<std::uint8_t> FlatLengths(std::size_t alphabet) {
  return BuildCodeLengths(std::vector<std::uint64_t>(alphabet, 1));
}

/// A complete code with one symbol at each length 1..14 and two at 15:
/// `symbols` lists the 16 symbols in that order.
std::vector<std::uint8_t> DeepLengths(std::size_t alphabet,
                                      const std::vector<std::size_t>& symbols) {
  std::vector<std::uint8_t> lengths(alphabet, 0);
  for (std::size_t i = 0; i < 14; ++i) {
    lengths[symbols[i]] = static_cast<std::uint8_t>(i + 1);
  }
  lengths[symbols[14]] = 15;
  lengths[symbols[15]] = 15;
  return lengths;
}

/// Appends one Huffman block of `tokens` under the given code lengths;
/// `declared_tokens` overrides the token count written in its header.
void AppendHuffmanBlock(Bytes& out, const std::vector<Token>& tokens,
                        const std::vector<std::uint8_t>& litlen_lengths,
                        const std::vector<std::uint8_t>& dist_lengths,
                        std::optional<std::uint64_t> declared_tokens = {}) {
  const HuffmanEncoder litlen(litlen_lengths);
  std::optional<HuffmanEncoder> dist;
  for (const std::uint8_t len : dist_lengths) {
    if (len != 0) {
      dist.emplace(dist_lengths);
      break;
    }
  }
  BitWriter bits;
  for (const Token& t : tokens) {
    if (t.length == 0) {
      litlen.Encode(bits, t.literal);
      continue;
    }
    const std::size_t lcode = internal::LengthCode(t.length);
    litlen.Encode(bits, 256 + lcode);
    bits.WriteBits(t.length - ref::kLengthBase[lcode],
                   ref::kLengthExtra[lcode]);
    const std::size_t dcode = internal::DistCode(t.distance);
    dist->Encode(bits, dcode);
    bits.WriteBits(t.distance - ref::kDistBase[dcode], ref::kDistExtra[dcode]);
  }
  PutU8(out, ref::kBlockHuffman);
  PutVarint(out, declared_tokens.value_or(tokens.size()));
  PutBlock(out, SerializeCodeLengths(litlen_lengths));
  PutBlock(out, SerializeCodeLengths(dist_lengths));
  PutBlock(out, bits.Finish());
}

std::size_t OutputSize(const std::vector<Token>& tokens) {
  std::size_t size = 0;
  for (const Token& t : tokens) size += t.length == 0 ? 1 : t.length;
  return size;
}

/// A one-block stream of `tokens` under flat codes.
Bytes FlatStream(const std::vector<Token>& tokens) {
  Bytes out;
  PutVarint(out, OutputSize(tokens));
  AppendHuffmanBlock(out, tokens, FlatLengths(ref::kLitLenAlphabet),
                     FlatLengths(ref::kNumDistCodes));
  return out;
}

std::vector<Token> Literals(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Token> tokens;
  for (std::size_t i = 0; i < n; ++i) {
    tokens.push_back(Lit(static_cast<std::uint32_t>(rng.NextBelow(256))));
  }
  return tokens;
}

// ---------------------------------------------------------------------------
// Golden corpus: the Deflate streams inside the committed PRIMACY streams.

/// The "deflate" solver, keeping a copy of every stream it decodes.
class RecordingDeflate final : public Codec {
 public:
  std::string_view name() const override { return "deflate"; }
  Bytes Compress(ByteSpan data) const override { return inner_.Compress(data); }
  Bytes Decompress(ByteSpan data) const override {
    seen.push_back(ToBytes(data));
    return inner_.Decompress(data);
  }
  void DecompressInto(ByteSpan data, MutableByteSpan out) const override {
    seen.push_back(ToBytes(data));
    inner_.DecompressInto(data, out);
  }

  mutable std::vector<Bytes> seen;

 private:
  DeflateCodec inner_;
};

Bytes ReadGolden(const std::string& name) {
  const std::string path = std::string(PRIMACY_GOLDEN_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "missing golden file " << path;
  const std::string raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  return BytesFromString(raw);
}

/// Every Deflate stream a full decode of golden stream `file` hands the
/// solver.
std::vector<Bytes> GoldenDeflateStreams(const std::string& file) {
  const Bytes stream = ReadGolden(file);
  const internal::OpenedStream s = internal::OpenStream(stream, true);
  EXPECT_EQ(s.header.solver_name, "deflate") << file;
  RecordingDeflate solver;
  ChunkDecoder decoder(solver, s.header.linearization, s.header.width);
  if (s.header.version >= internal::kFormatVersion2) {
    for (std::size_t c = 0; c < s.directory.chunks.size(); ++c) {
      Bytes out(static_cast<std::size_t>(s.directory.chunks[c].elements) *
                s.header.width);
      internal::DecodeDirectoryChunk(s, c, decoder, out);
    }
  } else {
    ByteReader reader(ByteSpan(stream).subspan(s.chunks_begin));
    Bytes out;
    for (std::uint64_t left = s.elements(); left > 0;) {
      const std::uint64_t count = reader.GetVarint();
      decoder.DecodeChunk(reader, count, out);
      left -= count;
    }
  }
  return solver.seen;
}

// ---------------------------------------------------------------------------

TEST(DeflateDecodeIdentity, EncoderOutputOfEveryGenerator) {
  const DeflateCodec standard;
  const DeflateFastCodec fast;
  for (const auto& gen : testing::AllInputGenerators()) {
    for (const std::size_t n : Sizes{0, 1, 2, 3, 7, 8, 9, 64, 257, 258, 266,
                                     267, 1000, 4096, 70000}) {
      for (const std::uint64_t seed : Sizes{1, 2}) {
        const Bytes input = gen.make(n, seed);
        const std::string label =
            gen.label + " n=" + std::to_string(n) + " seed=" +
            std::to_string(seed);
        ASSERT_TRUE(ExpectSameDecode(standard.Compress(input), label));
        ASSERT_TRUE(ExpectSameDecode(fast.Compress(input), label + " fast"));
      }
    }
  }
}

TEST(DeflateDecodeIdentity, MultiBlockStreams) {
  // More than 2^16 tokens: several Huffman blocks with their own tables.
  const DeflateCodec codec;
  for (const auto& gen : testing::AllInputGenerators()) {
    const Bytes input = gen.make(300000, 9);
    ASSERT_TRUE(ExpectSameDecode(codec.Compress(input), gen.label));
  }
}

TEST(DeflateDecodeIdentity, GoldenCorpusStreams) {
  std::size_t streams = 0;
  for (const char* file :
       {"stream_v1.bin", "stream_v2.bin", "stream_v3.bin", "streamed_v3.bin"}) {
    const std::vector<Bytes> found = GoldenDeflateStreams(file);
    EXPECT_FALSE(found.empty()) << file;
    for (std::size_t i = 0; i < found.size(); ++i) {
      ASSERT_TRUE(ExpectSameDecode(found[i], std::string(file) + " stream " +
                                                 std::to_string(i)));
    }
    streams += found.size();
  }
  EXPECT_GT(streams, 0u);
}

TEST(DeflateDecodeIdentity, DamagedGoldenStreams) {
  // Every prefix and a seeded sweep of byte flips of each golden Deflate
  // stream: both decoders must agree on every one, result or error type.
  Rng rng(0xdef1a7e);
  for (const Bytes& stream : GoldenDeflateStreams("stream_v3.bin")) {
    for (std::size_t cut = 0; cut < stream.size(); ++cut) {
      ASSERT_TRUE(ExpectSameDecode(ByteSpan(stream).first(cut),
                                   "prefix " + std::to_string(cut)));
    }
    for (int flip = 0; flip < 200; ++flip) {
      Bytes damaged = stream;
      const std::size_t at = rng.NextBelow(damaged.size());
      damaged[at] ^= static_cast<std::byte>(1 + rng.NextBelow(255));
      ASSERT_TRUE(ExpectSameDecode(damaged, "flip at " + std::to_string(at)));
    }
  }
}

TEST(DeflateDecodeIdentity, OverlappingMatchesAtShortDistances) {
  const std::vector<Token> head = Literals(8, 3);
  for (std::uint32_t distance = 1; distance <= 8; ++distance) {
    for (const std::uint32_t length :
         {3u, 4u, 7u, 8u, 9u, 15u, 16u, 17u, 31u, 64u, 257u, 258u}) {
      // Mid-stream (the fast loop's word copies, with output ahead) and as
      // the last token (the checked loop).
      std::vector<Token> tokens = head;
      tokens.push_back(Match(length, distance));
      const std::string label = "distance " + std::to_string(distance) +
                                " length " + std::to_string(length);
      ASSERT_TRUE(ExpectSameDecode(FlatStream(tokens), label + " at end"));
      for (const Token& t : Literals(300, distance)) tokens.push_back(t);
      tokens.push_back(Match(258, 300));
      ASSERT_TRUE(ExpectSameDecode(FlatStream(tokens), label + " mid"));
    }
  }
}

TEST(DeflateDecodeIdentity, OutputsEndingNearTheFastLoopCutOver) {
  // A run of 258-byte matches followed by `tail` more output bytes (one
  // match when it can be, else literals), so the last tokens fall at every
  // offset 0-300 around the point where the fast loop hands over.
  for (std::size_t tail = 0; tail <= 300; ++tail) {
    for (const std::uint32_t distance : {1u, 5u, 8u, 200u}) {
      std::vector<Token> tokens = Literals(200, tail);
      for (int i = 0; i < 4; ++i) tokens.push_back(Match(258, distance));
      if (tail >= 3 && tail <= 258) {
        tokens.push_back(Match(static_cast<std::uint32_t>(tail), distance));
      } else {
        for (const Token& t : Literals(tail, 7)) tokens.push_back(t);
      }
      const std::string label = "tail " + std::to_string(tail) +
                                " distance " + std::to_string(distance);
      ASSERT_TRUE(ExpectSameDecode(FlatStream(tokens), label));
      // The same tokens with undeclared ones after them: the payload runs
      // on past the last token, so the fast loop decodes up to the end of
      // the output and its word copies meet the buffer's end.
      std::vector<Token> padded = tokens;
      for (const Token& t : Literals(40, 8)) padded.push_back(t);
      Bytes stream;
      PutVarint(stream, OutputSize(tokens));
      AppendHuffmanBlock(stream, padded, FlatLengths(ref::kLitLenAlphabet),
                         FlatLengths(ref::kNumDistCodes), tokens.size());
      ASSERT_TRUE(ExpectSameDecode(stream, label + " padded"));
    }
  }
}

TEST(DeflateDecodeIdentity, DistancePastTheStartRejected) {
  // A match reaching one byte before the output's start, mid-stream where
  // the fast loop decodes it.
  for (std::uint32_t before = 0; before <= 10; ++before) {
    std::vector<Token> tokens = Literals(before, before);
    tokens.push_back(Match(3 + before, before + 1));
    for (const Token& t : Literals(400, 9)) tokens.push_back(t);
    const Bytes stream = FlatStream(tokens);
    ASSERT_TRUE(ExpectSameDecode(stream, "after " + std::to_string(before)));
    EXPECT_THROW(DeflateCodec().Decompress(stream), CorruptStreamError);
  }
}

TEST(DeflateDecodeIdentity, PayloadsShorterThanAWord) {
  // Fewer than 8 payload bytes: no token ever takes the fast refill.
  for (std::size_t n = 0; n <= 8; ++n) {
    ASSERT_TRUE(ExpectSameDecode(FlatStream(Literals(n, n)),
                                 "literals " + std::to_string(n)));
  }
  ASSERT_TRUE(ExpectSameDecode(FlatStream({Lit(1), Lit(2), Match(10, 2)}),
                               "short match"));
}

TEST(DeflateDecodeIdentity, FifteenBitCodesTakeTheSubtable) {
  // Literal 'z', length code 28 (258) and distance code 0 sit at 15 bits,
  // past both primary tables; the other symbols fill lengths 1..14.
  std::vector<std::size_t> litlen_symbols;
  for (std::size_t s = 0; s < 14; ++s) litlen_symbols.push_back('a' + s);
  litlen_symbols.push_back('z');
  litlen_symbols.push_back(256 + 28);
  std::vector<std::size_t> dist_symbols;
  for (std::size_t c = 1; c <= 15; ++c) dist_symbols.push_back(c);
  dist_symbols.push_back(0);
  const auto litlen = DeepLengths(ref::kLitLenAlphabet, litlen_symbols);
  const auto dist = DeepLengths(ref::kNumDistCodes, dist_symbols);

  std::vector<Token> tokens;
  for (int round = 0; round < 40; ++round) {
    tokens.push_back(Lit('z'));
    tokens.push_back(Lit('a' + static_cast<std::uint32_t>(round % 14)));
    tokens.push_back(Match(258, 1));
    tokens.push_back(Match(258, 2));  // distance code 1 (1 bit)
  }
  Bytes stream;
  PutVarint(stream, OutputSize(tokens));
  AppendHuffmanBlock(stream, tokens, litlen, dist);
  ASSERT_TRUE(ExpectSameDecode(stream, "15-bit codes"));
  EXPECT_EQ(DeflateCodec().Decompress(stream).size(), OutputSize(tokens));
}

TEST(DeflateDecodeIdentity, SingleSymbolCodes) {
  // One literal and one distance code, each alone in its alphabet: the
  // degenerate one-bit code; its other window must be rejected.
  std::vector<std::uint8_t> litlen(ref::kLitLenAlphabet, 0);
  litlen['q'] = 1;
  std::vector<std::uint8_t> dist(ref::kNumDistCodes, 0);
  const std::vector<Token> literals(500, Lit('q'));
  Bytes stream;
  PutVarint(stream, literals.size());
  AppendHuffmanBlock(stream, literals, litlen, dist);
  ASSERT_TRUE(ExpectSameDecode(stream, "single literal"));
  EXPECT_EQ(DeflateCodec().Decompress(stream),
            Bytes(500, static_cast<std::byte>('q')));

  // A flipped payload bit lands on the unassigned window.
  Bytes bad = stream;
  bad.back() ^= std::byte{0x01};  // the last token's bit
  ASSERT_TRUE(ExpectSameDecode(bad, "single literal, bad bit"));
  EXPECT_THROW(DeflateCodec().Decompress(bad), CorruptStreamError);

  litlen[256 + 28] = 1;  // and the 258-length code: a complete 2-symbol code
  dist[3] = 1;
  std::vector<Token> tokens = {Lit('q')};
  for (int i = 0; i < 20; ++i) tokens.push_back(Match(258, 4));
  tokens.insert(tokens.begin(), 3, Lit('q'));
  Bytes matches;
  PutVarint(matches, OutputSize(tokens));
  AppendHuffmanBlock(matches, tokens, litlen, dist);
  ASSERT_TRUE(ExpectSameDecode(matches, "single distance code"));
}

TEST(DeflateDecodeIdentity, IncompleteCodes) {
  // Lengths {a:1, b:2} leave the window 11 unassigned. Streams that never
  // reach it decode; a token on it throws CorruptStreamError.
  std::vector<std::uint8_t> litlen(ref::kLitLenAlphabet, 0);
  litlen['a'] = 1;
  litlen['b'] = 2;
  const std::vector<std::uint8_t> no_dist(ref::kNumDistCodes, 0);
  const std::vector<Token> ab = {Lit('a'), Lit('b'), Lit('b'), Lit('a')};
  Bytes good;
  PutVarint(good, ab.size());
  AppendHuffmanBlock(good, ab, litlen, no_dist);
  ASSERT_TRUE(ExpectSameDecode(good, "incomplete, valid words"));

  for (const std::size_t before : Sizes{0, 1, 7, 40}) {
    Bytes bad;
    PutVarint(bad, before + 1);
    BitWriter bits;
    for (std::size_t i = 0; i < before; ++i) bits.WriteBits(0, 1);  // 'a'
    bits.WriteBits(3, 2);                                           // 11
    PutU8(bad, ref::kBlockHuffman);
    PutVarint(bad, before + 1);
    PutBlock(bad, SerializeCodeLengths(litlen));
    PutBlock(bad, SerializeCodeLengths(no_dist));
    PutBlock(bad, bits.Finish());
    ASSERT_TRUE(ExpectSameDecode(bad, "unassigned window after " +
                                          std::to_string(before)));
    EXPECT_THROW(DeflateCodec().Decompress(bad), CorruptStreamError);
  }

  // A match in a block without a distance code.
  litlen[256] = 2;
  Bytes no_table;
  PutVarint(no_table, 4);
  BitWriter bits;
  bits.WriteBits(0, 1);  // 'a'
  HuffmanEncoder(litlen).Encode(bits, 256);
  PutU8(no_table, ref::kBlockHuffman);
  PutVarint(no_table, 2);
  PutBlock(no_table, SerializeCodeLengths(litlen));
  PutBlock(no_table, SerializeCodeLengths(no_dist));
  PutBlock(no_table, bits.Finish());
  ASSERT_TRUE(ExpectSameDecode(no_table, "match without distance code"));
  EXPECT_THROW(DeflateCodec().Decompress(no_table), CorruptStreamError);
}

TEST(DeflateDecodeIdentity, DeclaredSizeTooLargeOrTooSmall) {
  std::vector<Token> tokens = Literals(400, 5);
  tokens.push_back(Match(258, 100));
  const std::size_t size = OutputSize(tokens);
  for (const std::uint64_t declared :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{size - 1},
        std::uint64_t{size + 1}, std::uint64_t{size + 300},
        std::uint64_t{1} << 40, ~std::uint64_t{0}}) {
    Bytes stream;
    PutVarint(stream, declared);
    AppendHuffmanBlock(stream, tokens, FlatLengths(ref::kLitLenAlphabet),
                       FlatLengths(ref::kNumDistCodes));
    ASSERT_TRUE(
        ExpectSameDecode(stream, "declared " + std::to_string(declared)));
    if (declared != 0) {
      EXPECT_THROW(DeflateCodec().Decompress(stream), CorruptStreamError);
    }
  }
  // Stored blocks: too many and too few raw bytes for the declared size.
  for (const std::uint64_t declared : Sizes{9, 10, 11}) {
    Bytes stream;
    PutVarint(stream, declared);
    PutU8(stream, ref::kBlockStored);
    PutVarint(stream, 10);
    AppendBytes(stream, Bytes(10, std::byte{7}));
    ASSERT_TRUE(ExpectSameDecode(stream, "stored, declared " +
                                             std::to_string(declared)));
  }
}

TEST(DeflateDecodeIdentity, TruncatedPayloads) {
  std::vector<Token> tokens = Literals(600, 6);
  for (std::uint32_t d = 1; d <= 12; ++d) tokens.push_back(Match(40, d));
  const Bytes stream = FlatStream(tokens);
  for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
    ASSERT_TRUE(ExpectSameDecode(ByteSpan(stream).first(cut),
                                 "cut " + std::to_string(cut)));
  }
  // The header promises more tokens than the payload holds: the extra ones
  // read zero bits past its end.
  for (const std::uint64_t extra : Sizes{1, 2, 9, 64}) {
    Bytes stream2;
    PutVarint(stream2, OutputSize(tokens) + extra);
    AppendHuffmanBlock(stream2, tokens, FlatLengths(ref::kLitLenAlphabet),
                       FlatLengths(ref::kNumDistCodes),
                       tokens.size() + extra);
    ASSERT_TRUE(
        ExpectSameDecode(stream2, "tokens past payload +" +
                                      std::to_string(extra)));
    EXPECT_THROW(DeflateCodec().Decompress(stream2), CorruptStreamError);
  }
}

}  // namespace
}  // namespace primacy
