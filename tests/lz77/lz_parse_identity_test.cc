// LzParse must return exactly the tokens of the reference parser
// (tests/support/reference_lz77.h) for every input and every LzParams: its
// fast path (reuse of the lazy lookahead, word-compare candidate reject,
// the 4-byte chain walk after the first match) is a speed-up only, never a
// change of encoder output.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <string>
#include <thread>
#include <vector>

#include "datasets/datasets.h"
#include "lz77/lz77.h"
#include "support/reference_lz77.h"
#include "util/rng.h"

namespace primacy {
namespace {

using Sizes = std::initializer_list<std::size_t>;

/// Presets plus the knob sweep: chain 1/8/128/1024 x nice 3/8/64/258 x
/// lazy on/off.
std::vector<LzParams> AllParams() {
  std::vector<LzParams> all = {LzParams::Fast(), LzParams::Default(),
                               LzParams::Thorough()};
  for (const std::size_t chain : Sizes{1, 8, 128, 1024}) {
    for (const std::size_t nice : Sizes{3, 8, 64, 258}) {
      for (const bool lazy : {true, false}) {
        all.push_back(LzParams{chain, nice, lazy});
      }
    }
  }
  return all;
}

std::string Describe(const LzParams& p) {
  return "chain=" + std::to_string(p.max_chain) +
         " nice=" + std::to_string(p.nice_length) +
         (p.lazy ? " lazy" : " greedy");
}

std::string DescribeToken(const LzToken& t) {
  return t.IsLiteral() ? "literal " + std::to_string(t.literal)
                       : "match len=" + std::to_string(t.length) +
                             " dist=" + std::to_string(t.distance);
}

/// Checks token-for-token equality with the oracle, naming the first
/// difference.
void ExpectSameTokens(ByteSpan data, const LzParams& params) {
  const std::vector<LzToken> want = reference::LzParse(data, params);
  const std::vector<LzToken> got = LzParse(data, params);
  const std::size_t n = std::min(want.size(), got.size());
  for (std::size_t i = 0; i < n; ++i) {
    const bool same = want[i].literal == got[i].literal &&
                      want[i].length == got[i].length &&
                      want[i].distance == got[i].distance;
    if (!same) {
      ADD_FAILURE() << Describe(params) << ", " << data.size()
                    << " bytes: token " << i << " is "
                    << DescribeToken(got[i]) << ", oracle has "
                    << DescribeToken(want[i]);
      return;
    }
  }
  EXPECT_EQ(got.size(), want.size())
      << Describe(params) << ", " << data.size() << " bytes";
}

Bytes SmallAlphabet(std::size_t n, std::size_t symbols, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (std::byte& b : out) {
    b = static_cast<std::byte>('a' + rng.NextBelow(symbols));
  }
  return out;
}

Bytes RandomBytes(std::size_t n, std::uint64_t seed) {
  return SmallAlphabet(n, 256, seed);
}

/// The mixed phrase/noise generator of lz_params_test.
Bytes MixedData(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out;
  const Bytes phrase = BytesFromString("repeated segment content ");
  while (out.size() < n) {
    if (rng.NextBool(0.6)) {
      AppendBytes(out, phrase);
    } else {
      for (int i = 0; i < 16; ++i) {
        out.push_back(static_cast<std::byte>(rng.NextBelow(256)));
      }
    }
  }
  out.resize(n);
  return out;
}

/// The six mantissa byte columns of a dataset's doubles (big-endian bytes
/// 2..7), column after column: the layout ISOBAR hands the solver.
Bytes MantissaColumns(const std::string& name, std::size_t elements) {
  const std::vector<double> values = GenerateDatasetByName(name, elements);
  Bytes out;
  out.reserve(6 * values.size());
  for (int byte = 2; byte < 8; ++byte) {
    for (const double v : values) {
      out.push_back(static_cast<std::byte>(std::bit_cast<std::uint64_t>(v) >>
                                           (8 * (7 - byte))));
    }
  }
  return out;
}

/// `period` random bytes repeated to `n` bytes: every match sits at exactly
/// `period` back, so a period of kLzWindowSize is the farthest legal match
/// and one more is out of the window.
Bytes Periodic(std::size_t n, std::size_t period, std::uint64_t seed) {
  const Bytes unit = RandomBytes(period, seed);
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = unit[i % period];
  return out;
}

struct NamedInput {
  std::string name;
  Bytes data;
};

std::vector<NamedInput> MakeInputs() {
  std::vector<NamedInput> inputs;
  for (std::size_t symbols = 1; symbols <= 4; ++symbols) {
    inputs.push_back({"alphabet" + std::to_string(symbols),
                      SmallAlphabet(40000, symbols, symbols)});
  }
  for (const char* name : {"num_plasma", "obs_info", "msg_sppm"}) {
    inputs.push_back({name, MantissaColumns(name, 8192)});
  }
  inputs.push_back({"mixed", MixedData(60000, 99)});
  // Mostly literals, and more than 64 Ki tokens (one Deflate block).
  inputs.push_back({"random", RandomBytes(70000, 5)});
  inputs.push_back({"period_window",
                    Periodic(3 * kLzWindowSize, kLzWindowSize, 6)});
  inputs.push_back({"period_past_window",
                    Periodic(3 * kLzWindowSize, kLzWindowSize + 1, 7)});
  return inputs;
}

const std::vector<NamedInput>& Inputs() {
  static const std::vector<NamedInput> inputs = MakeInputs();
  return inputs;
}

class LzParseIdentity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LzParseIdentity, TokensMatchOracle) {
  const NamedInput& input = Inputs()[GetParam()];
  SCOPED_TRACE(input.name);
  for (const LzParams& params : AllParams()) {
    ExpectSameTokens(input.data, params);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Inputs, LzParseIdentity, ::testing::Range<std::size_t>(0, Inputs().size()),
    [](const ::testing::TestParamInfo<std::size_t>& param) {
      return Inputs()[param.param].name;
    });

TEST(LzParseIdentityEdges, EveryInputUpToFiveBytes) {
  // Every string of 0-5 bytes over a 2-symbol alphabet.
  for (std::size_t n = 0; n <= 5; ++n) {
    for (std::size_t code = 0; code < (std::size_t{1} << n); ++code) {
      Bytes data(n);
      for (std::size_t i = 0; i < n; ++i) {
        data[i] = static_cast<std::byte>('a' + ((code >> i) & 1));
      }
      for (const LzParams& params : AllParams()) {
        ExpectSameTokens(data, params);
      }
    }
  }
}

TEST(LzParseIdentityEdges, MatchesEndingAtTheBufferEdge) {
  // A copy of an earlier run placed flush against the end of the buffer, so
  // the last match is capped by the buffer rather than by a mismatch, and
  // every candidate compare reads up to the final byte.
  const Bytes head = SmallAlphabet(300, 3, 11);
  for (std::size_t copy = 3; copy <= 24; ++copy) {
    for (const std::size_t from : Sizes{0, 7, 150}) {
      Bytes data = head;
      data.insert(data.end(), head.begin() + static_cast<std::ptrdiff_t>(from),
                  head.begin() + static_cast<std::ptrdiff_t>(from + copy));
      for (const LzParams& params : AllParams()) {
        ExpectSameTokens(data, params);
      }
    }
  }
  // Runs of one byte around the kLzMaxMatch cap.
  for (std::size_t n = kLzMaxMatch - 2; n <= kLzMaxMatch + 6; ++n) {
    const Bytes data(n, std::byte{'z'});
    for (const LzParams& params : AllParams()) {
      ExpectSameTokens(data, params);
    }
  }
}

/// A 3-byte string followed by 8 more bytes, then, after noise, a second
/// 3-byte string that shares only its first byte and its hash bucket (the
/// parser's hash, as copied into the oracle), then the first 11 bytes again.
/// At that last copy the chain holds the one-byte collision first and the
/// real 11-byte match behind it.
Bytes HashCollisionBeforeMatch(std::uint64_t seed) {
  const auto gram = [](std::uint32_t yz) {
    return Bytes{std::byte{'q'}, static_cast<std::byte>(yz >> 8),
                 static_cast<std::byte>(yz & 0xff)};
  };
  constexpr std::uint32_t kNone = 0xffffffffu;
  std::vector<std::uint32_t> owner(std::size_t{1} << 15, kNone);
  std::uint32_t first = 0, twin = 0;
  for (std::uint32_t yz = 0; yz < 0x10000 && twin == 0; ++yz) {
    std::uint32_t& slot = owner[reference::detail::HashAt(gram(yz).data())];
    if (slot == kNone) {
      slot = yz;
    } else if ((slot >> 8) != (yz >> 8)) {
      first = slot;
      twin = yz;
    }
  }
  Bytes phrase = gram(first);
  AppendBytes(phrase, RandomBytes(8, seed));
  Bytes out = phrase;
  AppendBytes(out, RandomBytes(16, seed + 1));
  AppendBytes(out, gram(twin));
  AppendBytes(out, RandomBytes(16, seed + 2));
  AppendBytes(out, phrase);
  return out;
}

TEST(LzParseIdentityEdges, NiceLengthBelowMinMatch) {
  // nice_length under kLzMinMatch ends the chain walk at the first
  // candidate that long, even though such a candidate is never returned.
  const std::vector<Bytes> inputs = {
      SmallAlphabet(4000, 2, 12), MixedData(4000, 13),
      SmallAlphabet(4000, 8, 14), HashCollisionBeforeMatch(15),
      HashCollisionBeforeMatch(16)};
  for (const Bytes& data : inputs) {
    for (const std::size_t nice : Sizes{0, 1, 2, 3}) {
      for (const std::size_t chain : Sizes{1, 8, 128}) {
        for (const bool lazy : {true, false}) {
          ExpectSameTokens(data, LzParams{chain, nice, lazy});
        }
      }
    }
  }
}

// The 4-byte chain walk (lz77.h) runs on inputs of kLzFourByteChainMinInput
// bytes or more. The cases below put a pattern after a filler that long, so
// the walk searches it; the filler is lowercase and the patterns are not,
// so the filler holds none of the patterns' strings.

/// `n` random lowercase bytes.
Bytes Filler(std::size_t n, std::uint64_t seed) {
  return SmallAlphabet(n, 26, seed);
}

/// `n` random bytes from 0x80-0xff (never lowercase ASCII).
Bytes HighBytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (std::byte& b : out) {
    b = static_cast<std::byte>(0x80 + rng.NextBelow(0x80));
  }
  return out;
}

Bytes Prefix(const Bytes& b, std::size_t n) {
  return Bytes(b.begin(), b.begin() + static_cast<std::ptrdiff_t>(n));
}

/// The parser's 4-byte hash (Hash32 in src/lz77/lz77.cc) of the 4 bytes
/// at p. Keys found with it put foreign entries into a 4-byte chain; were
/// the parser's hash to change, they would stop colliding and these cases
/// would still check identity, only on less.
std::uint32_t ParserHash4(const std::byte* p) {
  std::uint32_t word = 0;
  std::memcpy(&word, p, sizeof word);
  return (word * 0x1E35A7BDu) >> (32 - 14);
}

/// Positions in [from, to) of `data` whose 3 bytes hash to `bucket` (the
/// oracle's hash, which is the parser's).
std::size_t CountInBucket(const Bytes& data, std::size_t from, std::size_t to,
                          std::uint32_t bucket) {
  std::size_t count = 0;
  for (std::size_t i = from; i < to && i + kLzMinMatch <= data.size(); ++i) {
    if (reference::detail::HashAt(data.data() + i) == bucket) ++count;
  }
  return count;
}

TEST(LzParseIdentityFourByteChain, ThreeByteFirstMatchThenLongerCandidates) {
  // At the final copy of `phrase` the newest 3-byte chain entries share
  // only its first 3 bytes (the first match has length 3, so the walk
  // enters the 4-byte chain at its head), and older, longer copies follow.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Bytes phrase = HighBytes(32, seed);
    Bytes short_match = Prefix(phrase, 3);
    short_match.push_back(static_cast<std::byte>(phrase[3] ^ std::byte{1}));
    for (const std::size_t older : Sizes{1, 3}) {
      Bytes data = Filler(kLzFourByteChainMinInput, seed);
      for (std::size_t k = 0; k < older; ++k) {
        AppendBytes(data, Prefix(phrase, 6 + 10 * k));
        AppendBytes(data, Filler(50, seed + 10 + k));
      }
      for (const std::size_t gap : Sizes{0, 7, 400}) {
        AppendBytes(data, short_match);
        AppendBytes(data, Filler(gap + 1, seed + 20 + gap));
      }
      AppendBytes(data, phrase);
      AppendBytes(data, Filler(20, seed + 30));
      for (const LzParams& params : AllParams()) {
        ExpectSameTokens(data, params);
      }
    }
  }
}

TEST(LzParseIdentityFourByteChain, FourByteHashCollisions) {
  // Keys of other bytes with the 4-byte hash of `phrase` sit in its 4-byte
  // chain between the first match and the real, longer candidates: one
  // whose first 3 bytes share phrase's 3-byte bucket (so its copies also
  // count toward the chain budget) and one whose do not. (Keys that share
  // phrase's first 3 bytes never collide: with the word loaded low byte
  // first, the 4th byte only moves the hash's top bits, one to one.)
  const Bytes phrase = HighBytes(28, 40);
  const std::uint32_t bucket3 = reference::detail::HashAt(phrase.data());
  const std::uint32_t bucket4 = ParserHash4(phrase.data());
  Bytes same_bucket, other_bucket;
  for (std::uint32_t v = 0; v < (1u << 24); ++v) {
    const Bytes lead = {static_cast<std::byte>(v >> 16),
                        static_cast<std::byte>(v >> 8),
                        static_cast<std::byte>(v)};
    const bool in_bucket = reference::detail::HashAt(lead.data()) == bucket3;
    Bytes& found = in_bucket ? same_bucket : other_bucket;
    if (!found.empty() || std::equal(lead.begin(), lead.end(), phrase.begin())) {
      continue;
    }
    for (int last = 0; last < 256 && found.empty(); ++last) {
      Bytes key = lead;
      key.push_back(static_cast<std::byte>(last));
      if (ParserHash4(key.data()) == bucket4) found = key;
    }
    if (!same_bucket.empty() && !other_bucket.empty()) break;
  }
  ASSERT_FALSE(same_bucket.empty());
  ASSERT_FALSE(other_bucket.empty());
  Bytes three = Prefix(phrase, 3);  // shares only 3 bytes with phrase
  three.push_back(static_cast<std::byte>(phrase[3] ^ std::byte{1}));
  const Bytes tail(phrase.begin() + 4, phrase.end());
  for (const bool long_first : {false, true}) {
    Bytes data = Filler(kLzFourByteChainMinInput, 71);
    for (const std::size_t len : Sizes{12, 20, 28}) {
      AppendBytes(data, Prefix(phrase, len));
      AppendBytes(data, Filler(30, 72 + len));
    }
    for (std::size_t k = 0; k < 40; ++k) {
      AppendBytes(data, k % 2 == 0 ? same_bucket : other_bucket);
      AppendBytes(data, Prefix(tail, 8));
      AppendBytes(data, Filler(5 + k, 80 + k));
    }
    // The first match: 3 bytes, or 6 bytes of phrase.
    AppendBytes(data, long_first ? Prefix(phrase, 6) : three);
    AppendBytes(data, Filler(9, 98));
    AppendBytes(data, phrase);
    for (const LzParams& params : AllParams()) {
      ExpectSameTokens(data, params);
    }
  }
}

TEST(LzParseIdentityFourByteChain, LongerMatchJustInsideAndOutsideTheBudget) {
  // A longer match behind exactly `ahead` insertions into its 3-byte
  // bucket: the newest is a 3-byte match (the first match), the rest are
  // bytes with another 3-byte string and the same bucket. The longer match
  // is the (ahead + 1)-th entry, so max_chain = ahead + 1 reaches it and
  // max_chain = ahead does not.
  const Bytes phrase = HighBytes(40, 100);
  const std::uint32_t bucket = reference::detail::HashAt(phrase.data());
  std::vector<Bytes> twins;  // other 3-byte strings of the same bucket
  for (std::uint64_t seed = 101; twins.size() < 200; ++seed) {
    const Bytes key = HighBytes(3, seed);
    if (reference::detail::HashAt(key.data()) == bucket &&
        !std::equal(key.begin(), key.end(), phrase.begin())) {
      twins.push_back(key);
    }
  }
  Bytes first_match = Prefix(phrase, 3);
  first_match.push_back(static_cast<std::byte>(phrase[3] ^ std::byte{1}));
  for (const std::size_t chain : Sizes{1, 8, 128}) {
    for (const std::size_t ahead : {chain - 1, chain, chain + 1}) {
      if (ahead == 0) continue;
      Bytes data = Filler(kLzFourByteChainMinInput, chain + ahead);
      const std::size_t longer = data.size();
      AppendBytes(data, phrase);
      AppendBytes(data, Filler(7, 200));
      for (std::size_t k = 0; k + 1 < ahead; ++k) {
        AppendBytes(data, twins[k]);
        AppendBytes(data, Filler(3, 300 + k));
      }
      AppendBytes(data, first_match);
      AppendBytes(data, Filler(11, 201));
      const std::size_t cur = data.size();
      AppendBytes(data, phrase);
      ASSERT_EQ(CountInBucket(data, longer + 1, cur, bucket), ahead)
          << "chain " << chain << ", ahead " << ahead;
      for (const std::size_t nice : Sizes{8, 258}) {
        for (const bool lazy : {true, false}) {
          ExpectSameTokens(data, LzParams{chain, nice, lazy});
        }
      }
    }
  }
}

TEST(LzParseIdentityFourByteChain, LongerMatchAtTheWindowEdge) {
  // The longer candidate is reached through the 4-byte chain at distance
  // 32767, 32768 (the farthest legal) and 32769 (out of the window).
  const Bytes phrase = HighBytes(30, 400);
  Bytes first_match = Prefix(phrase, 3);
  first_match.push_back(static_cast<std::byte>(phrase[3] ^ std::byte{1}));
  for (const std::size_t distance :
       Sizes{kLzWindowSize - 1, kLzWindowSize, kLzWindowSize + 1}) {
    Bytes data = Filler(kLzFourByteChainMinInput, 401);
    AppendBytes(data, phrase);
    AppendBytes(data, Filler(distance - phrase.size() - 100, 402));
    AppendBytes(data, first_match);
    AppendBytes(data, Filler(96, 403));
    AppendBytes(data, phrase);
    for (const LzParams& params :
         {LzParams::Fast(), LzParams::Default(), LzParams::Thorough(),
          LzParams{8, 258, true}, LzParams{128, 8, false}}) {
      ExpectSameTokens(data, params);
    }
  }
}

TEST(LzParseIdentityFourByteChain, CandidatesAtTheEndOfTheInput) {
  // Inputs ending within 4 bytes of their last candidate: the last
  // positions are in the 3-byte chain but not the 4-byte one, and the last
  // searches have 3 or 4 bytes left.
  const Bytes phrase = HighBytes(16, 500);
  for (std::size_t cut = 1; cut <= 9; ++cut) {
    Bytes data = Filler(kLzFourByteChainMinInput, 501);
    AppendBytes(data, phrase);
    AppendBytes(data, Filler(13, 502));
    AppendBytes(data, Prefix(phrase, 5));
    AppendBytes(data, Prefix(phrase, cut));
    for (const LzParams& params : AllParams()) {
      ExpectSameTokens(data, params);
    }
  }
  for (std::size_t period = 1; period <= 5; ++period) {
    for (std::size_t extra = 0; extra < period + 4; ++extra) {
      Bytes data = Filler(kLzFourByteChainMinInput, 503);
      const Bytes unit = HighBytes(period, 504 + period);
      for (std::size_t i = 0; i < 3 + extra; ++i) {
        data.push_back(unit[i % period]);
      }
      for (const LzParams& params : AllParams()) {
        ExpectSameTokens(data, params);
      }
    }
  }
}

/// The mixed-data input cut to each length in turn. Equal prefixes fill the
/// same buckets, so an entry left by an earlier call that the finder did
/// not hold out of reach would change the tokens.
std::vector<Bytes> AlternatingLengths() {
  const Bytes source = MixedData(70000, 600);
  std::vector<Bytes> inputs;
  for (const std::size_t n :
       Sizes{5, 20000, 1000, 70000, 3000, kLzFourByteChainMinInput - 1,
             kLzFourByteChainMinInput, 4095, 40000, 4096, 12, 65536}) {
    inputs.push_back(Prefix(source, n));
  }
  return inputs;
}

TEST(LzParseIdentityFourByteChain, ShortAndLongCallsAlternateOnOneThread) {
  const std::vector<Bytes> inputs = AlternatingLengths();
  for (int round = 0; round < 2; ++round) {
    for (const Bytes& data : inputs) {
      for (const LzParams& params :
           {LzParams::Fast(), LzParams::Default(), LzParams::Thorough()}) {
        ExpectSameTokens(data, params);
      }
    }
  }
}

TEST(LzParseIdentityFourByteChain, CallsAfterThePositionBaseRestarts) {
  // Every call moves a thread's position base on by at least two windows,
  // so 70 000 tiny calls pass 2^32 positions and the base restarts where a
  // fresh thread's first call began. Calls before and after each restart
  // must still equal the oracle. A fresh thread makes the first base known.
  const Bytes source = MixedData(40000, 610);
  const Bytes tiny(5, std::byte{0});
  const std::size_t tiny_tokens =
      reference::LzParse(tiny, LzParams::Default()).size();
  std::thread([&] {
    for (int restart = 0; restart < 2; ++restart) {
      ExpectSameTokens(Prefix(source, 20000), LzParams::Default());
      for (int call = 0; call < 70000; ++call) {
        if (LzParse(tiny, LzParams::Default()).size() != tiny_tokens) {
          ADD_FAILURE() << "tiny call " << call << " after restart " << restart;
          return;
        }
      }
      ExpectSameTokens(source, LzParams::Default());
      ExpectSameTokens(Prefix(source, 3000), LzParams::Thorough());
    }
  }).join();
}

bool SameTokens(const std::vector<LzToken>& a, const std::vector<LzToken>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const LzToken& x, const LzToken& y) {
                      return x.literal == y.literal && x.length == y.length &&
                             x.distance == y.distance;
                    });
}

TEST(LzParseStress, ThreadsParseShortAndLongInputsAgainstTheOracle) {
  // Four threads, each with its own match-finder tables, parse short and
  // long inputs in different orders; every result must equal the oracle's.
  const std::vector<Bytes> inputs = AlternatingLengths();
  const LzParams params = LzParams::Default();
  std::vector<std::vector<LzToken>> want;
  for (const Bytes& data : inputs) {
    want.push_back(reference::LzParse(data, params));
  }
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 3;
  std::atomic<std::size_t> parses{0}, mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < inputs.size(); ++i) {
          const std::size_t k = (i * (t + 1) + round) % inputs.size();
          if (!SameTokens(LzParse(inputs[k], params), want[k])) {
            mismatches.fetch_add(1);
          }
          parses.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(parses.load(), kThreads * kRounds * inputs.size());
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace
}  // namespace primacy
