// LzParse must return exactly the tokens of the reference parser
// (tests/support/reference_lz77.h) for every input and every LzParams: its
// fast path (reuse of the lazy lookahead, word-compare candidate reject) is
// a speed-up only, never a change of encoder output.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <string>
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

}  // namespace
}  // namespace primacy
