// LZ77 parsing: hash-chain match finder with optional one-step lazy
// evaluation, in the zlib mold. Produces a token stream consumed by the
// Deflate codec's entropy stage.
//
// The match at a position is the first probed chain candidate of greatest
// length. Quick-reject invariant: a candidate can replace the current best
// only if it matches every byte in [0, best.length], so the finder rejects
// one that differs anywhere in that window with a single word compare (the
// 4 bytes ending at offset best.length, or the first 3 bytes before any
// match) before measuring it. A rejected candidate still spends one probe
// of max_chain, so the tokens are those of a finder that measures every
// candidate (tests/support/reference_lz77.h, held equal by the
// LzParseIdentity suite).
#pragma once

#include <cstdint>
#include <vector>

#include "util/bytes.h"

namespace primacy {

/// One parsed token: either a literal byte (length == 0) or a back-reference
/// of `length` bytes at `distance` back from the current position.
struct LzToken {
  std::uint8_t literal = 0;
  std::uint16_t length = 0;    // 0 = literal; otherwise in [kMinMatch, kMaxMatch]
  std::uint16_t distance = 0;  // in [1, window], valid when length != 0

  bool IsLiteral() const { return length == 0; }
};

inline constexpr std::size_t kLzMinMatch = 3;
inline constexpr std::size_t kLzMaxMatch = 258;
inline constexpr std::size_t kLzWindowBits = 15;
inline constexpr std::size_t kLzWindowSize = 1u << kLzWindowBits;  // 32 KiB

/// Tuning knobs, loosely mirroring zlib's level presets.
struct LzParams {
  std::size_t max_chain = 128;   // hash-chain probes per position
  std::size_t nice_length = 128; // stop probing once a match this long found
  bool lazy = true;              // one-step lazy matching

  /// Fast preset (zlib level ~1) and default preset (~6).
  static LzParams Fast() { return {8, 16, false}; }
  static LzParams Default() { return {128, 128, true}; }
  static LzParams Thorough() { return {1024, kLzMaxMatch, true}; }
};

/// Parses `data` into tokens. The concatenated expansion of the returned
/// tokens reproduces `data` exactly (property-tested).
std::vector<LzToken> LzParse(ByteSpan data, const LzParams& params);

/// Expands a token stream back into bytes (reference decoder used by tests
/// and by the Deflate decompressor).
Bytes LzExpand(std::span<const LzToken> tokens, std::size_t expected_size);

}  // namespace primacy
