// LZ77 parsing: hash-chain match finder with optional one-step lazy
// evaluation, in the zlib mold. Produces a token stream consumed by the
// Deflate codec's entropy stage.
//
// The match at a position is the first candidate of greatest length among
// the first max_chain entries of its 3-byte hash chain (newest first).
// That chain fixes the tokens, and tests/support/reference_lz77.h walks it
// candidate by candidate; the LzParseIdentity suite holds LzParse to it.
//
// Two-chain invariant. On inputs of kLzFourByteChainMinInput bytes or more
// the finder keeps, besides the 3-byte chain (same hash, same links), a
// chain keyed on a hash of the first 4 bytes, and per
// 3-byte bucket an insertion count; each position records its bucket's
// count when inserted, so an entry's rank in its 3-byte chain is
// count - seq + 1. Both chains hold every inserted position in the window,
// newest first. FindBest walks the 3-byte chain, one probe per entry, up
// to the first match. After it, a candidate can replace the best match
// only if it matches every byte of [0, best.length], bytes 0-3 among them,
// so it has the same 4 leading bytes, hence the same 3-byte bucket, and it
// sits in this position's 4-byte chain. FindBest walks that chain below
// the first match and measures only entries with those 4 bytes whose rank
// is within max_chain. Both chains are strictly decreasing in position
// inside the window, so this meets the same improving candidates in the
// same order as the 3-byte walk; ranks grow down the chain and so does the
// distance, so the first entry over budget or out of the window ends both
// walks at the same point, and the nice_length / length-cap stop falls on
// the same candidate. The tokens are therefore identical.
//
// Inside either phase a candidate is rejected with one word compare inside
// [0, best.length] (the 4 bytes ending at offset best.length, or the first
// 3 bytes before any match) before it is measured.
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
/// Inputs at least this long also keep the 4-byte chain (see above). On
/// shorter ones its upkeep costs more than the probes it saves, so they run
/// the finder compiled without it.
inline constexpr std::size_t kLzFourByteChainMinInput = 8192;

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
/// tokens reproduces `data` exactly (property-tested). The match finder's
/// tables are per thread (256 KiB, plus 256 KiB from a thread's first input
/// of kLzFourByteChainMinInput bytes or more) and need no clearing between
/// calls. Throws InvalidArgumentError for an input of 4 GiB or more.
std::vector<LzToken> LzParse(ByteSpan data, const LzParams& params);

/// Expands a token stream back into bytes (reference decoder used by tests
/// and by the Deflate decompressor).
Bytes LzExpand(std::span<const LzToken> tokens, std::size_t expected_size);

}  // namespace primacy
