#include "lz77/lz77.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/error.h"

namespace primacy {
namespace {

constexpr std::size_t kHashBits = 15;
constexpr std::size_t kHashSize = 1u << kHashBits;
constexpr std::size_t kHash4Bits = 14;
constexpr std::size_t kHash4Size = 1u << kHash4Bits;
constexpr std::size_t kWindowMask = kLzWindowSize - 1;

/// The 3 bytes at p as one word, p[0] in the high byte.
std::uint32_t Load24(const std::byte* p) {
  return (static_cast<std::uint32_t>(p[0]) << 16) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         static_cast<std::uint32_t>(p[2]);
}

/// The 4 bytes at p as one word (only ever compared for equality or
/// hashed).
std::uint32_t Load32(const std::byte* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Multiplicative hash over the next 3 bytes. The chain it keys decides
/// which candidates spend probes, so it fixes the tokens.
std::uint32_t HashAt(const std::byte* p) {
  return (Load24(p) * 0x9E3779B1u) >> (32 - kHashBits);
}

/// Hash of 4 bytes (as Load32), keying the 4-byte chain. Its collisions
/// are filtered out by a compare, so it changes speed only, never tokens.
std::uint32_t Hash32(std::uint32_t word) {
  return (word * 0x1E35A7BDu) >> (32 - kHash4Bits);
}

/// Length of the common prefix of a and b, up to `limit`.
std::size_t MatchLength(const std::byte* a, const std::byte* b,
                        std::size_t limit) {
  std::size_t len = 0;
  while (len + 8 <= limit) {
    std::uint64_t wa, wb;
    std::memcpy(&wa, a + len, 8);
    std::memcpy(&wb, b + len, 8);
    if (wa != wb) {
      return len + static_cast<std::size_t>(
                       std::countr_zero(wa ^ wb)) / 8;
    }
    len += 8;
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

/// The match finder's tables, kept per thread and reused across LzParse
/// calls. Positions are stored offset by a per-call base, which every call
/// moves past the last one's positions by more than the window, so what an
/// earlier call left is out of reach and nothing is cleared. Window slots
/// are indexed by position & kWindowMask (the base is a multiple of the
/// window) and describe the position last inserted there.
struct MatchTables {
  /// The 3-byte chain (256 KiB): newest position per bucket, and per slot
  /// the previous entry's position.
  std::vector<std::uint32_t> head3 = std::vector<std::uint32_t>(kHashSize);
  std::vector<std::uint32_t> prev3 = std::vector<std::uint32_t>(kLzWindowSize);
  /// Kept only for inputs of kLzFourByteChainMinInput bytes or more, and
  /// allocated on a thread's first one (256 KiB): per 3-byte bucket its
  /// insertion count, and per slot that count just after inserting the
  /// slot's position (both mod 2^16); the 4-byte chain's newest position
  /// per bucket, and per slot the distance back to the previous entry
  /// (capped at kLzWindowSize, which leads out of every later window).
  std::vector<std::uint16_t> count3;
  std::vector<std::uint16_t> seq;
  std::vector<std::uint32_t> head4;
  std::vector<std::uint16_t> prev4;
  /// The next call's base: every stored position lies more than
  /// kLzWindowSize below it (0, the initial one, included).
  std::uint64_t next_base = 2 * kLzWindowSize;
};

struct Match {
  std::size_t length = 0;
  std::size_t distance = 0;
};

/// Hash-chain dictionary over the sliding window: the 3-byte chain that
/// defines the tokens and, when kFourByteChain (inputs of
/// kLzFourByteChainMinInput bytes or more), a 4-byte chain that reaches the
/// same improving candidates in fewer probes (see lz77.h).
template <bool kFourByteChain>
class MatchFinder {
 public:
  /// Takes this thread's tables and the next base. When the offset
  /// positions of `data` would pass 2^32, the heads are zeroed and the base
  /// restarts, once per ~4 GiB parsed on a thread.
  explicit MatchFinder(ByteSpan data) : data_(data) {
    thread_local MatchTables t;
    constexpr std::uint64_t kPositions = std::uint64_t{1} << 32;
    if (data.size() >= kPositions - 4 * kLzWindowSize) {
      throw InvalidArgumentError("LzParse: input of 4 GiB or more");
    }
    if (t.next_base + data.size() >= kPositions) {
      std::fill(t.head3.begin(), t.head3.end(), 0u);
      std::fill(t.head4.begin(), t.head4.end(), 0u);
      t.next_base = 2 * kLzWindowSize;
    }
    base_ = static_cast<std::uint32_t>(t.next_base);
    // A multiple of the window, so position p uses slot p & kWindowMask in
    // every call and a short call stays on the same few table lines.
    t.next_base = (t.next_base + data.size() + 2 * kLzWindowSize) &
                  ~std::uint64_t{kWindowMask};
    head3_ = t.head3.data();
    prev3_ = t.prev3.data();
    if constexpr (kFourByteChain) {
      if (t.head4.empty()) {
        t.count3.resize(kHashSize);
        t.seq.resize(kLzWindowSize);
        t.head4.resize(kHash4Size);
        t.prev4.resize(kLzWindowSize);
      }
      count3_ = t.count3.data();
      seq_ = t.seq.data();
      head4_ = t.head4.data();
      prev4_ = t.prev4.data();
    }
  }

  MatchFinder(const MatchFinder&) = delete;
  MatchFinder& operator=(const MatchFinder&) = delete;

  /// Inserts positions [from, to) into the chains. With the 4-byte chain
  /// kept, the position with 3 bytes left is not inserted: it is the last
  /// one FindBest searches, and it is inserted only after that search.
  void Insert(std::size_t from, std::size_t to) {
    const std::size_t size = data_.size();
    if constexpr (kFourByteChain) {
      InsertBoth(from, std::min(to, size - 3));
      return;
    }
    const std::size_t end3 =
        std::min(to, size < kLzMinMatch ? 0 : size - kLzMinMatch + 1);
    for (std::size_t pos = from; pos < end3; ++pos) {
      const std::uint32_t h3 = HashAt(data_.data() + pos);
      const std::uint32_t g = Offset(pos);
      prev3_[g & kWindowMask] = head3_[h3];
      head3_[h3] = g;
    }
  }

  /// Best match at `pos` subject to the chain budget: the first candidate
  /// of greatest length (at least kLzMinMatch) among the first max_chain of
  /// the 3-byte chain. Probing stops at the first candidate that reaches
  /// `nice_length` or the length cap (kLzMaxMatch or the bytes left).
  Match FindBest(std::size_t pos, const LzParams& params) const {
    Match best;
    if (pos + kLzMinMatch > data_.size()) return best;
    const std::size_t limit = std::min(kLzMaxMatch, data_.size() - pos);
    const std::byte* const cur = data_.data() + pos;
    const std::uint32_t g = Offset(pos);
    // Before any match, a candidate sharing fewer than kLzMinMatch leading
    // bytes is never returned, so only those bytes are compared. Under a
    // nice_length below kLzMinMatch the first candidate that long still ends
    // the search (returning no match), so then only nice_length bytes are.
    const std::size_t skip_bits =
        8 * (kLzMinMatch -
             std::clamp<std::size_t>(params.nice_length, 1, kLzMinMatch));
    const std::uint32_t prefix_mask = (0xffffffu >> skip_bits) << skip_bits;
    const std::uint32_t cur_prefix = Load24(cur);
    // Once a match is found, its last 4 bytes [tail, best.length] at `cur`.
    std::size_t tail = 0;
    std::uint32_t cur_tail = 0;
    const std::uint32_t h3 = HashAt(cur);
    std::uint32_t candidate = head3_[h3];
    for (std::size_t probes = params.max_chain; probes > 0;
         --probes, candidate = prev3_[candidate & kWindowMask]) {
      // A candidate out of the window ends the chain; so does one an
      // earlier call left, which lies more than a window below base_.
      const std::uint32_t distance = g - candidate;
      if (distance - 1 >= kLzWindowSize) break;
      const std::byte* const cand = cur - distance;
      // Quick reject: a candidate beats best only if it matches every byte
      // of [0, best.length], so one word compare inside that window (the
      // last 4 bytes of it, or the leading bytes before any match) rejects
      // it without changing the result. Every byte read lies below
      // pos + limit, so the compare stays inside the buffer.
      const bool may_beat =
          best.length == 0 ? ((Load24(cand) ^ cur_prefix) & prefix_mask) == 0
                           : Load32(cand + tail) == cur_tail;
      if (!may_beat) continue;
      const std::size_t len = MatchLength(cand, cur, limit);
      if (len <= best.length) continue;
      best.length = len;
      best.distance = distance;
      if (len >= params.nice_length || len == limit) break;
      if constexpr (kFourByteChain) {
        return ImproveOnFourByteChain(pos, h3, best, params);
      }
      tail = len + 1 - sizeof(std::uint32_t);
      cur_tail = Load32(cur + tail);
    }
    if (best.length < kLzMinMatch) return Match{};
    return best;
  }

 private:
  /// Inserts positions [pos, end) into both chains. The positions after one
  /// that repeat its 4 leading bytes (a run of one byte) share its buckets
  /// and each links to the position before it, so they skip the hashing and
  /// the table loads.
  void InsertBoth(std::size_t pos, std::size_t end) {
    while (pos < end) {
      const std::uint32_t word = Load32(data_.data() + pos);
      const std::uint32_t h3 = HashAt(data_.data() + pos);
      const std::uint32_t h4 = Hash32(word);
      std::uint32_t g = Offset(pos);
      std::uint16_t count = count3_[h3];
      prev3_[g & kWindowMask] = head3_[h3];
      seq_[g & kWindowMask] = ++count;
      prev4_[g & kWindowMask] = Back(g, head4_[h4]);
      for (++pos; pos < end && Load32(data_.data() + pos) == word; ++pos) {
        ++g;
        prev3_[g & kWindowMask] = g - 1;
        seq_[g & kWindowMask] = ++count;
        prev4_[g & kWindowMask] = 1;
      }
      head3_[h3] = g;
      count3_[h3] = count;
      head4_[h4] = g;
    }
  }

  /// FindBest's second phase, from the first match `best` on: a candidate
  /// beats best only if it matches every byte of [0, best.length], bytes
  /// 0-3 among them, so only the 4-byte chain's entries below the first
  /// match with the same 4 leading bytes are probed. Each such entry is in
  /// the 3-byte chain, at rank count - seq + 1; ranks grow down the chain,
  /// so the first one past max_chain ends the search, as does the first
  /// entry out of the window. A 3-byte first match is not in this 4-byte
  /// chain, and the chain's entries above it are hash collisions, which
  /// the compare rejects.
  Match ImproveOnFourByteChain(std::size_t pos, std::uint32_t h3, Match best,
                               const LzParams& params) const {
    const std::size_t limit = std::min(kLzMaxMatch, data_.size() - pos);
    const std::byte* const cur = data_.data() + pos;
    const std::uint32_t g = Offset(pos);
    const std::uint32_t first = g - static_cast<std::uint32_t>(best.distance);
    const std::uint32_t cur_lead = Load32(cur);
    const std::uint16_t count = count3_[h3];
    std::size_t tail = best.length + 1 - sizeof(std::uint32_t);
    std::uint32_t cur_tail = Load32(cur + tail);
    std::uint32_t candidate = best.length > kLzMinMatch
                                  ? first - prev4_[first & kWindowMask]
                                  : head4_[Hash32(cur_lead)];
    for (;; candidate -= prev4_[candidate & kWindowMask]) {
      const std::uint32_t distance = g - candidate;
      if (distance - 1 >= kLzWindowSize) break;
      // Every byte read lies below pos + limit, inside the buffer.
      const std::byte* const cand = cur - distance;
      if (Load32(cand) != cur_lead) continue;
      if (static_cast<std::uint16_t>(count - seq_[candidate & kWindowMask]) >=
          params.max_chain) {
        break;
      }
      if (Load32(cand + tail) != cur_tail) continue;
      const std::size_t len = MatchLength(cand, cur, limit);
      if (len <= best.length) continue;
      best.length = len;
      best.distance = distance;
      if (len >= params.nice_length || len == limit) break;
      tail = len + 1 - sizeof(std::uint32_t);
      cur_tail = Load32(cur + tail);
    }
    return best;
  }

  std::uint32_t Offset(std::size_t pos) const {
    return base_ + static_cast<std::uint32_t>(pos);
  }

  /// Distance from offset position g back to `older`, capped at
  /// kLzWindowSize.
  static std::uint16_t Back(std::uint32_t g, std::uint32_t older) {
    return static_cast<std::uint16_t>(
        std::min<std::uint32_t>(g - older, kLzWindowSize));
  }

  ByteSpan data_;
  std::uint32_t base_ = 0;
  // This thread's MatchTables; the last four stay null without
  // kFourByteChain.
  std::uint32_t* head3_ = nullptr;
  std::uint32_t* prev3_ = nullptr;
  std::uint16_t* count3_ = nullptr;
  std::uint16_t* seq_ = nullptr;
  std::uint32_t* head4_ = nullptr;
  std::uint16_t* prev4_ = nullptr;
};

template <bool kFourByteChain>
std::vector<LzToken> Parse(ByteSpan data, const LzParams& params) {
  std::vector<LzToken> tokens;
  tokens.reserve(data.size() / 4);

  MatchFinder<kFourByteChain> finder(data);

  // The lazy check's FindBest(pos + 1) when it emitted a literal at pos:
  // the dictionary then holds pos but not pos + 1, exactly the state the
  // next iteration would search, so its result is reused.
  Match next;
  bool have_next = false;
  std::size_t pos = 0;
  while (pos < data.size()) {
    const Match match =
        have_next ? next : finder.FindBest(pos, params);
    have_next = false;
    if (params.lazy && match.length >= kLzMinMatch &&
        match.length < params.nice_length && pos + 1 < data.size()) {
      // One-step lazy matching: if the next position holds a strictly longer
      // match, emit a literal here instead.
      finder.Insert(pos, pos + 1);
      next = finder.FindBest(pos + 1, params);
      if (next.length > match.length) {
        tokens.push_back(
            LzToken{static_cast<std::uint8_t>(data[pos]), 0, 0});
        ++pos;
        have_next = true;
        continue;
      }
      // Keep the current match; pos was already inserted.
      tokens.push_back(LzToken{0, static_cast<std::uint16_t>(match.length),
                               static_cast<std::uint16_t>(match.distance)});
      finder.Insert(pos + 1, pos + match.length);
      pos += match.length;
      continue;
    }
    if (match.length >= kLzMinMatch) {
      tokens.push_back(LzToken{0, static_cast<std::uint16_t>(match.length),
                               static_cast<std::uint16_t>(match.distance)});
      finder.Insert(pos, pos + match.length);
      pos += match.length;
    } else {
      tokens.push_back(LzToken{static_cast<std::uint8_t>(data[pos]), 0, 0});
      finder.Insert(pos, pos + 1);
      ++pos;
    }
  }
  return tokens;
}

}  // namespace

std::vector<LzToken> LzParse(ByteSpan data, const LzParams& params) {
  if (data.empty()) return {};
  // Below kLzFourByteChainMinInput the 4-byte chain's upkeep costs more than
  // the probes it saves; the one-chain finder carries none of it.
  return data.size() >= kLzFourByteChainMinInput ? Parse<true>(data, params)
                                                 : Parse<false>(data, params);
}

Bytes LzExpand(std::span<const LzToken> tokens, std::size_t expected_size) {
  Bytes out;
  out.reserve(expected_size);
  for (const LzToken& token : tokens) {
    if (token.IsLiteral()) {
      out.push_back(static_cast<std::byte>(token.literal));
      continue;
    }
    if (token.distance == 0 || token.distance > out.size()) {
      throw CorruptStreamError("LzExpand: distance exceeds produced output");
    }
    if (token.length < kLzMinMatch || token.length > kLzMaxMatch) {
      throw CorruptStreamError("LzExpand: bad match length");
    }
    // Byte-by-byte copy: overlapping matches (distance < length) replicate.
    std::size_t src = out.size() - token.distance;
    for (std::size_t i = 0; i < token.length; ++i) {
      out.push_back(out[src + i]);
    }
  }
  if (out.size() != expected_size) {
    throw CorruptStreamError("LzExpand: size mismatch");
  }
  return out;
}

}  // namespace primacy
