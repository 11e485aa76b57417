#include "lz77/lz77.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/error.h"

namespace primacy {
namespace {

constexpr std::size_t kHashBits = 15;
constexpr std::size_t kHashSize = 1u << kHashBits;
constexpr std::uint32_t kNoPos = 0xffffffffu;

/// The 3 bytes at p as one word, p[0] in the high byte.
std::uint32_t Load24(const std::byte* p) {
  return (static_cast<std::uint32_t>(p[0]) << 16) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         static_cast<std::uint32_t>(p[2]);
}

/// The 4 bytes at p as one word (only ever compared for equality).
std::uint32_t Load32(const std::byte* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Multiplicative hash over the next 3 bytes.
std::uint32_t HashAt(const std::byte* p) {
  return (Load24(p) * 0x9E3779B1u) >> (32 - kHashBits);
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

/// The match finder's hash tables (head: kHashSize, prev: kLzWindowSize),
/// kept per thread and reused across LzParse calls so a call allocates and
/// page-faults nothing. Between calls every head slot is kNoPos.
struct MatchTables {
  std::vector<std::uint32_t> head =
      std::vector<std::uint32_t>(kHashSize, kNoPos);
  std::vector<std::uint32_t> prev = std::vector<std::uint32_t>(kLzWindowSize);
};

/// Inputs shorter than this restore head by rehashing their own positions,
/// which is cheaper than refilling all kHashSize slots.
constexpr std::size_t kClearBySlotLimit = kHashSize / 8;

MatchTables& ThreadTables() {
  thread_local MatchTables tables;
  return tables;
}

/// Hash-chain dictionary over the sliding window.
class MatchFinder {
 public:
  /// Takes this thread's tables, whose head_ the previous call left empty.
  /// prev_ keeps whatever an earlier call left: every prev_ slot a chain
  /// reads is prev_[cpos & (kLzWindowSize - 1)] for a candidate cpos that
  /// was reached through head_ or prev_ and so was inserted in this call,
  /// and inserting cpos wrote that slot. A stale slot is never read.
  explicit MatchFinder(ByteSpan data)
      : data_(data),
        head_(ThreadTables().head.data()),
        prev_(ThreadTables().prev.data()) {}

  /// Empties head_ for the next call: a short input resets only the slots
  /// its positions hash to (every slot Insert can have written), a long one
  /// refills the table.
  ~MatchFinder() {
    if (data_.size() >= kClearBySlotLimit) {
      std::fill_n(head_, kHashSize, kNoPos);
      return;
    }
    for (std::size_t pos = 0; pos + kLzMinMatch <= data_.size(); ++pos) {
      head_[HashAt(data_.data() + pos)] = kNoPos;
    }
  }

  MatchFinder(const MatchFinder&) = delete;
  MatchFinder& operator=(const MatchFinder&) = delete;

  /// Inserts position `pos` into the dictionary.
  void Insert(std::size_t pos) {
    if (pos + kLzMinMatch > data_.size()) return;
    const std::uint32_t h = HashAt(data_.data() + pos);
    prev_[pos & (kLzWindowSize - 1)] = head_[h];
    head_[h] = static_cast<std::uint32_t>(pos);
  }

  struct Match {
    std::size_t length = 0;
    std::size_t distance = 0;
  };

  /// Best match at `pos` subject to the chain budget: the first probed
  /// candidate of greatest length (at least kLzMinMatch). Probing stops at
  /// the first candidate that reaches `nice_length` or the length cap
  /// (kLzMaxMatch or the bytes left).
  Match FindBest(std::size_t pos, const LzParams& params) const {
    Match best;
    if (pos + kLzMinMatch > data_.size()) return best;
    const std::size_t limit =
        std::min(kLzMaxMatch, data_.size() - pos);
    const std::byte* const cur = data_.data() + pos;
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
    std::uint32_t candidate = head_[HashAt(cur)];
    std::size_t probes = params.max_chain;
    while (candidate != kNoPos && probes-- > 0) {
      const std::size_t cpos = candidate;
      if (cpos >= pos || pos - cpos > kLzWindowSize) break;
      const std::byte* const cand = data_.data() + cpos;
      // Quick reject: a candidate beats best only if it matches every byte
      // of [0, best.length], so one word compare inside that window (the
      // last 4 bytes of it, or the leading bytes before any match) rejects
      // it without changing the result. Every byte read lies below
      // pos + limit, so the compare stays inside the buffer.
      const bool may_beat =
          best.length == 0 ? ((Load24(cand) ^ cur_prefix) & prefix_mask) == 0
                           : Load32(cand + tail) == cur_tail;
      if (may_beat) {
        const std::size_t len = MatchLength(cand, cur, limit);
        if (len > best.length) {
          best.length = len;
          best.distance = pos - cpos;
          if (len >= params.nice_length || len == limit) break;
          tail = len + 1 - sizeof(std::uint32_t);
          cur_tail = Load32(cur + tail);
        }
      }
      candidate = prev_[cpos & (kLzWindowSize - 1)];
    }
    if (best.length < kLzMinMatch) return Match{};
    return best;
  }

 private:
  ByteSpan data_;
  std::uint32_t* head_;
  // Indexed by pos & (kLzWindowSize - 1); fixed power-of-two size.
  std::uint32_t* prev_;
};

}  // namespace

std::vector<LzToken> LzParse(ByteSpan data, const LzParams& params) {
  std::vector<LzToken> tokens;
  if (data.empty()) return tokens;
  tokens.reserve(data.size() / 4);

  MatchFinder finder(data);

  // The lazy check's FindBest(pos + 1) when it emitted a literal at pos:
  // the dictionary then holds pos but not pos + 1, exactly the state the
  // next iteration would search, so its result is reused.
  MatchFinder::Match next;
  bool have_next = false;
  std::size_t pos = 0;
  while (pos < data.size()) {
    const MatchFinder::Match match =
        have_next ? next : finder.FindBest(pos, params);
    have_next = false;
    if (params.lazy && match.length >= kLzMinMatch &&
        match.length < params.nice_length && pos + 1 < data.size()) {
      // One-step lazy matching: if the next position holds a strictly longer
      // match, emit a literal here instead.
      finder.Insert(pos);
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
      for (std::size_t i = 1; i < match.length; ++i) {
        finder.Insert(pos + i);
      }
      pos += match.length;
      continue;
    }
    if (match.length >= kLzMinMatch) {
      tokens.push_back(LzToken{0, static_cast<std::uint16_t>(match.length),
                               static_cast<std::uint16_t>(match.distance)});
      for (std::size_t i = 0; i < match.length; ++i) finder.Insert(pos + i);
      pos += match.length;
    } else {
      tokens.push_back(LzToken{static_cast<std::uint8_t>(data[pos]), 0, 0});
      finder.Insert(pos);
      ++pos;
    }
  }
  return tokens;
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
