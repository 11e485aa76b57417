// SSE2 kernel variants. SSE2 is part of the x86-64 baseline, so this table
// is selectable on every x86-64 CPU; it exists both as the fallback for
// pre-AVX2 hardware and as a second point on the dispatch curve for the
// kernel bench. No SSSE3+ instructions (no pshufb) — the byte routing is
// done with pack/unpack/shift networks only.
//
// The transposes share the radix-2 structure of the AVX2 versions at half
// the tile height (16 rows), and without lanes the pack/unpack primitives
// need no permute fix-up.
#include "kernels/tables.h"

#if PRIMACY_SIMD_ENABLED

#include <emmintrin.h>

#include <cstring>

#include "kernels/histogram_unrolled.h"
#include "kernels/scalar_impl.h"

namespace primacy::kernels {
namespace {

inline __m128i Load(const std::byte* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}
inline void Store(std::byte* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}
inline void Store8(std::byte* p, __m128i v) {
  _mm_storel_epi64(reinterpret_cast<__m128i*>(p), v);
}

/// 32 consecutive bytes (a ++ b) -> 16 even-index and 16 odd-index bytes.
/// packus saturation is exact here: every word is masked/shifted to <= 255.
inline void DeInterleave32(__m128i a, __m128i b, __m128i& even, __m128i& odd) {
  const __m128i mask = _mm_set1_epi16(0x00ff);
  even = _mm_packus_epi16(_mm_and_si128(a, mask), _mm_and_si128(b, mask));
  odd = _mm_packus_epi16(_mm_srli_epi16(a, 8), _mm_srli_epi16(b, 8));
}

/// Inverse of DeInterleave32.
inline void Interleave32(__m128i even, __m128i odd, __m128i& out0,
                         __m128i& out1) {
  out0 = _mm_unpacklo_epi8(even, odd);
  out1 = _mm_unpackhi_epi8(even, odd);
}

void ColToRowW2(const std::byte* cols, std::size_t n, std::byte* out) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m128i r0, r1;
    Interleave32(Load(cols + i), Load(cols + n + i), r0, r1);
    Store(out + 2 * i, r0);
    Store(out + 2 * i + 16, r1);
  }
  for (; i < n; ++i) {
    out[2 * i] = cols[i];
    out[2 * i + 1] = cols[n + i];
  }
}

void RowToColW4(const std::byte* rows, std::size_t n, std::byte* out) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const std::byte* p = rows + 4 * i;
    __m128i e0, o0, e1, o1;
    DeInterleave32(Load(p), Load(p + 16), e0, o0);
    DeInterleave32(Load(p + 32), Load(p + 48), e1, o1);
    __m128i c0, c1, c2, c3;
    DeInterleave32(e0, e1, c0, c2);
    DeInterleave32(o0, o1, c1, c3);
    Store(out + i, c0);
    Store(out + n + i, c1);
    Store(out + 2 * n + i, c2);
    Store(out + 3 * n + i, c3);
  }
  for (; i < n; ++i) {
    for (std::size_t c = 0; c < 4; ++c) out[c * n + i] = rows[4 * i + c];
  }
}

void ColToRowW4(const std::byte* cols, std::size_t n, std::byte* out) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i c0 = Load(cols + i);
    const __m128i c1 = Load(cols + n + i);
    const __m128i c2 = Load(cols + 2 * n + i);
    const __m128i c3 = Load(cols + 3 * n + i);
    __m128i e0, e1, o0, o1;
    Interleave32(c0, c2, e0, e1);
    Interleave32(c1, c3, o0, o1);
    __m128i r0, r1, r2, r3;
    Interleave32(e0, o0, r0, r1);
    Interleave32(e1, o1, r2, r3);
    std::byte* q = out + 4 * i;
    Store(q, r0);
    Store(q + 16, r1);
    Store(q + 32, r2);
    Store(q + 48, r3);
  }
  for (; i < n; ++i) {
    for (std::size_t c = 0; c < 4; ++c) out[4 * i + c] = cols[c * n + i];
  }
}

void RowToColW8(const std::byte* rows, std::size_t n, std::byte* out) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const std::byte* p = rows + 8 * i;
    __m128i e[4], o[4];
    for (std::size_t k = 0; k < 4; ++k) {
      DeInterleave32(Load(p + 32 * k), Load(p + 32 * k + 16), e[k], o[k]);
    }
    __m128i ee0, eo0, ee1, eo1, oe0, oo0, oe1, oo1;
    DeInterleave32(e[0], e[1], ee0, eo0);
    DeInterleave32(e[2], e[3], ee1, eo1);
    DeInterleave32(o[0], o[1], oe0, oo0);
    DeInterleave32(o[2], o[3], oe1, oo1);
    __m128i c[8];
    DeInterleave32(ee0, ee1, c[0], c[4]);
    DeInterleave32(eo0, eo1, c[2], c[6]);
    DeInterleave32(oe0, oe1, c[1], c[5]);
    DeInterleave32(oo0, oo1, c[3], c[7]);
    for (std::size_t col = 0; col < 8; ++col) Store(out + col * n + i, c[col]);
  }
  for (; i < n; ++i) {
    for (std::size_t c = 0; c < 8; ++c) out[c * n + i] = rows[8 * i + c];
  }
}

void ColToRowW8(const std::byte* cols, std::size_t n, std::byte* out) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m128i c[8];
    for (std::size_t col = 0; col < 8; ++col) c[col] = Load(cols + col * n + i);
    __m128i x[8];
    Interleave32(c[0], c[4], x[0], x[1]);
    Interleave32(c[2], c[6], x[2], x[3]);
    Interleave32(c[1], c[5], x[4], x[5]);
    Interleave32(c[3], c[7], x[6], x[7]);
    __m128i y[4], z[4];
    Interleave32(x[0], x[2], y[0], y[1]);
    Interleave32(x[1], x[3], y[2], y[3]);
    Interleave32(x[4], x[6], z[0], z[1]);
    Interleave32(x[5], x[7], z[2], z[3]);
    std::byte* q = out + 8 * i;
    for (std::size_t k = 0; k < 4; ++k) {
      __m128i r0, r1;
      Interleave32(y[k], z[k], r0, r1);
      Store(q + 32 * k, r0);
      Store(q + 32 * k + 16, r1);
    }
  }
  for (; i < n; ++i) {
    for (std::size_t c = 0; c < 8; ++c) out[8 * i + c] = cols[c * n + i];
  }
}

void SplitW8H2(const std::byte* rows, std::size_t n, std::byte* high,
               std::byte* low) {
  // Per 2-row tile. Highs: dword+word shuffles compact bytes {0,1,8,9} to
  // the front for one 4-byte store. Lows: two byte-shifts and two 8-byte
  // stores; the second store writes two zero bytes past its 6 payload
  // bytes, which the next tile (or the >= 2-row scalar tail) overwrites.
  std::size_t i = 0;
  if (n >= 4) {
    for (; i + 4 <= n; i += 2) {
      const __m128i v = Load(rows + 8 * i);
      const __m128i t = _mm_shuffle_epi32(v, _MM_SHUFFLE(3, 3, 2, 0));
      const __m128i u = _mm_shufflelo_epi16(t, _MM_SHUFFLE(3, 3, 2, 0));
      std::uint32_t h4 = static_cast<std::uint32_t>(_mm_cvtsi128_si32(u));
      std::memcpy(high + 2 * i, &h4, 4);
      Store8(low + 6 * i, _mm_srli_si128(v, 2));
      Store8(low + 6 * i + 6, _mm_srli_si128(v, 10));
    }
  }
  scalar::SplitW8H2(rows + 8 * i, n - i, high + 2 * i, low + 6 * i);
}

void MergeW8H2(const std::byte* high, const std::byte* low, std::size_t n,
               std::byte* rows) {
  // Per 2-row tile: one 16-byte low load covers both rows' low bytes (the
  // bound keeps it in range); each row is (lows << 2) | highs, 8-byte store.
  std::size_t i = 0;
  for (; i + 3 <= n; i += 2) {
    const __m128i l = Load(low + 6 * i);
    std::uint32_t h4;
    std::memcpy(&h4, high + 2 * i, 4);
    const __m128i r0 =
        _mm_or_si128(_mm_slli_si128(l, 2),
                     _mm_cvtsi32_si128(static_cast<int>(h4 & 0xffffu)));
    const __m128i r1 =
        _mm_or_si128(_mm_slli_si128(_mm_srli_si128(l, 6), 2),
                     _mm_cvtsi32_si128(static_cast<int>(h4 >> 16)));
    Store8(rows + 8 * i, r0);
    Store8(rows + 8 * i + 8, r1);
  }
  scalar::MergeW8H2(high + 2 * i, low + 6 * i, n - i, rows + 8 * i);
}

void SplitW4H2(const std::byte* rows, std::size_t n, std::byte* high,
               std::byte* low) {
  // Per 4-row tile: word shuffles sort [h l h l ...] into [h h l l ...],
  // then the dword shuffle finishes [hhhh llll]; two 8-byte stores.
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m128i v = Load(rows + 4 * i);
    v = _mm_shufflelo_epi16(v, _MM_SHUFFLE(3, 1, 2, 0));
    v = _mm_shufflehi_epi16(v, _MM_SHUFFLE(3, 1, 2, 0));
    v = _mm_shuffle_epi32(v, _MM_SHUFFLE(3, 1, 2, 0));
    Store8(high + 2 * i, v);
    Store8(low + 2 * i, _mm_unpackhi_epi64(v, v));
  }
  scalar::SplitW4H2(rows + 4 * i, n - i, high + 2 * i, low + 2 * i);
}

void MergeW4H2(const std::byte* high, const std::byte* low, std::size_t n,
               std::byte* rows) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i h = Load(high + 2 * i);
    const __m128i l = Load(low + 2 * i);
    Store(rows + 4 * i, _mm_unpacklo_epi16(h, l));
    Store(rows + 4 * i + 16, _mm_unpackhi_epi16(h, l));
  }
  scalar::MergeW4H2(high + 2 * i, low + 2 * i, n - i, rows + 4 * i);
}

void CountPairs(const std::byte* pairs, std::size_t n_pairs,
                std::uint32_t* counts) {
  // Same run-detection fast path as AVX2 at 8 pairs per block.
  std::size_t i = 0;
  for (; i + 8 <= n_pairs; i += 8) {
    const __m128i v = Load(pairs + 2 * i);
    std::uint16_t first16;
    std::memcpy(&first16, pairs + 2 * i, 2);
    const __m128i first = _mm_set1_epi16(static_cast<short>(first16));
    if (_mm_movemask_epi8(_mm_cmpeq_epi16(v, first)) == 0xffff) {
      const auto hi = static_cast<std::uint32_t>(pairs[2 * i]);
      const auto lo = static_cast<std::uint32_t>(pairs[2 * i + 1]);
      counts[(hi << 8) | lo] += 8;
    } else {
      scalar::CountPairs(pairs + 2 * i, 8, counts);
    }
  }
  scalar::CountPairs(pairs + 2 * i, n_pairs - i, counts);
}

void HistogramStride(const std::byte* p, std::size_t count,
                     std::size_t stride_bytes, std::uint64_t* hist) {
  detail::HistogramStrideUnrolled(p, count, stride_bytes, hist);
}

// row_to_col_w2, map_ids16 and unmap_ids16 run the scalar reference: the
// SSE2 versions measured no faster than it (docs/KERNELS.md).
constexpr KernelTable kSse2Table = {
    SplitW8H2,          MergeW8H2,            SplitW4H2,
    MergeW4H2,          scalar::RowToColW<2>, ColToRowW2,
    RowToColW4,         ColToRowW4,           RowToColW8,
    ColToRowW8,         CountPairs,           scalar::MapIds16,
    scalar::UnmapIds16, HistogramStride,
};

}  // namespace

namespace detail {
const KernelTable* Sse2Table() { return &kSse2Table; }
}  // namespace detail

}  // namespace primacy::kernels

#endif  // PRIMACY_SIMD_ENABLED
