// Dependency-broken histogram accumulate shared by the SIMD kernel tables.
//
// A byte histogram does not vectorize (the increments scatter), but the
// scalar loop's real cost on the skewed columns ISOBAR samples is the
// store-to-load forwarding stall when consecutive samples hit the same
// bucket. Four interleaved sub-histograms (8 KiB, L1-resident) break that
// dependency chain; the 256-entry merge is amortized over the sample count.
// Internal linkage for the reason given in scalar_impl.h: sse2.cc must never
// link to the copy avx2.cc built with -mavx2.
#pragma once

#include <cstddef>
#include <cstdint>

#include "kernels/scalar_impl.h"

namespace primacy::kernels::detail {

static inline void HistogramStrideUnrolled(const std::byte* p,
                                           std::size_t count,
                                           std::size_t stride_bytes,
                                           std::uint64_t* hist) {
  if (count < 64) {  // not worth the 256-entry merge
    scalar::HistogramStride(p, count, stride_bytes, hist);
    return;
  }
  std::uint64_t sub[4][256] = {};
  const std::size_t main = count & ~static_cast<std::size_t>(3);
  for (std::size_t k = 0; k < main; k += 4) {
    ++sub[0][static_cast<std::size_t>(p[k * stride_bytes])];
    ++sub[1][static_cast<std::size_t>(p[(k + 1) * stride_bytes])];
    ++sub[2][static_cast<std::size_t>(p[(k + 2) * stride_bytes])];
    ++sub[3][static_cast<std::size_t>(p[(k + 3) * stride_bytes])];
  }
  scalar::HistogramStride(p + main * stride_bytes, count - main, stride_bytes,
                          hist);
  for (std::size_t b = 0; b < 256; ++b) {
    hist[b] += sub[0][b] + sub[1][b] + sub[2][b] + sub[3][b];
  }
}

}  // namespace primacy::kernels::detail
