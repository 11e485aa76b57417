// The "solver" abstraction of the PRIMACY pipeline: a general-purpose
// lossless byte compressor. PRIMACY is a *preconditioner* — it rewrites data
// so that any Codec implementing this interface compresses it better
// (paper Section II-E).
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "util/bytes.h"

namespace primacy {

/// A lossless byte-stream compressor. Implementations own their container
/// format; Decompress(Compress(x)) == x for every input x, and Decompress
/// throws CorruptStreamError on malformed input rather than returning
/// garbage.
class Codec {
 public:
  virtual ~Codec() = default;

  /// Stable identifier used by the registry and in serialized frames.
  virtual std::string_view name() const = 0;

  /// Compresses `data`. The output embeds everything needed to decompress,
  /// including the original size.
  virtual Bytes Compress(ByteSpan data) const = 0;

  /// Exact inverse of Compress.
  virtual Bytes Decompress(ByteSpan data) const = 0;

  /// Exact inverse of Compress into caller memory: `out` must be exactly
  /// the original size, else CorruptStreamError. The default decompresses
  /// and copies; codecs that can write in place override it.
  virtual void DecompressInto(ByteSpan data, MutableByteSpan out) const;
};

/// Measured single-shot codec performance; feeds the Section III model
/// parameters (Tcomp, compression ratios) and the Table III columns.
struct CodecMeasurement {
  std::size_t original_bytes = 0;
  std::size_t compressed_bytes = 0;
  double compress_seconds = 0.0;
  double decompress_seconds = 0.0;

  /// Paper Eq. (1): original / compressed.
  double CompressionRatio() const;
  /// Paper Eq. (2): original bytes / runtime, in MB/s.
  double CompressMBps() const;
  double DecompressMBps() const;
};

/// Runs one compress+decompress cycle, validates the roundtrip, and returns
/// timings. Throws InternalError if the roundtrip mismatches.
CodecMeasurement MeasureCodec(const Codec& codec, ByteSpan data);

/// Median compress and decompress times of `rounds` (> 0) interleaved
/// MeasureCodec runs of `a` and `b` (alternating which goes first), so a
/// burst of host load hits both codecs alike instead of deciding the
/// comparison. Sizes come from the first run; every run is roundtrip-checked.
std::pair<CodecMeasurement, CodecMeasurement> MedianInterleaved(
    const Codec& a, const Codec& b, ByteSpan data, std::size_t rounds);

}  // namespace primacy
