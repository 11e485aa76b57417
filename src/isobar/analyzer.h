// ISOBAR analyzer (Schendel et al., ICDE 2012): decides, per byte-column of
// a fixed-width element stream, whether feeding that column to a byte-level
// entropy coder is worth the CPU. Columns whose sampled histogram shows
// exploitable skew are classified compressible; the rest are passed through
// raw so the compressor never burns time on noise (paper Section II-G).
#pragma once

#include <cstdint>
#include <vector>

#include "util/bytes.h"

namespace primacy {

struct IsobarOptions {
  /// Bytes sampled per column; sampling keeps analysis O(sample) per column.
  std::size_t sample_bytes = 4096;
  /// A column is compressible when its sampled byte entropy is below this
  /// many bits/byte...
  double entropy_threshold_bits = 7.8;
  /// ...or its most frequent byte exceeds this fraction (strong skew can
  /// coexist with moderately high entropy).
  double top_frequency_threshold = 0.02;
};

/// Per-column verdict plus the evidence it was based on.
struct ColumnAnalysis {
  std::size_t column = 0;
  double entropy_bits = 8.0;
  double top_frequency = 0.0;
  bool compressible = false;
};

/// Widest element a serialized plan may describe.
inline constexpr std::size_t kMaxIsobarWidth = 64;

/// Partition plan for an N x width byte matrix.
struct IsobarPlan {
  std::size_t width = 0;
  std::vector<ColumnAnalysis> columns;

  /// Convenience: indices of (in)compressible columns, ascending.
  std::vector<std::size_t> CompressibleColumns() const;
  std::vector<std::size_t> IncompressibleColumns() const;
  /// Fraction of the matrix classified compressible (the model's alpha).
  double CompressibleFraction() const;
};

/// Analyzes a row-linearized `width`-byte element matrix column by column.
IsobarPlan AnalyzeColumns(ByteSpan rows, std::size_t width,
                          const IsobarOptions& options = {});

/// Serialization of the plan's verdict bitmap for embedding in containers.
Bytes SerializePlan(const IsobarPlan& plan);
IsobarPlan DeserializePlan(ByteSpan data);

}  // namespace primacy
