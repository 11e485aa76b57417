#include "isobar/analyzer.h"

#include <algorithm>
#include <array>

#include "bitstream/byte_io.h"
#include "kernels/kernels.h"
#include "util/error.h"
#include "util/stats.h"

namespace primacy {

std::vector<std::size_t> IsobarPlan::CompressibleColumns() const {
  std::vector<std::size_t> out;
  for (const ColumnAnalysis& col : columns) {
    if (col.compressible) out.push_back(col.column);
  }
  return out;
}

std::vector<std::size_t> IsobarPlan::IncompressibleColumns() const {
  std::vector<std::size_t> out;
  for (const ColumnAnalysis& col : columns) {
    if (!col.compressible) out.push_back(col.column);
  }
  return out;
}

double IsobarPlan::CompressibleFraction() const {
  if (columns.empty()) return 0.0;
  return static_cast<double>(CompressibleColumns().size()) /
         static_cast<double>(columns.size());
}

IsobarPlan AnalyzeColumns(ByteSpan rows, std::size_t width,
                          const IsobarOptions& options) {
  if (width == 0) throw InvalidArgumentError("AnalyzeColumns: width 0");
  if (rows.size() % width != 0) {
    throw InvalidArgumentError(
        "AnalyzeColumns: size not a multiple of width");
  }
  if (options.sample_bytes == 0) {
    throw InvalidArgumentError("AnalyzeColumns: sample_bytes must be > 0");
  }
  const std::size_t n = rows.size() / width;

  IsobarPlan plan;
  plan.width = width;
  plan.columns.reserve(width);
  for (std::size_t col = 0; col < width; ++col) {
    ColumnAnalysis analysis;
    analysis.column = col;
    if (n > 0) {
      // Strided deterministic sample of the column from row 0, accumulated
      // by the dispatched histogram kernel. `taken` is the trip count of the
      // historical loop: i = 0, stride, ... while i < n, capped at
      // `samples`.
      const std::size_t samples = std::min(options.sample_bytes, n);
      const std::size_t stride = std::max<std::size_t>(1, n / samples);
      const std::size_t taken = std::min(samples, (n - 1) / stride + 1);
      std::array<std::uint64_t, 256> histogram{};
      kernels::Active().histogram_stride(rows.data() + col, taken,
                                         stride * width, histogram.data());
      analysis.entropy_bits = HistogramEntropyBits(histogram);
      const std::uint64_t top =
          *std::max_element(histogram.begin(), histogram.end());
      analysis.top_frequency =
          static_cast<double>(top) / static_cast<double>(taken);
    }
    analysis.compressible =
        n > 0 && (analysis.entropy_bits < options.entropy_threshold_bits ||
                  analysis.top_frequency > options.top_frequency_threshold);
    plan.columns.push_back(analysis);
  }
  return plan;
}

Bytes SerializePlan(const IsobarPlan& plan) {
  Bytes out;
  PutVarint(out, plan.width);
  PutVarint(out, plan.columns.size());
  std::uint8_t bits = 0;
  std::size_t filled = 0;
  for (const ColumnAnalysis& col : plan.columns) {
    bits = static_cast<std::uint8_t>(bits |
                                     ((col.compressible ? 1u : 0u) << filled));
    if (++filled == 8) {
      PutU8(out, bits);
      bits = 0;
      filled = 0;
    }
  }
  if (filled != 0) PutU8(out, bits);
  return out;
}

IsobarPlan DeserializePlan(ByteSpan data) {
  ByteReader reader(data);
  IsobarPlan plan;
  plan.width = reader.GetVarint();
  if (plan.width > kMaxIsobarWidth) {
    throw CorruptStreamError("DeserializePlan: implausible element width");
  }
  const std::uint64_t count = reader.GetVarint();
  if (count > plan.width) {
    throw CorruptStreamError("DeserializePlan: more columns than width");
  }
  std::uint8_t bits = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    if (i % 8 == 0) bits = reader.GetU8();
    ColumnAnalysis analysis;
    analysis.column = i;
    analysis.compressible = ((bits >> (i % 8)) & 1u) != 0;
    plan.columns.push_back(analysis);
  }
  return plan;
}

}  // namespace primacy
