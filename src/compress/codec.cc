#include "compress/codec.h"

#include <algorithm>
#include <vector>

#include "util/error.h"
#include "util/timer.h"

namespace primacy {
namespace {

double Median(std::vector<double> seconds) {
  const auto mid =
      seconds.begin() + static_cast<std::ptrdiff_t>(seconds.size() / 2);
  std::nth_element(seconds.begin(), mid, seconds.end());
  return *mid;
}

}  // namespace

void Codec::DecompressInto(ByteSpan data, MutableByteSpan out) const {
  const Bytes decoded = Decompress(data);
  if (decoded.size() != out.size()) {
    throw CorruptStreamError(std::string(name()) +
                             ": decompressed size mismatch");
  }
  std::copy(decoded.begin(), decoded.end(), out.begin());
}

double CodecMeasurement::CompressionRatio() const {
  if (compressed_bytes == 0) return 0.0;
  return static_cast<double>(original_bytes) /
         static_cast<double>(compressed_bytes);
}

double CodecMeasurement::CompressMBps() const {
  return ThroughputMBps(original_bytes, compress_seconds);
}

double CodecMeasurement::DecompressMBps() const {
  return ThroughputMBps(original_bytes, decompress_seconds);
}

CodecMeasurement MeasureCodec(const Codec& codec, ByteSpan data) {
  CodecMeasurement m;
  m.original_bytes = data.size();

  WallTimer timer;
  const Bytes compressed = codec.Compress(data);
  m.compress_seconds = timer.Seconds();
  m.compressed_bytes = compressed.size();

  timer.Reset();
  const Bytes restored = codec.Decompress(compressed);
  m.decompress_seconds = timer.Seconds();

  if (restored.size() != data.size() ||
      !std::equal(restored.begin(), restored.end(), data.begin())) {
    throw InternalError(std::string("MeasureCodec: roundtrip mismatch for ") +
                        std::string(codec.name()));
  }
  return m;
}

std::pair<CodecMeasurement, CodecMeasurement> MedianInterleaved(
    const Codec& a, const Codec& b, ByteSpan data, std::size_t rounds) {
  if (rounds == 0) {
    throw InvalidArgumentError("MedianInterleaved: rounds must be > 0");
  }
  std::vector<CodecMeasurement> runs[2];
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::size_t first = r % 2;
    runs[first].push_back(MeasureCodec(first == 0 ? a : b, data));
    runs[1 - first].push_back(MeasureCodec(first == 0 ? b : a, data));
  }
  CodecMeasurement medians[2];
  for (std::size_t i = 0; i < 2; ++i) {
    std::vector<double> compress;
    std::vector<double> decompress;
    for (const CodecMeasurement& run : runs[i]) {
      compress.push_back(run.compress_seconds);
      decompress.push_back(run.decompress_seconds);
    }
    medians[i] = runs[i].front();
    medians[i].compress_seconds = Median(compress);
    medians[i].decompress_seconds = Median(decompress);
  }
  return {medians[0], medians[1]};
}

}  // namespace primacy
