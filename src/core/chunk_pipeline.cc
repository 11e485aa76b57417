#include "core/chunk_pipeline.h"

#include <cstring>
#include <limits>
#include <vector>

#include "bitstream/byte_io.h"
#include "core/id_mapper.h"
#include "isobar/partitioned_codec.h"
#include "telemetry/metrics.h"
#include "telemetry/stage_stack.h"
#include "telemetry/trace.h"
#include "util/byte_matrix.h"
#include "util/error.h"
#include "util/stats.h"

namespace primacy {
namespace {

constexpr std::size_t kHighWidth = 2;

/// Frequency-vector correlation above which kReuseWhenCorrelated keeps the
/// previous chunk's index.
constexpr double kIndexReuseCorrelation = 0.95;

/// Per-chunk per-stage durations: 1 µs up to ~1 s, one bucket per decade.
constexpr std::array<double, 7> kStageSecondsBounds = {
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0};

/// Registry handles for the encode/decode pipelines, resolved once. The
/// per-stage counters live in one family keyed by a `stage` label so a
/// Prometheus scrape can compute stage shares with a single sum().
struct PipelineMetrics {
  telemetry::Counter& encode_chunks;
  telemetry::Counter& encode_input_bytes;
  telemetry::Counter& encode_output_bytes;
  telemetry::Counter& decode_chunks;
  telemetry::Counter& decode_output_bytes;
  telemetry::Histogram& encode_chunk_bytes;
  std::array<telemetry::Counter*, telemetry::kStageCount> encode_stage_ns;
  std::array<telemetry::Counter*, telemetry::kStageCount> decode_stage_ns;
  std::array<telemetry::Histogram*, telemetry::kStageCount>
      encode_stage_seconds;
  std::array<telemetry::Histogram*, telemetry::kStageCount>
      decode_stage_seconds;

  static PipelineMetrics& Get() {
    static PipelineMetrics* metrics = [] {
      // Record-size buckets from 1 KiB to 16 MiB, one per factor of 4.
      static constexpr std::array<double, 7> kChunkBytesBounds = {
          1024.0, 4096.0, 16384.0, 65536.0, 262144.0, 1048576.0, 4194304.0};
      auto& registry = telemetry::MetricsRegistry::Global();
      auto* m = new PipelineMetrics{
          registry.GetCounter("primacy_encode_chunks_total"),
          registry.GetCounter("primacy_encode_input_bytes_total"),
          registry.GetCounter("primacy_encode_output_bytes_total"),
          registry.GetCounter("primacy_decode_chunks_total"),
          registry.GetCounter("primacy_decode_output_bytes_total"),
          registry.GetHistogram("primacy_encode_chunk_bytes", kChunkBytesBounds),
          {},
          {},
          {},
          {}};
      for (std::size_t s = 0; s < telemetry::kStageCount; ++s) {
        const auto stage = static_cast<telemetry::Stage>(s);
        const std::string label =
            "stage=\"" + std::string(telemetry::StageName(stage)) + "\"";
        m->encode_stage_ns[s] =
            &registry.GetCounter("primacy_encode_stage_ns_total", label);
        m->decode_stage_ns[s] =
            &registry.GetCounter("primacy_decode_stage_ns_total", label);
        m->encode_stage_seconds[s] = &registry.GetHistogram(
            "primacy_encode_stage_seconds", kStageSecondsBounds, label);
        m->decode_stage_seconds[s] = &registry.GetHistogram(
            "primacy_decode_stage_seconds", kStageSecondsBounds, label);
      }
      return m;
    }();
    return *metrics;
  }
};

/// Publishes one chunk's stage laps to the registry counter family and the
/// matching per-chunk duration histograms.
void PublishStageNs(
    const std::array<telemetry::Counter*, telemetry::kStageCount>& counters,
    const std::array<telemetry::Histogram*, telemetry::kStageCount>& seconds,
    const telemetry::StageBreakdown& breakdown) {
  for (std::size_t s = 0; s < telemetry::kStageCount; ++s) {
    if (breakdown.ns[s] != 0) {
      counters[s]->Increment(breakdown.ns[s]);
      seconds[s]->Observe(static_cast<double>(breakdown.ns[s]) * 1e-9);
    }
  }
}

Bytes ToBigEndianRows(ByteSpan chunk, std::size_t width) {
  if (width == 8) return DoublesToBigEndianRows(FromBytes<double>(chunk));
  PRIMACY_CHECK(width == 4);
  return FloatsToBigEndianRows(FromBytes<float>(chunk));
}

double FrequencyCorrelation(const PairFrequency& a, const PairFrequency& b) {
  std::vector<std::uint64_t> va(a.counts.begin(), a.counts.end());
  std::vector<std::uint64_t> vb(b.counts.begin(), b.counts.end());
  return PearsonCorrelation(va, vb);
}

}  // namespace

std::span<const double> StageSecondsBounds() { return kStageSecondsBounds; }

void AccumulateChunkStats(PrimacyStats& totals, const ChunkRecordStats& chunk) {
  totals.chunks += 1;
  if (chunk.emitted_full_index) totals.indexes_emitted += 1;
  if (chunk.emitted_delta_index) totals.delta_indexes += 1;
  totals.index_bytes += chunk.index_bytes;
  totals.id_compressed_bytes += chunk.id_compressed_bytes;
  totals.mantissa_stream_bytes += chunk.mantissa_stream_bytes;
  totals.mantissa_raw_bytes += chunk.mantissa_raw_bytes;
  // Accumulated as running sums; FinalizeChunkStatMeans divides by chunks.
  totals.mean_compressible_fraction += chunk.compressible_fraction;
  totals.top_byte_frequency_before += chunk.top_byte_frequency_before;
  totals.top_byte_frequency_after += chunk.top_byte_frequency_after;
  totals.stage.Accumulate(chunk.stage);
}

void FinalizeChunkStatMeans(PrimacyStats& totals) {
  if (totals.chunks == 0) return;
  const double n = static_cast<double>(totals.chunks);
  totals.mean_compressible_fraction /= n;
  totals.top_byte_frequency_before /= n;
  totals.top_byte_frequency_after /= n;
}

ChunkEncoder::ChunkEncoder(const PrimacyOptions& options, const Codec& solver)
    : options_(options), solver_(solver) {}

void ChunkEncoder::Reset() {
  prev_freq_.reset();
  prev_index_.reset();
}

ChunkRecordStats ChunkEncoder::EncodeChunk(ByteSpan chunk, Bytes& out) {
  const std::size_t width = ElementWidth(options_.precision);
  if (chunk.empty() || chunk.size() % width != 0) {
    throw InvalidArgumentError("ChunkEncoder: chunk size must be a non-zero "
                               "multiple of the element width");
  }
  const std::size_t record_start = out.size();
  const std::size_t count = chunk.size() / width;
  telemetry::TraceSpan span("primacy.encode_chunk", "elements",
                            static_cast<std::uint64_t>(count));
  ChunkRecordStats stats;
  stats.elements = count;
  telemetry::StageClock clock;
  // Marks the worker's live stage for the sampling profiler; retargeted at
  // each stage boundary alongside the lap-timer charge.
  telemetry::StageScope profile(telemetry::Stage::kSplit);

  // 1. Big-endian byte significance, then the high/low split.
  const Bytes rows = ToBigEndianRows(chunk, width);
  const SplitBytes split = SplitHighLow(rows, width, kHighWidth);
  clock.Lap(stats.stage, telemetry::Stage::kSplit);
  profile.Switch(telemetry::Stage::kFrequency);

  // 2. Frequency analysis + index selection. Under kReuseWhenCorrelated, a
  // chunk whose frequency vector correlates with the previous chunk's keeps
  // the previous ID assignment; unseen sequences are appended as a small
  // delta (paper Section II-F's "more intelligent indexing scheme"). Old IDs
  // never change, so decoding stays in lockstep.
  AnalyzePairFrequencyInto(split.high, freq_scratch_);
  const PairFrequency& freq = freq_scratch_;
  enum class IndexAction { kFresh, kReuse, kDelta };
  IndexAction action = IndexAction::kFresh;
  std::vector<std::uint16_t> delta;
  if (options_.index_mode == IndexMode::kReuseWhenCorrelated &&
      prev_index_.has_value() && prev_freq_.has_value() &&
      FrequencyCorrelation(*prev_freq_, freq) >= kIndexReuseCorrelation) {
    delta = prev_index_->MissingSequences(freq);
    if (delta.empty()) {
      action = IndexAction::kReuse;
    } else if (delta.size() <= prev_index_->size() / 4 + 16) {
      action = IndexAction::kDelta;
    }
  }
  if (action == IndexAction::kFresh) {
    prev_index_ = IdIndex::FromFrequency(freq);
  } else if (action == IndexAction::kDelta) {
    prev_index_ = prev_index_->Extended(delta);
  }
  // Swap (not copy) the counts into prev_freq_; next chunk's analyze will
  // overwrite freq_scratch_ anyway, so nothing is lost and no 256 KiB copy
  // happens per chunk.
  if (!prev_freq_.has_value()) prev_freq_.emplace();
  std::swap(prev_freq_->counts, freq_scratch_.counts);
  const IdIndex& index = *prev_index_;
  clock.Lap(stats.stage, telemetry::Stage::kFrequency);
  profile.Switch(telemetry::Stage::kIdMap);

  // 3-4. ID mapping, linearization, solver compression.
  const Bytes id_bytes = MapToIds(split.high, index, options_.linearization);
  clock.Lap(stats.stage, telemetry::Stage::kIdMap);
  profile.Switch(telemetry::Stage::kSolver);
  const Bytes id_compressed = solver_.Compress(id_bytes);
  clock.Lap(stats.stage, telemetry::Stage::kSolver);
  profile.Switch(telemetry::Stage::kIsobar);

  // 5. ISOBAR on the mantissa matrix.
  const IsobarCompressed mantissa =
      IsobarCompress(split.low, width - kHighWidth, solver_, options_.isobar);
  clock.Lap(stats.stage, telemetry::Stage::kIsobar);
  profile.Switch(telemetry::Stage::kSerialize);

  // 6. Chunk record.
  PutVarint(out, count);
  switch (action) {
    case IndexAction::kReuse:
      PutU8(out, 0);
      break;
    case IndexAction::kFresh: {
      PutU8(out, 1);
      const Bytes serialized_index = SerializeIndex(index);
      stats.index_bytes = serialized_index.size();
      stats.emitted_full_index = true;
      PutBlock(out, serialized_index);
      break;
    }
    case IndexAction::kDelta: {
      PutU8(out, 2);
      const Bytes serialized_delta = SerializeSequenceList(delta);
      stats.index_bytes = serialized_delta.size();
      stats.emitted_delta_index = true;
      PutBlock(out, serialized_delta);
      break;
    }
  }
  PutBlock(out, id_compressed);
  PutBlock(out, mantissa.stream);

  stats.record_bytes = out.size() - record_start;
  stats.id_compressed_bytes = id_compressed.size();
  stats.mantissa_stream_bytes = mantissa.stream.size();
  stats.mantissa_raw_bytes = mantissa.raw_bytes;
  stats.compressible_fraction = mantissa.plan.CompressibleFraction();
  stats.top_byte_frequency_before = TopByteFrequency(split.high);
  stats.top_byte_frequency_after = TopByteFrequency(id_bytes);
  clock.Lap(stats.stage, telemetry::Stage::kSerialize);

  if constexpr (telemetry::kEnabled) {
    PipelineMetrics& metrics = PipelineMetrics::Get();
    metrics.encode_chunks.Increment();
    metrics.encode_input_bytes.Increment(chunk.size());
    metrics.encode_output_bytes.Increment(stats.record_bytes);
    metrics.encode_chunk_bytes.Observe(
        static_cast<double>(stats.record_bytes));
    PublishStageNs(metrics.encode_stage_ns, metrics.encode_stage_seconds,
                   stats.stage);
  }
  return stats;
}

ChunkDecoder::ChunkDecoder(const Codec& solver, Linearization linearization,
                           std::size_t element_width)
    : solver_(solver), linearization_(linearization), width_(element_width) {
  if (width_ != 4 && width_ != 8) {
    throw InvalidArgumentError("ChunkDecoder: unsupported element width");
  }
}

void ChunkDecoder::DecodeChunk(ByteReader& reader, std::uint64_t count,
                               Bytes& out) {
  if (count == 0) {
    throw CorruptStreamError("primacy: bad chunk element count");
  }
  const std::size_t old_size = out.size();
  // Overflow-safe: a tampered count must not wrap the byte extent and
  // shrink the buffer the decode loop then writes past.
  if (count > (std::numeric_limits<std::size_t>::max() - old_size) / width_) {
    throw CorruptStreamError("primacy: chunk element count overflows");
  }
  out.resize(old_size + static_cast<std::size_t>(count) * width_);
  DecodeChunkInto(reader, count, MutableByteSpan(out).subspan(old_size));
}

void ChunkDecoder::AddStageNs(telemetry::Stage stage, std::uint64_t ns) {
  if constexpr (telemetry::kEnabled) {
    if (ns == 0) return;
    stage_[stage] += ns;
    PipelineMetrics::Get()
        .decode_stage_ns[static_cast<std::size_t>(stage)]
        ->Increment(ns);
  } else {
    (void)stage;
    (void)ns;
  }
}

void ChunkDecoder::DecodeChunkInto(ByteReader& reader, std::uint64_t count,
                                   MutableByteSpan out) {
  if (count == 0) {
    throw CorruptStreamError("primacy: bad chunk element count");
  }
  // Division, not multiplication: `count` comes off the wire, and a wrapped
  // count * width_ could alias a small buffer while the merge loop below
  // iterates the unwrapped count.
  if (out.size() % width_ != 0 || out.size() / width_ != count) {
    throw CorruptStreamError("primacy: chunk element count mismatch");
  }
  telemetry::TraceSpan span("primacy.decode_chunk", "elements", count);
  telemetry::StageBreakdown laps;
  telemetry::StageClock clock;
  telemetry::StageScope profile(telemetry::Stage::kFrequency);
  const std::uint8_t index_flag = reader.GetU8();
  if (index_flag == 1) {
    index_ = DeserializeIndex(reader.GetBlock());
  } else if (index_flag == 2) {
    if (!index_.has_value()) {
      throw CorruptStreamError("primacy: delta without a base index");
    }
    index_ = index_->Extended(DeserializeSequenceList(reader.GetBlock()));
  } else if (index_flag != 0 || !index_.has_value()) {
    throw CorruptStreamError("primacy: missing index");
  }
  // Index deserialization restores the frequency-ranked ID table, so it is
  // charged to the frequency stage (its encode-side dual).
  clock.Lap(laps, telemetry::Stage::kFrequency);
  profile.Switch(telemetry::Stage::kSolver);
  // The ID plane and the solved mantissa columns decode into scratch this
  // decoder reuses across chunks; `count` is checked against out.size()
  // above, so these sizes are bounded by the caller's buffer.
  const std::size_t n = static_cast<std::size_t>(count);
  ids_.resize(n * kHighWidth);
  solver_.DecompressInto(reader.GetBlock(), ids_);
  clock.Lap(laps, telemetry::Stage::kSolver);
  profile.Switch(telemetry::Stage::kIdMap);
  MapFromIdsInto(ids_, *index_, linearization_, high_);
  clock.Lap(laps, telemetry::Stage::kIdMap);
  profile.Switch(telemetry::Stage::kIsobar);
  const IsobarColumns low = IsobarDecodeColumns(
      reader.GetBlock(), solver_, n, width_ - kHighWidth, columns_);
  clock.Lap(laps, telemetry::Stage::kIsobar);
  profile.Switch(telemetry::Stage::kMerge);
  // Fused merge: each native element is assembled once from its two high
  // bytes and one byte of each mantissa column (big-endian order), with no
  // row matrix in between.
  const std::byte* hi = high_.data();
  std::byte* dst = out.data();
  const auto byte = [](const std::byte* column, std::size_t i,
                       unsigned shift) {
    return static_cast<std::uint64_t>(column[i]) << shift;
  };
  if (width_ == 8) {
    const auto& c = low.column;
    for (std::size_t i = 0; i < n; ++i, hi += kHighWidth, dst += 8) {
      const std::uint64_t bits =
          byte(hi, 0, 56) | byte(hi, 1, 48) | byte(c[0], i, 40) |
          byte(c[1], i, 32) | byte(c[2], i, 24) | byte(c[3], i, 16) |
          byte(c[4], i, 8) | byte(c[5], i, 0);
      std::memcpy(dst, &bits, 8);
    }
  } else {
    const auto& c = low.column;
    for (std::size_t i = 0; i < n; ++i, hi += kHighWidth, dst += 4) {
      const auto bits = static_cast<std::uint32_t>(
          byte(hi, 0, 24) | byte(hi, 1, 16) | byte(c[0], i, 8) |
          byte(c[1], i, 0));
      std::memcpy(dst, &bits, 4);
    }
  }
  clock.Lap(laps, telemetry::Stage::kMerge);

  if constexpr (telemetry::kEnabled) {
    stage_.Accumulate(laps);
    PipelineMetrics& metrics = PipelineMetrics::Get();
    metrics.decode_chunks.Increment();
    metrics.decode_output_bytes.Increment(out.size());
    PublishStageNs(metrics.decode_stage_ns, metrics.decode_stage_seconds,
                   laps);
  }
}

}  // namespace primacy
