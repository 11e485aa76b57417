#include "solver_replay.h"

#include <algorithm>

#include "core/frequency.h"
#include "core/primacy_codec.h"
#include "core/id_mapper.h"
#include "deflate/deflate.h"
#include "harness.h"
#include "isobar/analyzer.h"
#include "isobar/partitioned_codec.h"
#include "lz77/lz77.h"
#include "util/byte_matrix.h"
#include "util/checksum.h"

namespace perfbench {
namespace {

using primacy::ByteSpan;
using primacy::Bytes;

constexpr std::size_t kWidth = 8;
constexpr std::size_t kHighWidth = 2;
constexpr std::size_t kLowWidth = kWidth - kHighWidth;

/// A timed interval; Emit records it as a span.
struct Lap {
  std::uint64_t start = NowNs();
  std::uint64_t end = 0;
  std::uint64_t Stop() {
    end = NowNs();
    return end - start;
  }
};

std::uint64_t Emit(const char* name, std::uint64_t parent, std::uint64_t group,
                   const Lap& lap, std::uint64_t bytes, bool nested = true) {
  return Tracer::Get().Record(name, parent, group, lap.start, lap.end, bytes,
                              0, nested);
}

const primacy::DeflateCodec& Solver() {
  static const primacy::DeflateCodec solver;  // the "deflate" registry entry
  return solver;
}

/// deflate.encode of `data` with its lz77.parse replay as a child.
Bytes DeflateEncode(ByteSpan data, std::uint64_t parent, std::uint64_t group,
                    StageTotals& t, std::vector<primacy::LzToken>& tokens) {
  Lap encode;
  Bytes out = Solver().Compress(data);
  const std::uint64_t encode_ns = encode.Stop();
  const std::uint64_t id =
      Emit("deflate.encode", parent, group, encode, data.size());
  Lap parse;
  tokens = primacy::LzParse(data, primacy::LzParams::Default());
  t.lz_parse_ns += parse.Stop();
  Emit("lz77.parse", id, group, parse, data.size());
  t.lz_parse_bytes += data.size();
  t.lz_tokens += tokens.size();
  t.deflate_encode_ns += encode_ns;
  t.deflate_encode_bytes += data.size();
  if (!data.empty()) {
    t.deflate_calls += 1;
    if (out.size() >= data.size()) t.deflate_stored_calls += 1;
  }
  return out;
}

/// deflate.decode of `compressed` with LzExpand timed beside it. `ok`
/// turns false when either output is not the `expected_size` bytes the
/// encode replay parsed.
Bytes DeflateDecode(ByteSpan compressed,
                    const std::vector<primacy::LzToken>& tokens,
                    std::size_t expected_size, std::uint64_t parent,
                    std::uint64_t group, StageTotals& t, bool& ok) {
  Lap decode;
  Bytes out = Solver().Decompress(compressed);
  t.deflate_decode_ns += decode.Stop();
  t.deflate_decode_bytes += out.size();
  const std::uint64_t id =
      Emit("deflate.decode", parent, group, decode, compressed.size());
  Lap expand;
  const Bytes expanded = primacy::LzExpand(tokens, expected_size);
  t.lz_expand_ns += expand.Stop();
  t.lz_expand_bytes += expanded.size();
  Emit("lz77.expand", id, group, expand, expected_size, /*nested=*/false);
  ok = ok && out.size() == expected_size && expanded == out;
  return out;
}

/// util.checksum: XXH64 over a chunk record's bytes (its ID and ISOBAR
/// blocks), as the v3 writer and verifying reader do.
void ReplayChecksum(const ChunkArtifacts& a, std::uint64_t parent,
                    std::uint64_t group, StageTotals& t) {
  Lap lap;
  t.checksum_digest ^= primacy::Xxh64(a.id_compressed) ^
                       primacy::Xxh64(a.isobar_stream);
  t.checksum_ns += lap.Stop();
  const std::uint64_t record = a.id_compressed.size() + a.isobar_stream.size();
  t.checksum_bytes += record;
  Emit("util.checksum", parent, group, lap, record);
}

ChunkArtifacts EncodeChunk(ByteSpan chunk, std::uint64_t parent,
                           std::uint64_t group, StageTotals& t) {
  ChunkArtifacts a;
  a.count = chunk.size() / kWidth;
  t.chunks += 1;
  t.encode_bytes += chunk.size();

  Lap split_lap;
  const Bytes rows =
      primacy::DoublesToBigEndianRows(primacy::FromBytes<double>(chunk));
  const primacy::SplitBytes split =
      primacy::SplitHighLow(rows, kWidth, kHighWidth);
  t.split_ns += split_lap.Stop();
  std::uint64_t stages = split_lap.end - split_lap.start;
  Emit("kernels.split", parent, group, split_lap, chunk.size());

  Lap freq_lap;
  primacy::PairFrequency freq;
  primacy::AnalyzePairFrequencyInto(split.high, freq);
  const primacy::IdIndex index = primacy::IdIndex::FromFrequency(freq);
  a.index = primacy::SerializeIndex(index);
  t.frequency_ns += freq_lap.Stop();
  stages += freq_lap.end - freq_lap.start;
  Emit("core.frequency", parent, group, freq_lap, split.high.size());
  t.distinct_pairs += freq.DistinctSequences();

  Lap map_lap;
  const Bytes ids =
      primacy::MapToIds(split.high, index, primacy::Linearization::kColumn);
  t.idmap_ns += map_lap.Stop();
  stages += map_lap.end - map_lap.start;
  Emit("core.idmap", parent, group, map_lap, split.high.size());

  a.id_bytes = ids.size();
  const std::uint64_t ids_before = t.deflate_encode_ns;
  a.id_compressed = DeflateEncode(ids, parent, group, t, a.id_tokens);
  stages += t.deflate_encode_ns - ids_before;
  t.id_in += ids.size();
  t.id_out += a.id_compressed.size();

  // isobar.encode is the pipeline's ISOBAR stage: analyze, gather the
  // compressible columns, solver-compress them, frame the rest raw.
  Lap isobar_lap;
  const primacy::IsobarCompressed mantissa =
      primacy::IsobarCompress(split.low, kLowWidth, Solver(), {});
  const std::uint64_t isobar_ns = isobar_lap.Stop();
  stages += isobar_ns;
  const std::uint64_t isobar_id =
      Emit("isobar.encode", parent, group, isobar_lap, split.low.size());
  a.isobar_stream = mantissa.stream;
  t.isobar_encode_ns += isobar_ns;
  t.isobar_bytes += split.low.size();

  Lap analyze_lap;
  const primacy::IsobarPlan plan =
      primacy::AnalyzeColumns(split.low, kLowWidth, {});
  t.isobar_analyze_ns += analyze_lap.Stop();
  Emit("isobar.analyze", isobar_id, group, analyze_lap, split.low.size());
  t.compressible_cols += plan.CompressibleColumns().size();
  t.total_cols += plan.columns.size();

  Bytes columns;
  for (const std::size_t c : plan.CompressibleColumns()) {
    primacy::AppendBytes(columns,
                         primacy::ExtractColumn(split.low, kLowWidth, c));
  }
  a.column_bytes = columns.size();
  const std::uint64_t solver_before = t.deflate_encode_ns;
  a.columns_compressed =
      DeflateEncode(columns, isobar_id, group, t, a.column_tokens);
  t.isobar_solver_ns += t.deflate_encode_ns - solver_before;
  t.mantissa_in += columns.size();
  t.mantissa_out += a.columns_compressed.size();

  const std::uint64_t checksum_before = t.checksum_ns;
  ReplayChecksum(a, parent, group, t);
  stages += t.checksum_ns - checksum_before;
  t.encode_stages_ns += stages;
  return a;
}

bool DecodeChunk(ByteSpan native, const ChunkArtifacts& a,
                 std::uint64_t parent, std::uint64_t group, StageTotals& t) {
  t.decode_bytes += native.size();
  ReplayChecksum(a, parent, group, t);

  Lap index_lap;
  const primacy::IdIndex index = primacy::DeserializeIndex(a.index);
  index_lap.Stop();
  Emit("core.index", parent, group, index_lap, a.index.size());

  bool ok = true;
  const Bytes ids = DeflateDecode(a.id_compressed, a.id_tokens, a.id_bytes,
                                  parent, group, t, ok);

  Lap unmap_lap;
  const Bytes high =
      primacy::MapFromIds(ids, index, primacy::Linearization::kColumn);
  t.idunmap_ns += unmap_lap.Stop();
  Emit("core.idunmap", parent, group, unmap_lap, ids.size());

  Lap isobar_lap;
  const Bytes low = primacy::IsobarDecompress(a.isobar_stream, Solver());
  t.isobar_decode_ns += isobar_lap.Stop();
  const std::uint64_t isobar_id = Emit("isobar.decode", parent, group,
                                       isobar_lap, a.isobar_stream.size());
  t.isobar_decode_bytes += low.size();
  DeflateDecode(a.columns_compressed, a.column_tokens, a.column_bytes,
                isobar_id, group, t, ok);

  Lap merge_lap;
  const Bytes rows = primacy::MergeHighLow(high, low, kWidth, kHighWidth);
  const std::vector<double> values = primacy::BigEndianRowsToDoubles(rows);
  t.merge_ns += merge_lap.Stop();
  Emit("kernels.merge", parent, group, merge_lap, native.size());

  return ok && values.size() * kWidth == native.size() &&
         primacy::AsBytes(values).size() == native.size() &&
         std::equal(native.begin(), native.end(),
                    primacy::AsBytes(values).begin());
}

}  // namespace

primacy::PrimacyOptions SerialOptions() {
  primacy::PrimacyOptions options;
  options.threads = 1;
  return options;
}

EncodeReplay ReplayEncode(ByteSpan native, std::uint64_t parent,
                          std::uint64_t group, StageTotals& totals) {
  const primacy::PrimacyOptions options = SerialOptions();
  EncodeReplay out;
  primacy::PrimacyStats stats;
  Lap lap;
  out.stream = primacy::PrimacyCompressor(options).CompressBytes(native, &stats);
  totals.core_encode_ns += lap.Stop();
  totals.core_encode_bytes += native.size();
  totals.reported_isobar_ns += stats.stage[primacy::telemetry::Stage::kIsobar];
  totals.reported_total_ns += stats.stage.TotalNs();
  const std::uint64_t id =
      Emit("core.encode", parent, group, lap, native.size());
  for (std::size_t offset = 0; offset < native.size();
       offset += options.chunk_bytes) {
    const std::size_t size =
        std::min(options.chunk_bytes, native.size() - offset);
    out.chunks.push_back(
        EncodeChunk(native.subspan(offset, size), id, group, totals));
  }
  return out;
}

bool ReplayDecode(ByteSpan native, const EncodeReplay& encoded,
                  std::uint64_t parent, std::uint64_t group,
                  StageTotals& totals) {
  const primacy::PrimacyOptions options = SerialOptions();
  Lap lap;
  const Bytes decoded =
      primacy::PrimacyDecompressor(options).DecompressBytes(encoded.stream);
  totals.core_decode_ns += lap.Stop();
  totals.core_decode_bytes += decoded.size();
  const std::uint64_t id =
      Emit("core.decode", parent, group, lap, encoded.stream.size());
  bool ok = decoded.size() == native.size() &&
            std::equal(decoded.begin(), decoded.end(), native.begin());
  std::size_t offset = 0;
  for (const ChunkArtifacts& chunk : encoded.chunks) {
    const std::size_t size = chunk.count * kWidth;
    ok = DecodeChunk(native.subspan(offset, size), chunk, id, group, totals) &&
         ok;
    offset += size;
  }
  return ok;
}

namespace {

double Ratio(std::uint64_t num, std::uint64_t den) {
  return perfbench::Ratio(static_cast<double>(num), static_cast<double>(den));
}

double SignedShare(std::uint64_t whole, std::uint64_t part) {
  return whole == 0 ? 0.0
                    : (static_cast<double>(whole) - static_cast<double>(part)) /
                          static_cast<double>(whole);
}

}  // namespace

void ReportStageMetrics(Report& r, const StageTotals& t) {
  r.Set("lz77.parse_ns_per_B", Ratio(t.lz_parse_ns, t.lz_parse_bytes));
  r.Set("lz77.tokens_per_B", Ratio(t.lz_tokens, t.lz_parse_bytes));
  r.Set("lz77.expand_ns_per_B", Ratio(t.lz_expand_ns, t.lz_expand_bytes));
  r.Set("deflate.encode_ns_per_B",
        Ratio(t.deflate_encode_ns, t.deflate_encode_bytes));
  r.Set("huffman.encode_ns_per_B",
        (static_cast<double>(t.deflate_encode_ns) -
         static_cast<double>(t.lz_parse_ns)) /
            static_cast<double>(std::max<std::uint64_t>(1, t.deflate_encode_bytes)));
  r.Set("deflate.decode_ns_per_B",
        Ratio(t.deflate_decode_ns, t.deflate_decode_bytes));
  r.Set("deflate.stored_frac", Ratio(t.deflate_stored_calls, t.deflate_calls));
  r.Set("deflate.id_ratio", Ratio(t.id_in, t.id_out));
  r.Set("deflate.mantissa_ratio", Ratio(t.mantissa_in, t.mantissa_out));
  r.Set("isobar.analyze_ns_per_B", Ratio(t.isobar_analyze_ns, t.isobar_bytes));
  r.Set("isobar.self_ns_per_B",
        (static_cast<double>(t.isobar_encode_ns) -
         static_cast<double>(t.isobar_analyze_ns) -
         static_cast<double>(t.isobar_solver_ns)) /
            static_cast<double>(std::max<std::uint64_t>(1, t.isobar_bytes)));
  r.Set("isobar.solver_share", Ratio(t.isobar_solver_ns, t.isobar_encode_ns));
  r.Set("isobar.compressible_col_frac",
        Ratio(t.compressible_cols, t.total_cols));
  r.Set("isobar.decode_ns_per_B",
        Ratio(t.isobar_decode_ns, t.isobar_decode_bytes));
  r.Set("core.frequency_ns_per_B", Ratio(t.frequency_ns, t.encode_bytes));
  r.Set("core.idmap_ns_per_B", Ratio(t.idmap_ns, t.encode_bytes));
  r.Set("core.idunmap_ns_per_B", Ratio(t.idunmap_ns, t.decode_bytes));
  r.Set("core.distinct_pairs_per_chunk", Ratio(t.distinct_pairs, t.chunks));
  r.Set("core.encode_ns_per_B", Ratio(t.core_encode_ns, t.core_encode_bytes));
  r.Set("core.decode_ns_per_B", Ratio(t.core_decode_ns, t.core_decode_bytes));
  r.Set("core.encode_unattributed_frac",
        SignedShare(t.core_encode_ns, t.encode_stages_ns));
  r.Set("core.stage_isobar_frac_reported",
        Ratio(t.reported_isobar_ns, t.reported_total_ns));
  r.Set("kernels.split_ns_per_B", Ratio(t.split_ns, t.encode_bytes));
  r.Set("kernels.merge_ns_per_B", Ratio(t.merge_ns, t.decode_bytes));
  r.Set("checksum.ns_per_B", Ratio(t.checksum_ns, t.checksum_bytes));
}

void StageTotals::Add(const StageTotals& o) {
  chunks += o.chunks;
  distinct_pairs += o.distinct_pairs;
  encode_bytes += o.encode_bytes;
  encode_stages_ns += o.encode_stages_ns;
  decode_bytes += o.decode_bytes;
  split_ns += o.split_ns;
  frequency_ns += o.frequency_ns;
  idmap_ns += o.idmap_ns;
  idunmap_ns += o.idunmap_ns;
  merge_ns += o.merge_ns;
  checksum_ns += o.checksum_ns;
  checksum_bytes += o.checksum_bytes;
  checksum_digest ^= o.checksum_digest;
  lz_parse_ns += o.lz_parse_ns;
  lz_parse_bytes += o.lz_parse_bytes;
  lz_tokens += o.lz_tokens;
  lz_expand_ns += o.lz_expand_ns;
  lz_expand_bytes += o.lz_expand_bytes;
  deflate_encode_ns += o.deflate_encode_ns;
  deflate_encode_bytes += o.deflate_encode_bytes;
  deflate_decode_ns += o.deflate_decode_ns;
  deflate_decode_bytes += o.deflate_decode_bytes;
  deflate_calls += o.deflate_calls;
  deflate_stored_calls += o.deflate_stored_calls;
  id_in += o.id_in;
  id_out += o.id_out;
  mantissa_in += o.mantissa_in;
  mantissa_out += o.mantissa_out;
  isobar_bytes += o.isobar_bytes;
  isobar_encode_ns += o.isobar_encode_ns;
  isobar_analyze_ns += o.isobar_analyze_ns;
  isobar_solver_ns += o.isobar_solver_ns;
  isobar_decode_ns += o.isobar_decode_ns;
  isobar_decode_bytes += o.isobar_decode_bytes;
  compressible_cols += o.compressible_cols;
  total_cols += o.total_cols;
  core_encode_ns += o.core_encode_ns;
  core_encode_bytes += o.core_encode_bytes;
  core_decode_ns += o.core_decode_ns;
  core_decode_bytes += o.core_decode_bytes;
  reported_isobar_ns += o.reported_isobar_ns;
  reported_total_ns += o.reported_total_ns;
}

}  // namespace perfbench
