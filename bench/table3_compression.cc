// Table III: compression ratio (original and permuted-linearization),
// compression throughput and decompression throughput — deflate-class
// solver (zlib stand-in) vs PRIMACY, over all 20 datasets.
//
// Paper conclusions to reproduce: PRIMACY wins CR on 19/20 (msg_sppm is the
// exception), wins CTP/DTP on 19/20, ~13% mean CR improvement, 3-4x mean
// throughput improvement; permutation preserves the CR advantage.
#include "bench_util.h"
#include "compress/registry.h"
#include "core/builtin_codecs.h"
#include "core/primacy_codec.h"

namespace {

/// Interleaved timing rounds per dataset (see MedianInterleaved).
constexpr std::size_t kRounds = 5;

}  // namespace

int main(int argc, char** argv) {
  using namespace primacy;
  bench::Init(argc, argv);
  RegisterBuiltinCodecs();
  bench::PrintHeader(
      "Table III: zlib-class solver vs PRIMACY across 20 datasets",
      "Shah et al., CLUSTER 2012, Table III");
  std::printf("%-15s | %6s %8s | %6s %8s | %8s %9s | %8s %9s\n", "dataset",
              "CR", "CR", "LinCR", "LinCR", "CTP", "CTP", "DTP", "DTP");
  std::printf("%-15s | %6s %8s | %6s %8s | %8s %9s | %8s %9s\n", "",
              "solver", "PRIMACY", "solver", "PRIMACY", "solver", "PRIMACY",
              "solver", "PRIMACY");
  bench::PrintRule();

  const auto solver = CreateCodec("deflate");
  const PrimacyCodec primacy;
  bench::BenchReport report("table3_compression");
  int cr_wins = 0, lin_wins = 0, ctp_wins = 0, dtp_wins = 0;
  double cr_gain_sum = 0.0, ctp_factor_sum = 0.0, dtp_factor_sum = 0.0;

  for (const DatasetSpec& spec : AllDatasets()) {
    const auto& values = bench::DatasetValues(spec.name);
    // Timings are medians of kRounds interleaved runs, so host noise moves
    // both codecs alike instead of flipping a dataset's CTP/DTP verdict.
    const auto [sm, pm] =
        MedianInterleaved(*solver, primacy, AsBytes(values), kRounds);

    // Section IV-G: user-controlled linearization — a deterministic
    // permutation of element order. Only its ratios are reported.
    const auto permuted = PermuteElements(values, spec.seed ^ 0xBEEF);
    const ByteSpan praw = AsBytes(permuted);
    const CodecMeasurement sm_lin = MeasureCodec(*solver, praw);
    const CodecMeasurement pm_lin = MeasureCodec(primacy, praw);

    std::printf("%-15s | %6.2f %8.2f | %6.2f %8.2f | %8.1f %9.1f | %8.1f %9.1f\n",
                spec.name.c_str(), sm.CompressionRatio(),
                pm.CompressionRatio(), sm_lin.CompressionRatio(),
                pm_lin.CompressionRatio(), sm.CompressMBps(),
                pm.CompressMBps(), sm.DecompressMBps(), pm.DecompressMBps());

    report.AddEntry(spec.name)
        .Set("solver_ratio", sm.CompressionRatio())
        .Set("primacy_ratio", pm.CompressionRatio())
        .Set("solver_ratio_permuted", sm_lin.CompressionRatio())
        .Set("primacy_ratio_permuted", pm_lin.CompressionRatio())
        .Set("solver_compress_mbps", sm.CompressMBps())
        .Set("primacy_compress_mbps", pm.CompressMBps())
        .Set("solver_decompress_mbps", sm.DecompressMBps())
        .Set("primacy_decompress_mbps", pm.DecompressMBps());

    cr_wins += pm.CompressionRatio() > sm.CompressionRatio();
    lin_wins += pm_lin.CompressionRatio() > sm_lin.CompressionRatio();
    ctp_wins += pm.CompressMBps() > sm.CompressMBps();
    dtp_wins += pm.DecompressMBps() > sm.DecompressMBps();
    cr_gain_sum += pm.CompressionRatio() / sm.CompressionRatio() - 1.0;
    ctp_factor_sum += pm.CompressMBps() / sm.CompressMBps();
    dtp_factor_sum += pm.DecompressMBps() / sm.DecompressMBps();
  }

  bench::PrintRule();
  std::printf("PRIMACY CR wins          : %d/20 (paper: 19/20)\n", cr_wins);
  std::printf("PRIMACY CR wins permuted : %d/20 (paper: 19/20)\n", lin_wins);
  std::printf("PRIMACY CTP wins         : %d/20 (paper: 19/20)\n", ctp_wins);
  std::printf("PRIMACY DTP wins         : %d/20 (paper: 20/20)\n", dtp_wins);
  std::printf("mean CR improvement      : %+.1f%% (paper: ~13%%)\n",
              100.0 * cr_gain_sum / 20.0);
  std::printf("mean CTP factor          : %.2fx (paper: 3-4x)\n",
              ctp_factor_sum / 20.0);
  std::printf("mean DTP factor          : %.2fx (paper: 3-4x)\n",
              dtp_factor_sum / 20.0);
  return 0;
}
