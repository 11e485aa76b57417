// `checkpoint`: the paper's per-process in-situ path. Seven Table III
// variables, each 2.5 chunks of 3 MiB, are written with CheckpointWriter,
// restart-read in full with CheckpointReader::ReadDoubles, and probed with
// seeded ReadDoublesRange calls through a decoded-block cache half the
// checkpoint's decoded size. Everything runs on one thread (threads = 1).
//
// The variables span the ISOBAR outcome: mantissa columns sent to the
// solver (num_plasma, obs_info, msg_sppm), only the IDs solver-bound
// (flash_velx, gts_phi_l), little solver work (num_brain, msg_bt). With
// the cache's default 8 shards, each shard's budget (1/16 of the decoded
// checkpoint) holds one full chunk or two half chunks, so the range reads
// churn the LRU rather than settling into it.
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "datasets/datasets.h"
#include "solver_replay.h"
#include "store/checkpoint_store.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using primacy::ByteSpan;
using primacy::Bytes;

constexpr std::size_t kChunkElements = (3u << 20) / 8;
constexpr std::size_t kVariableElements = 2 * kChunkElements + kChunkElements / 2;
constexpr std::size_t kChunksPerVariable = 3;  // two full, one half
constexpr std::size_t kVisitsPerChunk = 2;
constexpr std::size_t kProbesPerVisit = 4;
constexpr std::size_t kMaxRangeElements = 8192;
constexpr int kSetupRepeats = 5;
constexpr std::size_t kMinIterations = 3;
/// Restart reads per timed iteration. One pass takes a tenth of the
/// iteration's time; a single pass per iteration left restart_read_MBps
/// at the mercy of a few hundred milliseconds of host noise.
constexpr std::size_t kRestartPasses = 3;

const char* const kVariables[] = {"num_plasma", "obs_info",  "msg_sppm",
                                  "flash_velx", "gts_phi_l", "num_brain",
                                  "msg_bt"};
constexpr std::size_t kRangeReads = std::size(kVariables) * kChunksPerVariable *
                                    kVisitsPerChunk * kProbesPerVisit;

struct Variable {
  std::string name;
  std::vector<double> values;
  std::uint64_t hash = 0;  // expected restart-read output
};

struct RangeRead {
  std::size_t variable = 0;
  std::uint64_t first = 0;
  std::uint64_t count = 0;
};

/// Decoded bytes of the chunks a range read decoded: every range lies in
/// one chunk, which it decoded unless the cache held it.
std::uint64_t DecodedBytes(const RangeRead& rr, std::size_t chunks_decoded) {
  const std::uint64_t chunk_start = rr.first / kChunkElements * kChunkElements;
  const std::uint64_t chunk_elements =
      std::min<std::uint64_t>(kChunkElements, kVariableElements - chunk_start);
  return chunk_elements * sizeof(double) * chunks_decoded;
}

/// The canonical Table III generators. Their data do not depend on the run
/// seed: per-variable latencies differ several-fold, and seeded values
/// reorder them enough to move the per-call percentiles between variables.
/// The seed drives the range-read probes.
std::vector<Variable> MakeVariables() {
  std::vector<Variable> variables;
  for (const char* name : kVariables) {
    Variable v;
    v.name = name;
    v.values = primacy::GenerateDatasetByName(name, kVariableElements);
    v.hash = Hash(primacy::AsBytes(v.values));
    variables.push_back(std::move(v));
  }
  return variables;
}

/// Everything one iteration measured, plus the span ids the replay of a
/// traced iteration hangs its children on.
struct Iteration {
  double write_s = 0.0;
  std::vector<double> restart_s;  // per restart pass
  double range_s = 0.0;
  std::size_t ops = 0;
  std::vector<double> add_us;   // per variable, in order
  std::vector<double> read_us;  // per variable, in order, pass after pass
  Samples range_us, hit_us, miss_us;
  Bytes file;  // kept only by the traced iteration, for its replay
  std::size_t file_bytes = 0;
  std::vector<std::uint64_t> add_span, read_span, range_span;
  std::vector<RangeRead> ranges;
  primacy::CacheStatsSnapshot cache;
  std::uint64_t decoded_bytes = 0;   // chunk bytes the range reads decoded
  std::uint64_t returned_bytes = 0;  // bytes the range reads returned
  double open_us = 0.0;

  double RestartSeconds() const {
    double total = 0.0;
    for (const double pass : restart_s) total += pass;
    return total;
  }
  double Seconds() const { return write_s + RestartSeconds() + range_s; }
};

class CheckpointBench {
 public:
  CheckpointBench(const Args& args, Report& report)
      : args_(args), report_(report), rng_(MixSeed(args.seed, 1000)) {}

  void Setup() {
    std::vector<double> times;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
      RotateCpu();
      const std::uint64_t start = NowNs();
      variables_ = MakeVariables();
      times.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    }
    setup_s_ = Median(times);
    for (const Variable& v : variables_) {
      input_bytes_ += v.values.size() * sizeof(double);
    }
    if (args_.corrupt_expected) variables_[0].hash ^= 1;
    report_.Phase("setup").attempted += variables_.size();
  }

  Iteration RunIteration(std::uint64_t root_group,
                         std::size_t restart_passes = kRestartPasses) {
    Iteration it;
    Write(it, root_group);
    for (std::size_t pass = 0; pass < restart_passes; ++pass) {
      Restart(it, root_group);
    }
    Range(it, root_group);
    return it;
  }

  void Measure() {
    // One untimed iteration first, so allocator growth and the CPU's move
    // out of idle are not charged to the first timed iteration.
    warming_ = true;
    RunIteration(0);
    warming_ = false;
    const std::uint64_t deadline =
        NowNs() + static_cast<std::uint64_t>(args_.seconds * 1e9);
    while (iterations_.size() < kMinIterations || NowNs() < deadline) {
      iterations_.push_back(RunIteration(0));
      // Drop the file so peak memory does not grow with the iteration count.
      Bytes().swap(iterations_.back().file);
    }
  }

  void ReportEndToEnd() const {
    std::vector<double> write, restart, throughput;
    Samples range;
    for (const Iteration& it : iterations_) {
      write.push_back(static_cast<double>(input_bytes_) / 1e6 / it.write_s);
      for (const double pass : it.restart_s) {
        restart.push_back(static_cast<double>(input_bytes_) / 1e6 / pass);
      }
      throughput.push_back(static_cast<double>(it.ops) / it.Seconds());
      range.Append(it.range_us);
    }
    std::size_t adds = 0, reads = 0;
    for (const Iteration& it : iterations_) {
      adds += it.add_us.size();
      reads += it.read_us.size();
    }
    std::printf("samples iterations=%zu restart_passes=%zu add=%zu read=%zu "
                "range=%zu\n",
                iterations_.size(), restart.size(), adds, reads, range.size());
    report_.Set("setup_s", setup_s_);
    report_.Set("write_MBps", Median(write));
    report_.Set("restart_read_MBps", Median(restart));
    report_.Set("range_read_p50_us", range.Percentile(0.5));
    report_.Set("compression_ratio",
                static_cast<double>(input_bytes_) /
                    static_cast<double>(iterations_.back().file_bytes));
    report_.Set("throughput_req_s", Median(throughput));
    report_.Set("compress_p50_us", MedianPassMean(&Iteration::add_us));
    report_.Set("decompress_p50_us", MedianPassMean(&Iteration::read_us));
    report_.Set("peak_rss_MB", PeakRssMB());
  }

  /// The traced run: untraced iterations for half the time (the baseline of
  /// trace.overhead_frac), one traced iteration, then the replays of that
  /// iteration's calls one layer lower.
  void MeasureTraced() {
    const std::uint64_t deadline =
        NowNs() + static_cast<std::uint64_t>(args_.seconds * 0.5e9);
    std::vector<double> untraced;
    Samples add, read, range;
    do {
      const Iteration it = RunIteration(0, 1);
      untraced.push_back(it.Seconds());
      for (const double us : it.add_us) add.Add(us);
      for (const double us : it.read_us) read.Add(us);
      range.Append(it.range_us);
    } while (NowNs() < deadline);
    report_.Set("client.compress_p90_us", add.Percentile(0.9));
    report_.Set("client.compress_p99_us", add.Percentile(0.99));
    report_.Set("client.decompress_p90_us", read.Percentile(0.9));
    report_.Set("client.decompress_p99_us", read.Percentile(0.99));
    report_.Set("client.range_read_p90_us", range.Percentile(0.9));
    report_.Set("client.range_read_p99_us", range.Percentile(0.99));

    Tracer::Get().Enable(true);
    const Iteration it = RunIteration(1, 1);
    const double traced_s = it.Seconds();

    StageTotals totals;
    PhaseCount& replay = report_.Phase("replay");
    std::uint64_t encode_ns = 0, decode_ns = 0;
    const primacy::CheckpointReader file_reader(it.file, SerialOptions());
    std::vector<Bytes> streams;  // replayed streams, for the range replay
    for (std::size_t v = 0; v < variables_.size(); ++v) {
      const ByteSpan native = primacy::AsBytes(variables_[v].values);
      const std::uint64_t before_encode = totals.core_encode_ns;
      EncodeReplay enc = ReplayEncode(native, it.add_span[v], v + 2, totals);
      encode_ns += totals.core_encode_ns - before_encode;
      // The replay must reproduce the stored stream byte for byte.
      const primacy::VariableInfo& info = file_reader.Find(variables_[v].name);
      const ByteSpan stored =
          ByteSpan(it.file).subspan(info.stream_offset, info.stream_bytes);
      replay.attempted += 2;
      if (!std::equal(stored.begin(), stored.end(), enc.stream.begin(),
                      enc.stream.end())) {
        replay.failed += 1;
      }
      const std::uint64_t before_decode = totals.core_decode_ns;
      if (!ReplayDecode(native, enc, it.read_span[v], v + 2, totals)) {
        replay.failed += 1;
      }
      decode_ns += totals.core_decode_ns - before_decode;
      streams.push_back(std::move(enc.stream));
    }
    // Range reads one layer lower: the same range through an uncached
    // decompressor. The difference is the cache's cost or saving.
    const primacy::PrimacyDecompressor uncached(SerialOptions());
    for (std::size_t r = 0; r < it.ranges.size(); ++r) {
      const RangeRead& rr = it.ranges[r];
      ScopedSpan span("core.decode_range", it.range_span[r], 100 + r,
                      rr.count * sizeof(double));
      const std::vector<double> got = uncached.DecompressRange(
          streams[rr.variable], rr.first, rr.count);
      replay.attempted += 1;
      if (!SliceMatches(rr, got)) replay.failed += 1;
    }
    Tracer::Get().Enable(false);

    ReportStageMetrics(report_, totals);
    report_.Set("store.open_us", it.open_us);
    report_.Set("store.write_self_frac",
                (it.write_s - static_cast<double>(encode_ns) * 1e-9) / it.write_s);
    report_.Set("store.read_self_frac",
                (it.RestartSeconds() - static_cast<double>(decode_ns) * 1e-9) /
                    it.RestartSeconds());
    report_.Set("store.range_read_p99_us", it.range_us.Percentile(0.99));
    const primacy::CacheStatsSnapshot& cache = it.cache;
    report_.Set("cache.hit_ratio",
                Ratio(static_cast<double>(cache.hits),
                      static_cast<double>(cache.hits + cache.misses)));
    report_.Set("cache.reject_ratio",
                Ratio(static_cast<double>(cache.rejected),
                      static_cast<double>(cache.insertions + cache.rejected)));
    report_.Set("cache.evictions", static_cast<double>(cache.evictions));
    report_.Set("cache.hit_us", it.hit_us.Percentile(0.5));
    report_.Set("cache.miss_us", it.miss_us.Percentile(0.5));
    report_.Set("cache.decoded_B_per_returned_B",
                Ratio(static_cast<double>(it.decoded_bytes),
                      static_cast<double>(it.returned_bytes)));
    report_.Set("trace.overhead_frac", traced_s / Median(untraced) - 1.0);
    std::printf("trace untraced_iterations=%zu traced_s=%.6f\n",
                untraced.size(), traced_s);
  }

 private:
  /// The p50 of one call kind: the median over passes (a write, or one
  /// restart pass) of the pass's mean call time. The seven variables' call
  /// times differ several-fold with gaps between them. A median over the
  /// calls, or over the variables' own medians, picks one variable, and
  /// which one changed from run to run as host load slowed some variables
  /// more than others; that moved the figure by up to a third.
  double MedianPassMean(std::vector<double> Iteration::*calls) const {
    const std::size_t n = variables_.size();
    std::vector<double> means;
    for (const Iteration& it : iterations_) {
      const std::vector<double>& times = it.*calls;
      for (std::size_t first = 0; first + n <= times.size(); first += n) {
        double sum = 0.0;
        for (std::size_t v = 0; v < n; ++v) sum += times[first + v];
        means.push_back(sum / static_cast<double>(n));
      }
    }
    return Median(means);
  }

  bool SliceMatches(const RangeRead& rr, const std::vector<double>& got) const {
    const std::vector<double>& values = variables_[rr.variable].values;
    return got.size() == rr.count &&
           std::equal(got.begin(), got.end(),
                      values.begin() + static_cast<std::ptrdiff_t>(rr.first));
  }

  void Write(Iteration& it, std::uint64_t root_group) {
    PhaseCount& phase = PhaseOf("write");
    ScopedSpan root("checkpoint.write", 0, root_group, input_bytes_);
    const std::uint64_t start = NowNs();
    try {
      primacy::CheckpointWriter writer(SerialOptions());
      for (std::size_t v = 0; v < variables_.size(); ++v) {
        phase.attempted += 1;
        RotateCpu();
        ScopedSpan span("store.add", root.id(), v + 2,
                        variables_[v].values.size() * sizeof(double));
        const std::uint64_t t0 = NowNs();
        writer.Add(variables_[v].name, variables_[v].values);
        it.add_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
        it.add_span.push_back(span.id());
      }
      phase.attempted += 1;
      RotateCpu();
      ScopedSpan span("store.finish", root.id(), root_group);
      it.file = writer.Finish();
      it.file_bytes = it.file.size();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: write failed: %s\n", e.what());
      phase.failed += 1;
    }
    it.write_s = static_cast<double>(NowNs() - start) * 1e-9;
    it.ops += variables_.size() + 1;
  }

  void Restart(Iteration& it, std::uint64_t root_group) {
    PhaseCount& phase = PhaseOf("restart_read");
    RotateCpu();  // one CPU per pass, so each variable's reads meet them all
    ScopedSpan root("checkpoint.restart", 0, root_group, it.file.size());
    const std::uint64_t start = NowNs();
    try {
      phase.attempted += 1;
      std::unique_ptr<primacy::CheckpointReader> reader;
      {
        ScopedSpan span("store.open", root.id(), root_group, it.file.size());
        const std::uint64_t t0 = NowNs();
        reader = std::make_unique<primacy::CheckpointReader>(it.file,
                                                             SerialOptions());
        it.open_us = static_cast<double>(NowNs() - t0) * 1e-3;
      }
      for (std::size_t v = 0; v < variables_.size(); ++v) {
        phase.attempted += 1;
        ScopedSpan span("store.read", root.id(), v + 2);
        const std::uint64_t t0 = NowNs();
        const std::vector<double> values =
            reader->ReadDoubles(variables_[v].name);
        it.read_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
        it.read_span.push_back(span.id());
        if (Hash(primacy::AsBytes(values)) != variables_[v].hash) {
          phase.failed += 1;
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: restart read failed: %s\n", e.what());
      phase.failed += 1;
    }
    it.restart_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    it.ops += variables_.size() + 1;
  }

  void Range(Iteration& it, std::uint64_t root_group) {
    PhaseCount& phase = PhaseOf("range_read");
    ScopedSpan root("checkpoint.range", 0, root_group);
    const std::uint64_t start = NowNs();
    try {
      primacy::PrimacyOptions options = SerialOptions();
      options.cache.enabled = true;
      options.cache.capacity_bytes = input_bytes_ / 2;
      phase.attempted += 1;
      std::unique_ptr<primacy::CheckpointReader> reader;
      {
        ScopedSpan span("store.open", root.id(), root_group, it.file.size());
        reader = std::make_unique<primacy::CheckpointReader>(it.file, options);
      }
      const std::vector<RangeRead> probes = RangeProbes();
      for (std::size_t r = 0; r < probes.size(); ++r) {
        const RangeRead& rr = probes[r];
        phase.attempted += 1;
        if (r % kProbesPerVisit == 0) RotateCpu();
        primacy::PrimacyDecodeStats stats;
        ScopedSpan span("cache.read_range", root.id(), 100 + r,
                        rr.count * sizeof(double));
        const std::uint64_t t0 = NowNs();
        const std::vector<double> got = reader->ReadDoublesRange(
            variables_[rr.variable].name, rr.first, rr.count, &stats);
        const double us = static_cast<double>(NowNs() - t0) * 1e-3;
        it.range_us.Add(us);
        (stats.chunks_decoded == 0 ? it.hit_us : it.miss_us).Add(us);
        it.decoded_bytes += DecodedBytes(rr, stats.chunks_decoded);
        it.returned_bytes += got.size() * sizeof(double);
        it.range_span.push_back(span.id());
        it.ranges.push_back(rr);
        if (!SliceMatches(rr, got)) phase.failed += 1;
      }
      it.cache = reader->cache()->Stats();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: range read failed: %s\n", e.what());
      phase.failed += 1;
    }
    it.range_s = static_cast<double>(NowNs() - start) * 1e-9;
    it.ops += kRangeReads + 1;
  }

  /// One iteration's range reads: kVisitsPerChunk visits to every chunk of
  /// every variable, each kProbesPerVisit reads inside that chunk at seeded
  /// offsets and lengths, as an analysis reading one region does. Visiting
  /// every chunk equally keeps the mix of cheap and expensive chunk decodes
  /// the same from seed to seed. The visit order comes from a fixed
  /// generator, the same in every iteration and for every seed, so which
  /// reads hit the cache does not depend on the seed. With one read per
  /// visit in a seeded order, the hit ratio moved between 0.26 and 0.35
  /// from seed to seed, and the p50 fell among misses whose decode times
  /// differ several-fold between variables.
  std::vector<RangeRead> RangeProbes() {
    std::vector<RangeRead> visits;  // one entry per visit: variable, chunk
    for (std::size_t v = 0; v < variables_.size(); ++v) {
      for (std::size_t c = 0; c < kChunksPerVariable; ++c) {
        for (std::size_t k = 0; k < kVisitsPerChunk; ++k) {
          visits.push_back(RangeRead{v, c * kChunkElements, 0});
        }
      }
    }
    primacy::Rng order(MixSeed(0, 1001));
    for (std::size_t i = visits.size() - 1; i > 0; --i) {
      std::swap(visits[i], visits[order.NextBelow(i + 1)]);
    }
    std::vector<RangeRead> probes;
    for (const RangeRead& visit : visits) {
      const std::uint64_t chunk_end = std::min<std::uint64_t>(
          visit.first + kChunkElements, kVariableElements);
      for (std::size_t k = 0; k < kProbesPerVisit; ++k) {
        RangeRead rr;
        rr.variable = visit.variable;
        rr.first = visit.first + rng_.NextBelow(chunk_end - visit.first);
        rr.count = 1 + rng_.NextBelow(std::min<std::uint64_t>(
                           kMaxRangeElements, chunk_end - rr.first));
        probes.push_back(rr);
      }
    }
    return probes;
  }

  PhaseCount& PhaseOf(const std::string& name) {
    return report_.Phase(warming_ ? "warmup." + name : name);
  }

  const Args& args_;
  Report& report_;
  bool warming_ = false;
  primacy::Rng rng_;  // range-probe offsets and lengths
  std::vector<Variable> variables_;
  std::uint64_t input_bytes_ = 0;
  double setup_s_ = 0.0;
  std::vector<Iteration> iterations_;
};

}  // namespace

int RunCheckpoint(const Args& args) {
  Report report(args.trace);
  CheckpointBench bench(args, report);
  bench.Setup();
  if (args.trace) {
    bench.MeasureTraced();
  } else {
    bench.Measure();
    bench.ReportEndToEnd();
  }
  return report.Finish(args);
}

}  // namespace perfbench
