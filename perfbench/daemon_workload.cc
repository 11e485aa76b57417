// `daemon_hot`: the UDS daemon under closed-loop load over a warmed hot set.
//
// The daemon is an in-process TransportServer over a CompressionService
// with the daemon's default ServiceOptions/BatchOptions (what primacyd
// runs with), four tenants (num_plasma, num_brain, obs_info, flash_velx),
// each with an 8 MiB memo and a quarter of a 64 MiB decoded-block cache.
// One client thread and one connection per core as `nproc` reports, each
// waiting for its reply before sending the next request, as compute ranks
// do. Requests are 4 KiB, over 128 hot objects per tenant in seeded order,
// warmed first, so the memo and cache answer almost everything and
// transport, service and cache set the numbers. Requests alternate
// compress / decompress; every fourth decompress is a DecompressRange.
//
// Every response is hashed and checked against a direct library call on
// the same payload (PrimacyCompressor::CompressBytes, PrimacyDecompressor::
// DecompressBytes / DecompressBytesRange, threads = 1).
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "datasets/datasets.h"
#include "service/service.h"
#include "solver_replay.h"
#include "telemetry/metrics.h"
#include "transport/client.h"
#include "transport/server.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using primacy::ByteSpan;
using primacy::Bytes;

constexpr std::size_t kRequestDoubles = 512;  // 4 KiB
constexpr std::size_t kRequestBytes = kRequestDoubles * sizeof(double);
constexpr std::size_t kHotObjects = 128;  // per tenant
constexpr std::size_t kMaxRangeElements = 64;
constexpr std::size_t kRangeEvery = 4;  // every 4th decompress is a range
constexpr int kSetupRepeats = 5;

const char* const kTenants[] = {"num_plasma", "num_brain", "obs_info",
                                "flash_velx"};
constexpr std::size_t kTenantCount = 4;
constexpr std::size_t kObjectCount = kTenantCount * kHotObjects;

enum class Op : std::uint8_t { kCompress, kDecompress, kRange };

/// One issued request as recorded by its client.
struct Request {
  Op op = Op::kCompress;
  std::size_t object = 0;  // tenant * kHotObjects + index within the tenant
  std::uint64_t first = 0, count = 0;  // kRange only
  bool ok = false;
  std::uint64_t response_hash = 0;
  std::size_t response_bytes = 0;
  double latency_us = 0.0;
  std::uint64_t span = 0;   // its transport.call span (traced runs)
  std::uint64_t group = 0;  // shared by every span of this request

  std::size_t tenant() const { return object / kHotObjects; }
};

/// Direct library outputs a response must equal.
struct Expected {
  std::uint64_t stream_hash = 0;
  std::uint64_t decoded_hash = 0;
};

struct LoopResult {
  std::vector<std::vector<Request>> per_client;
  double wall_s = 0.0;
};

class DaemonBench {
 public:
  DaemonBench(const Args& args, Report& report)
      : args_(args), report_(report), clients_(ClientCount()) {}

  ~DaemonBench() { StopDaemon(); }

  void Setup() {
    std::vector<double> times;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
      StopDaemon();
      const std::uint64_t start = NowNs();
      MakeSources();
      ComputeExpected();
      StartDaemon();
      Warmup();
      times.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    }
    setup_s_ = Median(times);
  }

  void Measure() {
    const LoopResult loop = RunLoop(args_.seconds, /*traced=*/false);
    Verify(loop, report_.Phase("loop"));
    ReportEndToEnd(loop);
  }

  /// The traced run: an untraced loop for half the time (the baseline of
  /// trace.overhead_frac), a traced loop for the other half, then the
  /// traced requests replayed one layer lower through an in-process
  /// service (same options, tenants and warm-up, same closed loop). The
  /// direct codec call on each request's input is timed beside its service
  /// replay as a reference: the daemon answers these requests from its memo
  /// and cache, so the codec does no work on the measured path, and the
  /// solver-stack and core layers report 0 here.
  void MeasureTraced() {
    const LoopResult base = RunLoop(args_.seconds * 0.5, /*traced=*/false);
    Verify(base, report_.Phase("loop"));

    const Snapshot before = TakeSnapshot();
    Tracer::Get().Enable(true);
    const LoopResult loop = RunLoop(args_.seconds * 0.5, /*traced=*/true);
    const Snapshot after = TakeSnapshot();
    Verify(loop, report_.Phase("traced_loop"));

    const ServiceReplay service = ReplayService(loop);
    const std::vector<std::vector<double>> codec_us = ReplayCodec(loop, service);
    Tracer::Get().Enable(false);

    Samples service_us, codec, transport_overhead;
    Samples client_us[3];  // by Op
    for (std::size_t c = 0; c < loop.per_client.size(); ++c) {
      for (std::size_t i = 0; i < loop.per_client[c].size(); ++i) {
        const Request& r = loop.per_client[c][i];
        service_us.Add(service.latency_us[c][i]);
        codec.Add(codec_us[c][i]);
        transport_overhead.Add(r.latency_us - service.latency_us[c][i]);
        client_us[static_cast<int>(r.op)].Add(r.latency_us);
      }
    }
    ReportStageMetrics(report_, StageTotals());
    report_.Set("service.latency_p50_us", service_us.Percentile(0.5));
    report_.Set("service.latency_p99_us", service_us.Percentile(0.99));
    report_.Set("service.overhead_p50_us",
                service_us.Percentile(0.5) - codec.Percentile(0.5));
    report_.Set("transport.overhead_p50_us", transport_overhead.Percentile(0.5));
    report_.Set("transport.overhead_p99_us", transport_overhead.Percentile(0.99));
    const Samples& compress = client_us[static_cast<int>(Op::kCompress)];
    const Samples& decompress = client_us[static_cast<int>(Op::kDecompress)];
    const Samples& range = client_us[static_cast<int>(Op::kRange)];
    report_.Set("client.compress_p90_us", compress.Percentile(0.9));
    report_.Set("client.compress_p99_us", compress.Percentile(0.99));
    report_.Set("client.decompress_p90_us", decompress.Percentile(0.9));
    report_.Set("client.decompress_p99_us", decompress.Percentile(0.99));
    report_.Set("client.range_read_p90_us", range.Percentile(0.9));
    report_.Set("client.range_read_p99_us", range.Percentile(0.99));
    ReportSnapshotDelta(before, after, loop);
    report_.Set("trace.overhead_frac",
                Completed(base) / base.wall_s / (Completed(loop) / loop.wall_s) - 1.0);
  }

 private:
  // --- traced-run helpers -------------------------------------------------

  /// Counters the program exposes, read before and after the traced loop.
  struct Snapshot {
    primacy::service::ServiceStatsSnapshot service;
    std::uint64_t memo_hits = 0, cache_hits = 0, cache_misses = 0;
    primacy::transport::TransportServerStats server;
    std::uint64_t retries = 0, connects = 0;
    std::uint64_t pool_busy_ns = 0;
    std::int64_t pool_workers = 0;
    primacy::telemetry::HistogramSnapshot pool_wait_us;
  };

  Snapshot TakeSnapshot() const {
    Snapshot s;
    s.service = service_->Stats();
    for (const char* name : kTenants) {
      const auto t = service_->TenantStats(name);
      s.memo_hits += t.memo_hits;
      s.cache_hits += t.cache_hits;
      s.cache_misses += t.cache_misses;
    }
    s.server = server_->Stats();
    for (const auto& client : clients_pool_) {
      s.retries += client->ClientStats().retries;
      s.connects += client->ClientStats().connects;
    }
    // The service runs its batches on the shared pool; these are its
    // primacy_pool_* series (bounds as the pool registers them).
    auto& registry = primacy::telemetry::MetricsRegistry::Global();
    static constexpr double kBoundsUs[] = {10.0, 100.0, 1000.0, 10000.0,
                                           100000.0, 1e6, 1e7};
    const std::string label = "pool=\"shared\"";
    s.pool_busy_ns = registry.GetCounter("primacy_pool_busy_ns_total", label).Value();
    s.pool_workers = registry.GetGauge("primacy_pool_workers", label).Value();
    s.pool_wait_us =
        registry.GetHistogram("primacy_pool_task_wait_us", kBoundsUs, label)
            .Snapshot();
    return s;
  }

  void ReportSnapshotDelta(const Snapshot& a, const Snapshot& b,
                           const LoopResult& loop) {
    const auto& sa = a.service;
    const auto& sb = b.service;
    std::uint64_t compresses = 0;
    for (const auto& requests : loop.per_client) {
      for (const Request& r : requests) compresses += r.op == Op::kCompress;
    }
    report_.Set("service.memo_hit_ratio",
                Ratio(static_cast<double>(b.memo_hits - a.memo_hits),
                      static_cast<double>(compresses)));
    const std::uint64_t hits = b.cache_hits - a.cache_hits;
    const double cache_ratio = Ratio(
        static_cast<double>(hits),
        static_cast<double>(hits + (b.cache_misses - a.cache_misses)));
    report_.Set("service.cache_hit_ratio", cache_ratio);
    report_.Set("cache.hit_ratio", cache_ratio);
    report_.Set("service.items_per_batch",
                Ratio(static_cast<double>(sb.batch.items - sa.batch.items),
                      static_cast<double>(sb.batch.batches - sa.batch.batches)));
    report_.Set("service.timeout_flush_frac",
                Ratio(static_cast<double>(sb.batch.timeout_flushes -
                                          sa.batch.timeout_flushes),
                      static_cast<double>(sb.batch.Flushes() - sa.batch.Flushes())));
    report_.Set("service.rejected",
                static_cast<double>((sb.rejected_quota - sa.rejected_quota) +
                                    (sb.rejected_inflight - sa.rejected_inflight)));
    report_.Set("service.failed", static_cast<double>(sb.failed - sa.failed));
    report_.Set("transport.retries", static_cast<double>(b.retries - a.retries));
    report_.Set("transport.connects", static_cast<double>(b.connects - a.connects));
    report_.Set("transport.server_errors",
                static_cast<double>(b.server.errors - a.server.errors));
    report_.Set("pool.queue_wait_p50_us",
                b.pool_wait_us.DeltaSince(a.pool_wait_us).Quantile(0.5));
    report_.Set("pool.busy_frac",
                Ratio(static_cast<double>(b.pool_busy_ns - a.pool_busy_ns) * 1e-9,
                      loop.wall_s * static_cast<double>(b.pool_workers)));
  }

  static double Completed(const LoopResult& loop) {
    double n = 0;
    for (const auto& requests : loop.per_client) {
      for (const Request& r : requests) n += r.ok ? 1 : 0;
    }
    return n;
  }

  struct ServiceReplay {
    std::vector<std::vector<double>> latency_us;
    std::vector<std::vector<std::uint64_t>> span;
  };

  /// The traced requests through an in-process service with the daemon's
  /// options, warmed the same way, each client's sequence on its own thread.
  ServiceReplay ReplayService(const LoopResult& loop) {
    namespace svc = primacy::service;
    svc::CompressionService service(DaemonServiceOptions());
    AddTenants(service);
    PhaseCount& phase = report_.Phase("service_replay");
    ServiceReplay out;
    out.latency_us.resize(loop.per_client.size());
    out.span.resize(loop.per_client.size());
    auto submit = [&](Op op, std::size_t object, std::uint64_t first,
                      std::uint64_t count) {
      const char* tenant = kTenants[object / kHotObjects];
      switch (op) {
        case Op::kCompress:
          return service.SubmitCompress(tenant, primacy::ToBytes(Payload(object)));
        case Op::kDecompress:
          return service.SubmitDecompress(tenant, streams_[object]);
        case Op::kRange:
          break;
      }
      return service.SubmitDecompressRange(tenant, streams_[object], first, count);
    };
    {  // the daemon's warm-up, in flight at once
      std::vector<std::future<svc::ServiceResponse>> warm;
      for (std::size_t k = 0; k < kObjectCount; ++k) {
        warm.push_back(submit(Op::kCompress, k, 0, 0));
        warm.push_back(submit(Op::kDecompress, k, 0, 0));
      }
      for (auto& f : warm) f.get();
    }
    std::vector<std::uint64_t> failed(loop.per_client.size(), 0);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < loop.per_client.size(); ++c) {
      threads.emplace_back([&, c] {
        for (const Request& r : loop.per_client[c]) {
          ScopedSpan span("service.call", r.span, r.group);
          const std::uint64_t start = NowNs();
          const svc::ServiceResponse response =
              submit(r.op, r.object, r.first, r.count).get();
          out.latency_us[c].push_back(static_cast<double>(NowNs() - start) * 1e-3);
          out.span[c].push_back(span.id());
          if (!response.ok() || Hash(response.payload) != r.response_hash) {
            ++failed[c];
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (std::size_t c = 0; c < loop.per_client.size(); ++c) {
      phase.attempted += loop.per_client[c].size();
      phase.failed += failed[c];
    }
    return out;
  }

  /// The traced requests as direct codec calls on the same inputs, each
  /// recorded beside its service.call span as a reference (not nested):
  /// the service answered from its memo or cache, so this codec work is
  /// not part of the service's time. Returns each call's time in
  /// microseconds.
  std::vector<std::vector<double>> ReplayCodec(const LoopResult& loop,
                                               const ServiceReplay& service) {
    PhaseCount& phase = report_.Phase("codec_replay");
    std::vector<std::vector<double>> out(loop.per_client.size());
    std::vector<std::uint64_t> failed(loop.per_client.size(), 0);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < loop.per_client.size(); ++c) {
      threads.emplace_back([&, c] {
        const primacy::PrimacyCompressor compressor(SerialOptions());
        const primacy::PrimacyDecompressor decompressor(SerialOptions());
        for (std::size_t i = 0; i < loop.per_client[c].size(); ++i) {
          const Request& r = loop.per_client[c][i];
          const char* name = r.op == Op::kCompress     ? "core.encode"
                             : r.op == Op::kDecompress ? "core.decode"
                                                       : "core.decode_range";
          const ByteSpan input =
              r.op == Op::kCompress ? Payload(r.object) : ByteSpan(streams_[r.object]);
          const std::uint64_t start = NowNs();
          const Bytes got =
              r.op == Op::kCompress ? compressor.CompressBytes(input)
              : r.op == Op::kDecompress
                  ? decompressor.DecompressBytes(input)
                  : decompressor.DecompressBytesRange(input, r.first, r.count);
          const std::uint64_t end = NowNs();
          Tracer::Get().Record(name, service.span[c][i], r.group, start, end,
                               input.size(), 0, /*nested=*/false);
          out[c].push_back(static_cast<double>(end - start) * 1e-3);
          if (Hash(got) != r.response_hash) ++failed[c];
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (std::size_t c = 0; c < loop.per_client.size(); ++c) {
      phase.attempted += loop.per_client[c].size();
      phase.failed += failed[c];
    }
    return out;
  }

  // --- set-up -------------------------------------------------------------

  void MakeSources() {
    sources_.clear();
    for (std::size_t t = 0; t < kTenantCount; ++t) {
      primacy::DatasetSpec spec = primacy::FindDataset(kTenants[t]);
      spec.seed ^= MixSeed(args_.seed, t);
      sources_.push_back(
          primacy::GenerateDataset(spec, kHotObjects * kRequestDoubles));
    }
  }

  ByteSpan Payload(std::size_t object) const {
    return primacy::AsBytes(sources_[object / kHotObjects])
        .subspan((object % kHotObjects) * kRequestBytes, kRequestBytes);
  }

  /// Direct-library streams and expected outputs of every hot object.
  void ComputeExpected() {
    const primacy::PrimacyCompressor compressor(SerialOptions());
    const primacy::PrimacyDecompressor decompressor(SerialOptions());
    streams_.assign(kObjectCount, Bytes());
    expected_.assign(kObjectCount, Expected());
    for (std::size_t k = 0; k < kObjectCount; ++k) {
      streams_[k] = compressor.CompressBytes(Payload(k));
      expected_[k].stream_hash = Hash(streams_[k]);
      expected_[k].decoded_hash = Hash(decompressor.DecompressBytes(streams_[k]));
    }
  }

  static primacy::service::ServiceOptions DaemonServiceOptions() {
    // primacyd's defaults plus the 64 MiB cache the tenants share.
    primacy::service::ServiceOptions options;
    options.cache_capacity_bytes = 64u << 20;
    return options;
  }

  static void AddTenants(primacy::service::CompressionService& service) {
    for (const char* name : kTenants) {
      primacy::service::TenantConfig config;
      config.name = name;
      config.cache_share = 1.0 / static_cast<double>(kTenantCount);
      config.memo_bytes = 8u << 20;
      service.AddTenant(config);
    }
  }

  void StartDaemon() {
    socket_path_ = args_.work_dir + "/perfbench-" +
                   std::to_string(::getpid()) + ".sock";
    service_ = std::make_unique<primacy::service::CompressionService>(
        DaemonServiceOptions());
    AddTenants(*service_);
    primacy::transport::TransportServerOptions options;
    options.socket_path = socket_path_;
    server_ = std::make_unique<primacy::transport::TransportServer>(*service_,
                                                                    options);
    std::string error;
    if (!server_->Start(&error)) {
      throw std::runtime_error("daemon start failed: " + error);
    }
    clients_pool_.clear();
    for (std::size_t c = 0; c < clients_; ++c) {
      primacy::transport::TransportClientOptions client_options;
      client_options.socket_path = socket_path_;
      client_options.max_pooled_connections = 1;
      clients_pool_.push_back(
          std::make_unique<primacy::transport::TransportClient>(client_options));
    }
  }

  void StopDaemon() {
    clients_pool_.clear();
    if (server_ != nullptr) server_->Shutdown();
    server_.reset();
    service_.reset();
  }

  /// Every object compressed and decompressed once, so the memo and the
  /// cache hold the working set. The objects go straight to the daemon's
  /// service, all in flight at once, so batches cut on count and set-up
  /// time does not hang on the flush timer. Then every client sends one
  /// compress per tenant over its connection.
  void Warmup() {
    PhaseCount& phase = report_.Phase("warmup");
    std::vector<std::future<primacy::service::ServiceResponse>> compress,
        decompress;
    for (std::size_t k = 0; k < kObjectCount; ++k) {
      const char* tenant = kTenants[k / kHotObjects];
      compress.push_back(
          service_->SubmitCompress(tenant, primacy::ToBytes(Payload(k))));
      decompress.push_back(service_->SubmitDecompress(tenant, streams_[k]));
    }
    for (std::size_t k = 0; k < kObjectCount; ++k) {
      const auto c = compress[k].get();
      const auto d = decompress[k].get();
      phase.attempted += 2;
      phase.failed += !c.ok() || Hash(c.payload) != expected_[k].stream_hash;
      phase.failed += !d.ok() || Hash(d.payload) != expected_[k].decoded_hash;
    }
    std::vector<std::vector<Request>> per_client(clients_);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients_; ++c) {
      threads.emplace_back([this, c, &per_client] {
        for (std::size_t t = 0; t < kTenantCount; ++t) {
          Request r;
          r.object = t * kHotObjects + c % kHotObjects;
          per_client[c].push_back(Issue(c, r, 0));
        }
      });
    }
    for (std::thread& t : threads) t.join();
    Verify(LoopResult{per_client, 0.0}, phase);
  }

  // --- traffic ------------------------------------------------------------

  /// Sends one request on client `c` and records the outcome.
  Request Issue(std::size_t c, Request r, std::uint64_t parent) {
    primacy::transport::TransportClient& client = *clients_pool_[c];
    const char* tenant = kTenants[r.tenant()];
    const ByteSpan payload =
        r.op == Op::kCompress ? Payload(r.object) : ByteSpan(streams_[r.object]);
    r.group = Tracer::Get().enabled() ? Tracer::Get().NewId() : 0;
    ScopedSpan span("transport.call", parent, r.group, payload.size());
    const std::uint64_t start = NowNs();
    primacy::transport::TransportResult result;
    try {
      switch (r.op) {
        case Op::kCompress:
          result = client.Compress(tenant, payload);
          break;
        case Op::kDecompress:
          result = client.Decompress(tenant, payload);
          break;
        case Op::kRange:
          result = client.DecompressRange(tenant, payload, r.first, r.count);
          break;
      }
      r.ok = result.ok();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: request failed: %s\n", e.what());
      r.ok = false;
    }
    r.latency_us = static_cast<double>(NowNs() - start) * 1e-3;
    r.span = span.id();
    r.response_hash = Hash(result.payload);
    r.response_bytes = result.payload.size();
    return r;
  }

  /// Request i of a client's sequence: compress on even positions,
  /// decompress on odd ones, every kRangeEvery-th decompress a range; each
  /// on a seeded hot object.
  static Request NextRequest(primacy::Rng& rng, std::size_t i) {
    Request r;
    r.object = static_cast<std::size_t>(rng.NextBelow(kObjectCount));
    if (i % 2 == 0) return r;
    r.op = (i / 2) % kRangeEvery == kRangeEvery - 1 ? Op::kRange : Op::kDecompress;
    if (r.op == Op::kRange) {
      r.count = 1 + rng.NextBelow(kMaxRangeElements);
      r.first = rng.NextBelow(kRequestDoubles - r.count + 1);
    }
    return r;
  }

  LoopResult RunLoop(double seconds, bool traced) {
    LoopResult loop;
    loop.per_client.resize(clients_);
    const std::uint64_t start = NowNs();
    const std::uint64_t deadline =
        start + static_cast<std::uint64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients_; ++c) {
      threads.emplace_back([this, c, deadline, traced, &loop] {
        primacy::Rng rng(MixSeed(args_.seed, (traced ? 7000 : 6000) + c));
        auto& out = loop.per_client[c];
        ScopedSpan root("client.loop", 0, c);
        for (std::size_t i = 0; NowNs() < deadline; ++i) {
          out.push_back(Issue(c, NextRequest(rng, i), root.id()));
        }
      });
    }
    for (std::thread& t : threads) t.join();
    loop.wall_s = static_cast<double>(NowNs() - start) * 1e-9;
    return loop;
  }

  // --- verification -------------------------------------------------------

  /// Direct library outputs for an object (compress, decompress) or for
  /// the range [first, first + count) of its stream.
  Expected DirectExpected(const Request& r) const {
    if (r.op != Op::kRange) return expected_[r.object];
    const primacy::PrimacyDecompressor decompressor(SerialOptions());
    Expected e = expected_[r.object];
    e.decoded_hash =
        Hash(decompressor.DecompressBytesRange(streams_[r.object], r.first, r.count));
    return e;
  }

  /// Checks every response against a direct library call, on one thread
  /// per client, and counts attempts and failures into `phase`.
  void Verify(const LoopResult& loop, PhaseCount& phase) {
    std::vector<std::uint64_t> failed(loop.per_client.size(), 0);
    std::vector<std::thread> threads;
    // The verifier's self-check corrupts the first expected output.
    const bool corrupt = args_.corrupt_expected && !corrupted_;
    corrupted_ = true;
    for (std::size_t c = 0; c < loop.per_client.size(); ++c) {
      threads.emplace_back([this, c, corrupt, &loop, &failed] {
        for (const Request& r : loop.per_client[c]) {
          bool good = r.ok;
          if (good) {
            Expected e = DirectExpected(r);
            if (corrupt && c == 0 && &r == &loop.per_client[0].front()) {
              e.stream_hash ^= 1;
              e.decoded_hash ^= 1;
            }
            good = r.op == Op::kCompress ? r.response_hash == e.stream_hash
                                         : r.response_hash == e.decoded_hash;
          }
          if (!good) ++failed[c];
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (std::size_t c = 0; c < loop.per_client.size(); ++c) {
      phase.attempted += loop.per_client[c].size();
      phase.failed += failed[c];
    }
  }

  /// Input bytes / stream bytes over the whole hot set.
  double CompressionRatio() const {
    std::uint64_t out = 0;
    for (const Bytes& stream : streams_) out += stream.size();
    return Ratio(static_cast<double>(kObjectCount * kRequestBytes),
                 static_cast<double>(out));
  }

  void ReportEndToEnd(const LoopResult& loop) {
    Samples compress, decompress, range;
    std::uint64_t compress_bytes = 0, decompress_bytes = 0, completed = 0;
    for (const auto& requests : loop.per_client) {
      for (const Request& r : requests) {
        if (!r.ok) continue;
        ++completed;
        switch (r.op) {
          case Op::kCompress:
            compress.Add(r.latency_us);
            compress_bytes += kRequestBytes;
            break;
          case Op::kDecompress:
            decompress.Add(r.latency_us);
            decompress_bytes += r.response_bytes;
            break;
          case Op::kRange:
            range.Add(r.latency_us);
            break;
        }
      }
    }
    std::printf("samples clients=%zu compress=%zu decompress=%zu range=%zu\n",
                clients_, compress.size(), decompress.size(), range.size());
    report_.Set("setup_s", setup_s_);
    report_.Set("write_MBps", static_cast<double>(compress_bytes) / 1e6 / loop.wall_s);
    report_.Set("restart_read_MBps",
                static_cast<double>(decompress_bytes) / 1e6 / loop.wall_s);
    report_.Set("range_read_p50_us", range.Percentile(0.5));
    report_.Set("compression_ratio", CompressionRatio());
    report_.Set("throughput_req_s", static_cast<double>(completed) / loop.wall_s);
    report_.Set("compress_p50_us", compress.Percentile(0.5));
    report_.Set("decompress_p50_us", decompress.Percentile(0.5));
    report_.Set("peak_rss_MB", PeakRssMB());
  }

  const Args& args_;
  Report& report_;
  const std::size_t clients_;
  double setup_s_ = 0.0;
  bool corrupted_ = false;
  std::vector<std::vector<double>> sources_;
  std::vector<Bytes> streams_;       // direct-compressed hot objects
  std::vector<Expected> expected_;   // direct outputs per hot object
  std::string socket_path_;
  std::unique_ptr<primacy::service::CompressionService> service_;
  std::unique_ptr<primacy::transport::TransportServer> server_;
  std::vector<std::unique_ptr<primacy::transport::TransportClient>> clients_pool_;
};

}  // namespace

int RunDaemonHot(const Args& args) {
  Report report(args.trace);
  DaemonBench bench(args, report);
  bench.Setup();
  if (args.trace) {
    bench.MeasureTraced();
  } else {
    bench.Measure();
  }
  return report.Finish(args);
}

}  // namespace perfbench
