// Cost of the process boundary: the service_load workload replayed over
// the src/transport Unix-domain-socket daemon path, against the same
// service driven in-process.
//
// Both modes run the identical multi-tenant mix (~4 KiB compress/
// decompress requests over each tenant's hot working set, a fixed window
// outstanding per tenant) against identically configured services, and
// hash-verify EVERY response against a direct library call — the daemon is
// only worth its round-trips if it returns byte-identical answers.
//
// Modes compared:
//   service_inprocess  CompressionService driven through Submit* futures —
//                      the service_load "service_batched" configuration.
//   transport_uds      the same service behind a TransportServer socket;
//                      each tenant drives its window through a pooled
//                      TransportClient (one synchronous call per in-flight
//                      slot, wire encode + checksum + two socket hops per
//                      request).
//
// Emits BENCH_transport.json with the throughput ratio and a target_met
// flag: the UDS path must hold at least half the in-process throughput for
// this 4 KiB request mix, or the boundary is eating the service. The ratio
// is the median of kRounds interleaved in-process/UDS rounds, with its
// min and max beside it.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench_util.h"
#include "service/service.h"
#include "transport/client.h"
#include "transport/server.h"
#include "util/checksum.h"
#include "util/mutex.h"
#include "util/timer.h"

namespace primacy::bench {
namespace {

constexpr std::size_t kRequestDoubles = 512;  // ~4 KiB per request
constexpr std::size_t kWindow = 8;            // outstanding per tenant
constexpr std::size_t kHotPieces = 128;       // hot objects per tenant

const std::vector<std::string>& TenantDatasets() {
  static const std::vector<std::string> datasets = {
      "num_plasma", "num_brain", "obs_info", "flash_velx"};
  return datasets;
}

struct Request {
  Bytes payload;
  bool decompress = false;
  std::uint64_t expected_hash = 0;
};

struct TenantWorkload {
  std::string tenant;
  std::vector<Request> requests;
  std::size_t total_bytes = 0;
};

std::vector<TenantWorkload> BuildWorkloads(std::size_t requests_per_tenant) {
  PrimacyOptions direct;
  direct.threads = 1;
  const PrimacyCompressor compressor(direct);
  std::vector<TenantWorkload> workloads;
  for (std::size_t t = 0; t < TenantDatasets().size(); ++t) {
    const std::vector<double>& values = DatasetValues(TenantDatasets()[t]);
    const std::size_t pieces =
        std::min(values.size() / kRequestDoubles, kHotPieces);
    std::vector<Bytes> inputs;
    std::vector<Bytes> streams;
    for (std::size_t p = 0; p < pieces; ++p) {
      const auto* begin = reinterpret_cast<const std::byte*>(values.data() +
                                                             p * kRequestDoubles);
      inputs.push_back(ToBytes(ByteSpan(begin, kRequestDoubles * 8)));
      streams.push_back(compressor.CompressBytes(inputs.back()));
    }
    TenantWorkload workload;
    workload.tenant = "tenant_" + TenantDatasets()[t];
    for (std::size_t r = 0; r < requests_per_tenant; ++r) {
      const std::size_t p = r % pieces;
      Request request;
      request.decompress = (r % 2) == 1;  // 50/50 mix
      if (request.decompress) {
        request.payload = streams[p];
        request.expected_hash = Xxh64(ByteSpan(inputs[p]));
      } else {
        request.payload = inputs[p];
        request.expected_hash = Xxh64(ByteSpan(streams[p]));
      }
      workload.total_bytes += request.payload.size();
      workload.requests.push_back(std::move(request));
    }
    workloads.push_back(std::move(workload));
  }
  return workloads;
}

/// The service_load "service_batched" configuration, identical in both
/// modes so the only variable is the boundary.
service::ServiceOptions BenchServiceOptions(std::size_t tenant_count) {
  (void)tenant_count;
  service::ServiceOptions options;
  options.batch.flush_bytes = 32 * 1024;
  options.batch.flush_requests = 8;
  options.batch.flush_timeout_ns = 100'000;  // 100 us tail-latency bound
  options.cache_capacity_bytes = 64ull << 20;
  return options;
}

void AddBenchTenants(service::CompressionService& svc,
                     const std::vector<TenantWorkload>& workloads) {
  for (const TenantWorkload& workload : workloads) {
    service::TenantConfig config;
    config.name = workload.tenant;
    config.cache_share = 1.0 / static_cast<double>(workloads.size());
    config.memo_bytes = 8ull << 20;
    svc.AddTenant(config);
  }
}

struct ModeResult {
  double seconds = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t mismatches = 0;
  std::size_t payload_bytes = 0;

  double RequestsPerSec() const {
    return seconds > 0 ? static_cast<double>(requests) / seconds : 0.0;
  }
  double MBps() const {
    return seconds > 0
               ? static_cast<double>(payload_bytes) / (1024.0 * 1024.0) / seconds
               : 0.0;
  }
  void AccumulateTotals(const std::vector<TenantWorkload>& workloads,
                        const std::vector<std::uint64_t>& mismatch_counts) {
    for (const TenantWorkload& workload : workloads) {
      requests += workload.requests.size();
      payload_bytes += workload.total_bytes;
    }
    for (const std::uint64_t m : mismatch_counts) mismatches += m;
  }
};

ModeResult RunInProcess(const std::vector<TenantWorkload>& workloads) {
  service::CompressionService svc(BenchServiceOptions(workloads.size()));
  AddBenchTenants(svc, workloads);
  ModeResult result;
  WallTimer timer;
  std::vector<std::thread> drivers;
  std::vector<std::uint64_t> mismatches(workloads.size(), 0);
  for (std::size_t t = 0; t < workloads.size(); ++t) {
    drivers.emplace_back([&, t] {
      const TenantWorkload& workload = workloads[t];
      std::deque<std::pair<const Request*, std::future<service::ServiceResponse>>>
          window;
      auto drain_one = [&] {
        auto [request, future] = std::move(window.front());
        window.pop_front();
        const service::ServiceResponse response = future.get();
        if (!response.ok() ||
            Xxh64(ByteSpan(response.payload)) != request->expected_hash) {
          ++mismatches[t];
        }
      };
      for (const Request& request : workload.requests) {
        auto future = request.decompress
                          ? svc.SubmitDecompress(workload.tenant,
                                                 request.payload)
                          : svc.SubmitCompress(workload.tenant,
                                               request.payload);
        window.emplace_back(&request, std::move(future));
        if (window.size() >= kWindow) drain_one();
      }
      while (!window.empty()) drain_one();
    });
  }
  for (auto& driver : drivers) driver.join();
  result.seconds = timer.Seconds();
  result.AccumulateTotals(workloads, mismatches);
  return result;
}

ModeResult RunOverTransport(const std::vector<TenantWorkload>& workloads,
                            std::uint64_t* server_requests,
                            std::uint64_t* server_connections) {
  service::CompressionService svc(BenchServiceOptions(workloads.size()));
  AddBenchTenants(svc, workloads);

  transport::TransportServerOptions server_options;
  server_options.socket_path =
      "/tmp/primacy_transport_load_" + std::to_string(::getpid()) + ".sock";
  server_options.max_connections = workloads.size() * kWindow + 4;
  transport::TransportServer server(svc, server_options);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "transport_load: server start failed: %s\n",
                 error.c_str());
    std::exit(1);
  }

  ModeResult result;
  WallTimer timer;
  std::vector<std::thread> drivers;
  std::vector<std::uint64_t> mismatches(workloads.size(), 0);
  for (std::size_t t = 0; t < workloads.size(); ++t) {
    drivers.emplace_back([&, t] {
      const TenantWorkload& workload = workloads[t];
      // One pooled client per tenant; kWindow synchronous callers model the
      // same kWindow-outstanding closed loop as the in-process futures.
      transport::TransportClientOptions client_options;
      client_options.socket_path = server_options.socket_path;
      client_options.max_pooled_connections = kWindow;
      transport::TransportClient client(std::move(client_options));
      std::vector<std::thread> slots;
      for (std::size_t w = 0; w < kWindow; ++w) {
        slots.emplace_back([&, w] {
          std::uint64_t bad = 0;
          for (std::size_t r = w; r < workload.requests.size(); r += kWindow) {
            const Request& request = workload.requests[r];
            const transport::TransportResult response =
                request.decompress
                    ? client.Decompress(workload.tenant,
                                        ByteSpan(request.payload))
                    : client.Compress(workload.tenant,
                                      ByteSpan(request.payload));
            if (!response.ok() ||
                Xxh64(ByteSpan(response.payload)) != request.expected_hash) {
              ++bad;
            }
          }
          if (bad != 0) {
            static primacy::Mutex tally_mu;
            primacy::MutexLock lock(tally_mu);
            mismatches[t] += bad;
          }
        });
      }
      for (auto& slot : slots) slot.join();
    });
  }
  for (auto& driver : drivers) driver.join();
  result.seconds = timer.Seconds();
  result.AccumulateTotals(workloads, mismatches);
  const transport::TransportServerStats stats = server.Stats();
  if (server_requests != nullptr) *server_requests = stats.requests;
  if (server_connections != nullptr) {
    *server_connections = stats.connections_accepted;
  }
  server.Shutdown();
  return result;
}

/// Interleaved rounds per mode. One single-shot pair put the ratio within
/// noise of its floor; the median of paired rounds does not move with one
/// slow round.
constexpr std::size_t kRounds = 9;

/// The round whose throughput is the median of `rounds`.
const ModeResult& MedianRound(const std::vector<ModeResult>& rounds) {
  std::vector<const ModeResult*> sorted;
  for (const ModeResult& r : rounds) sorted.push_back(&r);
  std::sort(sorted.begin(), sorted.end(),
            [](const ModeResult* a, const ModeResult* b) {
              return a->RequestsPerSec() < b->RequestsPerSec();
            });
  return *sorted[sorted.size() / 2];
}

BenchReport::Entry& Report(BenchReport& report, const std::string& mode,
                           const std::vector<ModeResult>& rounds) {
  const ModeResult& result = MedianRound(rounds);
  std::uint64_t mismatches = 0;
  for (const ModeResult& r : rounds) mismatches += r.mismatches;
  std::printf("  %-18s %8.0f req/s  %7.1f MB/s  %6.3f s  %s  (median of %zu)\n",
              mode.c_str(), result.RequestsPerSec(), result.MBps(),
              result.seconds,
              mismatches == 0 ? "all verified" : "VERIFICATION FAILED",
              rounds.size());
  return report.AddEntry(mode)
      .Set("rounds", rounds.size())
      .Set("requests", static_cast<std::size_t>(result.requests))
      .Set("seconds", result.seconds)
      .Set("requests_per_sec", result.RequestsPerSec())
      .Set("mb_per_sec", result.MBps())
      .Set("mismatches", static_cast<std::size_t>(mismatches))
      .Set("verified", mismatches == 0);
}

}  // namespace
}  // namespace primacy::bench

int main(int argc, char** argv) {
  using namespace primacy::bench;
  Init(argc, argv);
  PrintHeader("Transport boundary throughput (UDS daemon vs in-process)",
              "src/transport; closed-loop, hash-verified");

  const std::size_t requests_per_tenant = Quick() ? 256 : 2048;
  const auto workloads = BuildWorkloads(requests_per_tenant);
  std::printf("tenants=%zu  requests/tenant=%zu  window=%zu  payload=%zu B\n",
              workloads.size(), requests_per_tenant, kWindow,
              kRequestDoubles * 8);
  PrintRule();

  BenchReport report("transport");

  // Interleaved rounds, alternating which mode goes first, as
  // MedianInterleaved does for Table III: a burst of host load lands on
  // both modes of a round alike. The ratio is the median of the per-round
  // ratios; their spread is reported beside it.
  std::vector<ModeResult> inprocess;
  std::vector<ModeResult> transport;
  std::vector<double> ratios;
  std::uint64_t server_requests = 0;
  std::uint64_t server_connections = 0;
  for (std::size_t round = 0; round < kRounds; ++round) {
    const auto run_inprocess = [&] {
      inprocess.push_back(RunInProcess(workloads));
    };
    const auto run_transport = [&] {
      std::uint64_t requests = 0;
      std::uint64_t connections = 0;
      transport.push_back(
          RunOverTransport(workloads, &requests, &connections));
      server_requests += requests;
      server_connections += connections;
    };
    if (round % 2 == 0) {
      run_inprocess();
      run_transport();
    } else {
      run_transport();
      run_inprocess();
    }
    const double inprocess_rps = inprocess.back().RequestsPerSec();
    ratios.push_back(inprocess_rps > 0
                         ? transport.back().RequestsPerSec() / inprocess_rps
                         : 0.0);
  }
  Report(report, "service_inprocess", inprocess);
  Report(report, "transport_uds", transport)
      .Set("server_requests", static_cast<std::size_t>(server_requests))
      .Set("server_connections", static_cast<std::size_t>(server_connections));

  std::sort(ratios.begin(), ratios.end());
  const double ratio = ratios[ratios.size() / 2];
  // The boundary budget: wire framing + checksums + two socket hops must
  // not cost more than half the throughput on this ~4 KiB request mix.
  const bool target_met = ratio >= 0.5;
  PrintRule();
  std::printf("transport/in-process throughput ratio: %.2fx, median of %zu"
              " rounds (%.2f-%.2f) (target >= 0.50x — %s)\n",
              ratio, ratios.size(), ratios.front(), ratios.back(),
              target_met ? "met" : "MISSED");

  std::uint64_t total_mismatches = 0;
  for (const ModeResult& r : inprocess) total_mismatches += r.mismatches;
  for (const ModeResult& r : transport) total_mismatches += r.mismatches;
  report.AddEntry("summary")
      .Set("throughput_ratio", ratio)
      .Set("ratio_min", ratios.front())
      .Set("ratio_max", ratios.back())
      .Set("rounds", ratios.size())
      .Set("target_ratio", 0.5)
      .Set("target_met", target_met)
      .Set("verified", total_mismatches == 0);
  report.Write();
  if (total_mismatches != 0) {
    std::fprintf(stderr,
                 "transport_load: %llu responses failed verification\n",
                 static_cast<unsigned long long>(total_mismatches));
    return 1;
  }
  return 0;
}
