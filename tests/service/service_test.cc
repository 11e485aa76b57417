// CompressionService behavior under a VirtualClock: admission, batching,
// quotas, backpressure, cancellation, stats, cache partitioning. Every
// blocking wait here is resolved by a virtual-time Advance, an explicit
// Flush, or a future becoming ready — never a wall-clock sleep.
#include "service/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/primacy_codec.h"
#include "service/clock.h"
#include "telemetry/metrics.h"
#include "util/bytes.h"
#include "util/error.h"

namespace primacy::service {
namespace {

// Smooth doubles: compressible (no stored-stream fallback), so decompress
// streams carry a chunk directory and exercise the cache path.
Bytes MakePayload(std::size_t doubles, double offset = 0.0) {
  std::vector<double> values(doubles);
  for (std::size_t i = 0; i < doubles; ++i) {
    values[i] = offset + static_cast<double>(i) * 0.001;
  }
  Bytes bytes(values.size() * sizeof(double));
  std::memcpy(bytes.data(), values.data(), bytes.size());
  return bytes;
}

// Batching must never block a test on a timeout that only virtual time can
// fire: tests either cut by count or call Flush() explicitly.
BatchOptions ManualFlushBatching() {
  BatchOptions batch;
  batch.flush_bytes = 0;
  batch.flush_requests = 0;
  batch.flush_timeout_ns = 1ULL << 60;
  return batch;
}

TEST(ServiceTest, RoundTripMatchesDirectLibraryCalls) {
  VirtualClock clock;
  ServiceOptions options;
  options.batch = ManualFlushBatching();
  options.clock = &clock;
  CompressionService service(options);
  service.AddTenant({.name = "alpha"});

  const Bytes payload = MakePayload(512);
  auto compressed_future = service.SubmitCompress("alpha", payload);
  service.Flush();
  ServiceResponse compressed = compressed_future.get();
  ASSERT_TRUE(compressed.ok()) << compressed.error;

  PrimacyOptions direct_options;
  direct_options.threads = 1;
  const Bytes direct = PrimacyCompressor(direct_options).CompressBytes(payload);
  EXPECT_EQ(compressed.payload, direct);

  auto restored_future = service.SubmitDecompress("alpha", compressed.payload);
  service.Flush();
  ServiceResponse restored = restored_future.get();
  ASSERT_TRUE(restored.ok()) << restored.error;
  EXPECT_EQ(restored.payload, payload);
}

TEST(ServiceTest, CountTriggerCoalescesRequestsIntoOneBatch) {
  VirtualClock clock;
  ServiceOptions options;
  options.batch = ManualFlushBatching();
  options.batch.flush_requests = 4;
  options.clock = &clock;
  CompressionService service(options);
  service.AddTenant({.name = "alpha"});

  std::vector<std::future<ServiceResponse>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(
        service.SubmitCompress("alpha", MakePayload(64, i * 100.0)));
  }
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().ok());
  }
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.batch.count_flushes, 1u);
  EXPECT_EQ(stats.batch.batches, 1u);
  EXPECT_EQ(stats.batch.items, 4u);
  EXPECT_EQ(stats.completed, 4u);
}

TEST(ServiceTest, QuotaRejectReportsExactRetryAfterBoundary) {
  VirtualClock clock;
  ServiceOptions options;
  options.batch = ManualFlushBatching();
  options.clock = &clock;
  CompressionService service(options);
  service.AddTenant({.name = "alpha",
                     .quota_bytes_per_sec = 1000,
                     .quota_burst_bytes = 4096,
                     .on_pressure = BackpressurePolicy::kReject});

  const Bytes payload = MakePayload(512);  // 4096 bytes: drains the bucket
  auto admitted = service.SubmitCompress("alpha", payload);

  ServiceResponse rejected = service.SubmitCompress("alpha", payload).get();
  EXPECT_EQ(rejected.status, ServiceStatus::kRejectedQuota);
  ASSERT_GT(rejected.retry_after_ns, 0u);

  // One nanosecond short of the hint: still rejected. Exactly the hint:
  // admitted. This is the determinism the integer token bucket guarantees.
  clock.Advance(rejected.retry_after_ns - 1);
  ServiceResponse still_rejected =
      service.SubmitCompress("alpha", payload).get();
  EXPECT_EQ(still_rejected.status, ServiceStatus::kRejectedQuota);
  clock.Advance(1);
  auto admitted2 = service.SubmitCompress("alpha", payload);
  service.Flush();
  EXPECT_TRUE(admitted.get().ok());
  EXPECT_TRUE(admitted2.get().ok());

  const TenantStatsSnapshot tenant = service.TenantStats("alpha");
  EXPECT_EQ(tenant.admitted_requests, 2u);
  EXPECT_EQ(tenant.rejected_quota, 2u);
  EXPECT_EQ(tenant.rejected_bytes, 2u * payload.size());
}

TEST(ServiceTest, OversizedRequestRejectsEvenUnderBlockPolicy) {
  VirtualClock clock;
  ServiceOptions options;
  options.batch = ManualFlushBatching();
  options.clock = &clock;
  CompressionService service(options);
  service.AddTenant({.name = "alpha",
                     .quota_bytes_per_sec = 1000,
                     .quota_burst_bytes = 100,
                     .on_pressure = BackpressurePolicy::kBlock});
  // 4096 bytes can never fit a 100-byte burst; blocking would hang forever,
  // so the service fails fast despite the kBlock policy.
  ServiceResponse response =
      service.SubmitCompress("alpha", MakePayload(512)).get();
  EXPECT_EQ(response.status, ServiceStatus::kRejectedQuota);
}

TEST(ServiceTest, BlockPolicyUnblocksWhenVirtualTimeRefillsQuota) {
  VirtualClock clock;
  ServiceOptions options;
  options.batch = ManualFlushBatching();
  options.clock = &clock;
  CompressionService service(options);
  service.AddTenant({.name = "alpha",
                     .quota_bytes_per_sec = 1000,
                     .quota_burst_bytes = 4096,
                     .on_pressure = BackpressurePolicy::kBlock});

  const Bytes payload = MakePayload(512);  // 4096 bytes
  auto first = service.SubmitCompress("alpha", payload);  // drains the bucket
  std::future<ServiceResponse> second;
  std::thread submitter([&] {
    // Blocks inside Submit until the bucket refills (or, if the advance
    // below lands first, admits immediately — both are correct).
    second = service.SubmitCompress("alpha", payload);
  });
  clock.Advance(4'096'000'000ULL);  // 4096 bytes at 1000 B/s
  submitter.join();
  service.Flush();
  EXPECT_TRUE(first.get().ok());
  EXPECT_TRUE(second.get().ok());
  EXPECT_EQ(service.Stats().rejected_quota, 0u);
}

TEST(ServiceTest, InflightRejectPolicyFailsFastAndRecovers) {
  VirtualClock clock;
  ServiceOptions options;
  options.batch = ManualFlushBatching();
  options.clock = &clock;
  CompressionService service(options);
  service.AddTenant({.name = "alpha",
                     .max_inflight = 1,
                     .on_pressure = BackpressurePolicy::kReject});

  const Bytes payload = MakePayload(64);
  auto first = service.SubmitCompress("alpha", payload);
  ServiceResponse rejected = service.SubmitCompress("alpha", payload).get();
  EXPECT_EQ(rejected.status, ServiceStatus::kRejectedInflight);
  EXPECT_GT(rejected.retry_after_ns, 0u);
  service.Flush();
  EXPECT_TRUE(first.get().ok());
  auto third = service.SubmitCompress("alpha", payload);  // capacity is back
  service.Flush();
  EXPECT_TRUE(third.get().ok());
}

TEST(ServiceTest, BlockPolicyUnblocksWhenACompletionFreesInflight) {
  VirtualClock clock;
  ServiceOptions options;
  options.batch = ManualFlushBatching();
  options.clock = &clock;
  CompressionService service(options);
  service.AddTenant({.name = "alpha",
                     .max_inflight = 1,
                     .on_pressure = BackpressurePolicy::kBlock});

  const Bytes payload = MakePayload(64);
  auto first = service.SubmitCompress("alpha", payload);
  std::future<ServiceResponse> second;
  std::thread submitter([&] {
    second = service.SubmitCompress("alpha", payload);
  });
  // Completing the first request is what frees in-flight capacity; the
  // blocked submitter wakes on the completion notification.
  service.Flush();
  submitter.join();
  service.Flush();  // the second request was queued after the first flush
  EXPECT_TRUE(first.get().ok());
  EXPECT_TRUE(second.get().ok());
}

TEST(ServiceTest, DrainTenantCancelsQueuedRequests) {
  VirtualClock clock;
  ServiceOptions options;
  options.batch = ManualFlushBatching();
  options.clock = &clock;
  CompressionService service(options);
  service.AddTenant({.name = "alpha"});
  service.AddTenant({.name = "beta"});

  const Bytes payload = MakePayload(64);
  std::vector<std::future<ServiceResponse>> doomed;
  for (int i = 0; i < 3; ++i) {
    doomed.push_back(service.SubmitCompress("alpha", payload));
  }
  auto survivor = service.SubmitCompress("beta", payload);

  EXPECT_EQ(service.DrainTenant("alpha"), 3u);
  for (auto& future : doomed) {
    EXPECT_EQ(future.get().status, ServiceStatus::kCancelled);
  }
  // Other tenants' requests in the same batch are untouched.
  EXPECT_TRUE(survivor.get().ok());
  // The drained tenant is immediately usable again.
  auto next = service.SubmitCompress("alpha", payload);
  service.Flush();
  EXPECT_TRUE(next.get().ok());
  const TenantStatsSnapshot stats = service.TenantStats("alpha");
  EXPECT_EQ(stats.cancelled, 3u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(ServiceTest, CorruptStreamResolvesAsErrorResponse) {
  VirtualClock clock;
  ServiceOptions options;
  options.batch = ManualFlushBatching();
  options.clock = &clock;
  CompressionService service(options);
  service.AddTenant({.name = "alpha"});

  Bytes garbage(64, std::byte{0x5a});
  auto future = service.SubmitDecompress("alpha", std::move(garbage));
  service.Flush();
  ServiceResponse response = future.get();
  EXPECT_EQ(response.status, ServiceStatus::kError);
  EXPECT_FALSE(response.error.empty());
  EXPECT_EQ(service.TenantStats("alpha").failed, 1u);
}

TEST(ServiceTest, TenantValidation) {
  VirtualClock clock;
  ServiceOptions options;
  options.batch = ManualFlushBatching();
  options.clock = &clock;
  CompressionService service(options);
  service.AddTenant({.name = "alpha"});
  EXPECT_THROW(service.AddTenant({.name = "alpha"}), InvalidArgumentError);
  EXPECT_THROW(service.AddTenant({.name = ""}), InvalidArgumentError);
  EXPECT_THROW(service.AddTenant({.name = "bad name"}), InvalidArgumentError);
  EXPECT_THROW(service.AddTenant({.name = "quote\"y"}), InvalidArgumentError);
  EXPECT_THROW(service.AddTenant({.name = "b", .cache_share = 1.5}),
               InvalidArgumentError);
  EXPECT_THROW(service.SubmitCompress("ghost", MakePayload(8)),
               InvalidArgumentError);
  // Cumulative cache shares cannot exceed the budget.
  service.AddTenant({.name = "c", .cache_share = 0.7});
  EXPECT_THROW(service.AddTenant({.name = "d", .cache_share = 0.4}),
               InvalidArgumentError);
}

TEST(ServiceTest, DestructorDrainsPendingRequestsToCompletion) {
  VirtualClock clock;
  const Bytes payload = MakePayload(128);
  std::future<ServiceResponse> future;
  {
    ServiceOptions options;
    options.batch = ManualFlushBatching();
    options.clock = &clock;
    CompressionService service(options);
    service.AddTenant({.name = "alpha"});
    future = service.SubmitCompress("alpha", payload);
    // No Flush: the destructor must drain the queue, not strand the item.
  }
  EXPECT_TRUE(future.get().ok());
}

TEST(ServiceTest, TenantCachePartitionServesRepeatedDecompress) {
  VirtualClock clock;
  ServiceOptions options;
  options.batch = ManualFlushBatching();
  options.clock = &clock;
  options.cache_capacity_bytes = 8 * 1024 * 1024;
  CompressionService service(options);
  service.AddTenant({.name = "hot", .cache_share = 0.5});
  service.AddTenant({.name = "cold", .cache_share = 0.5});

  const Bytes payload = MakePayload(2048);
  auto compressed = service.SubmitCompress("hot", payload);
  service.Flush();
  const Bytes stream = compressed.get().payload;
  ASSERT_FALSE(stream.empty());

  for (int round = 0; round < 3; ++round) {
    auto future = service.SubmitDecompress("hot", stream);
    service.Flush();
    ASSERT_TRUE(future.get().ok());
  }
  const TenantStatsSnapshot hot = service.TenantStats("hot");
  EXPECT_GT(hot.cache_hits, 0u);
  // The partition is private: the other tenant's cache saw none of it.
  const TenantStatsSnapshot cold = service.TenantStats("cold");
  EXPECT_EQ(cold.cache_hits + cold.cache_misses, 0u);
}

TEST(ServiceTest, StatsCountAdmittedBytesAndBatches) {
  VirtualClock clock;
  ServiceOptions options;
  options.batch = ManualFlushBatching();
  options.batch.flush_requests = 2;
  options.clock = &clock;
  CompressionService service(options);
  service.AddTenant({.name = "alpha"});

  const Bytes payload = MakePayload(64);  // 512 bytes
  auto a = service.SubmitCompress("alpha", payload);
  auto b = service.SubmitCompress("alpha", payload);
  EXPECT_TRUE(a.get().ok());
  EXPECT_TRUE(b.get().ok());
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.admitted_requests, 2u);
  EXPECT_EQ(stats.admitted_bytes, 2u * payload.size());
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.batch.items, 2u);
}

TEST(ServiceTest, TelemetryExportsServiceSeries) {
  VirtualClock clock;
  ServiceOptions options;
  options.batch = ManualFlushBatching();
  options.clock = &clock;
  CompressionService service(options);
  service.AddTenant({.name = "telemetry_tenant"});
  auto future = service.SubmitCompress("telemetry_tenant", MakePayload(64));
  service.Flush();
  ASSERT_TRUE(future.get().ok());
#if PRIMACY_TELEMETRY_ENABLED
  const std::string rendered =
      telemetry::MetricsRegistry::Global().RenderPrometheus();
  EXPECT_NE(rendered.find("primacy_service_requests_total"), std::string::npos);
  EXPECT_NE(rendered.find("tenant=\"telemetry_tenant\""), std::string::npos);
  EXPECT_NE(rendered.find("primacy_service_batch_fill_ratio"),
            std::string::npos);
#endif
}

// Delegates to a VirtualClock but flags the first no-deadline WaitUntil
// made by one watched thread — the wait a submitter blocked on in-flight
// capacity performs. (The deadline alone is not enough: the batch flusher
// also waits without a deadline while idle.) Seeing the flag proves the
// watched submitter is inside Submit, which makes destroying the service
// out from under it race-free (the destructor's documented wake-up path).
class WaitObservingClock final : public ServiceClock {
 public:
  explicit WaitObservingClock(VirtualClock* inner) : inner_(inner) {}
  std::uint64_t NowNs() const override { return inner_->NowNs(); }
  void RegisterWaiter(primacy::Mutex* mutex, primacy::CondVar* cv) override {
    inner_->RegisterWaiter(mutex, cv);
  }
  void UnregisterWaiter(primacy::CondVar* cv) override {
    inner_->UnregisterWaiter(cv);
  }
  void WaitUntil(primacy::Mutex& mu, primacy::CondVar& cv,
                 std::uint64_t deadline_ns) override PRIMACY_REQUIRES(mu) {
    if (deadline_ns == kNoDeadlineNs &&
        std::this_thread::get_id() == watched_thread.load()) {
      watched_thread_waiting.store(true, std::memory_order_release);
    }
    inner_->WaitUntil(mu, cv, deadline_ns);
  }

  std::atomic<std::thread::id> watched_thread{};
  std::atomic<bool> watched_thread_waiting{false};

 private:
  VirtualClock* inner_;
};

TEST(ServiceTest, RejectionReasonLabelSetIsPinned) {
#if PRIMACY_TELEMETRY_ENABLED
  telemetry::MetricsRegistry::Global().ResetAllForTest();
#endif
  VirtualClock virtual_clock;
  WaitObservingClock clock(&virtual_clock);
  ServiceOptions options;
  options.batch = ManualFlushBatching();
  options.clock = &clock;
  {
    auto service = std::make_unique<CompressionService>(options);
    service->AddTenant({.name = "alpha",
                        .quota_bytes_per_sec = 1000,
                        .quota_burst_bytes = 600,
                        .max_inflight = 1,
                        .on_pressure = BackpressurePolicy::kReject});
    service->AddTenant({.name = "blocked",
                        .max_inflight = 1,
                        .on_pressure = BackpressurePolicy::kBlock});

    const Bytes payload = MakePayload(64);  // 512 bytes, fits the burst once
    auto first = service->SubmitCompress("alpha", payload);
    EXPECT_EQ(service->SubmitCompress("alpha", payload).get().status,
              ServiceStatus::kRejectedInflight);
    service->Flush();
    EXPECT_TRUE(first.get().ok());
    // Capacity is back but the bucket is not: 88 of 600 burst bytes remain
    // and virtual time never advances, so this rejection is quota-reasoned.
    EXPECT_EQ(service->SubmitCompress("alpha", payload).get().status,
              ServiceStatus::kRejectedQuota);

    // A submitter blocked on in-flight capacity when the service shuts
    // down resolves kShuttingDown — the "draining" reason.
    auto held = service->SubmitCompress("blocked", payload);
    std::future<ServiceResponse> drained;
    std::thread submitter([&] {
      clock.watched_thread.store(std::this_thread::get_id());
      drained = service->SubmitCompress("blocked", payload);
    });
    while (!clock.watched_thread_waiting.load(std::memory_order_acquire)) {
      std::this_thread::yield();  // until the submitter is provably blocked
    }
    service.reset();  // wakes the blocked submitter: stopping wins
    submitter.join();
    EXPECT_EQ(drained.get().status, ServiceStatus::kShuttingDown);
    EXPECT_TRUE(held.get().ok());
  }
#if PRIMACY_TELEMETRY_ENABLED
  auto& registry = telemetry::MetricsRegistry::Global();
  EXPECT_EQ(registry
                .GetCounter("primacy_service_rejections_total",
                            "tenant=\"alpha\",reason=\"inflight\"")
                .Value(),
            1u);
  EXPECT_EQ(registry
                .GetCounter("primacy_service_rejections_total",
                            "tenant=\"alpha\",reason=\"quota\"")
                .Value(),
            1u);
  EXPECT_EQ(registry
                .GetCounter("primacy_service_rejections_total",
                            "tenant=\"blocked\",reason=\"draining\"")
                .Value(),
            1u);
  // The label set is closed: every reason in the exposition is one of the
  // three values dashboards alert on. Growing it is an interface change.
  const std::string rendered = registry.RenderPrometheus();
  std::size_t pos = 0;
  while ((pos = rendered.find("reason=\"", pos)) != std::string::npos) {
    pos += std::strlen("reason=\"");
    const std::size_t end = rendered.find('"', pos);
    ASSERT_NE(end, std::string::npos);
    const std::string reason = rendered.substr(pos, end - pos);
    EXPECT_TRUE(reason == "quota" || reason == "inflight" ||
                reason == "draining")
        << "unexpected rejection reason label: " << reason;
  }
#endif
}

TEST(ServiceTest, SlowRequestWatchdogCapturesSloBreaches) {
#if PRIMACY_TELEMETRY_ENABLED
  telemetry::MetricsRegistry::Global().ResetAllForTest();
#endif
  VirtualClock clock;
  ServiceOptions options;
  options.batch = ManualFlushBatching();
  options.clock = &clock;
  options.slow_request_slo_ns = 1000;
  CompressionService service(options);
  service.AddTenant({.name = "alpha"});

  const Bytes payload = MakePayload(64);
  // Queued for five SLOs of virtual time before the flush: a breach.
  auto slow = service.SubmitCompress("alpha", payload);
  clock.Advance(5000);
  service.Flush();
  ASSERT_TRUE(slow.get().ok());
  std::vector<SlowRequestEvent> events = service.SlowRequests();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].tenant, "alpha");
  EXPECT_EQ(events[0].type, "compress");
  EXPECT_EQ(events[0].status, ServiceStatus::kOk);
  EXPECT_EQ(events[0].bytes, payload.size());
  EXPECT_GE(events[0].latency_ns, 5000u);
  EXPECT_EQ(events[0].slo_ns, 1000u);

  // A request completing within the SLO is not captured.
  auto fast = service.SubmitCompress("alpha", payload);
  service.Flush();
  ASSERT_TRUE(fast.get().ok());
  EXPECT_EQ(service.SlowRequests().size(), 1u);

  // The log keeps the newest 64 events: 65 more breaches, each with its own
  // payload size, push out the compress event and the first decompress.
  constexpr std::size_t kLogCapacity = 64;
  constexpr std::size_t kBreaches = kLogCapacity + 1;
  for (std::size_t i = 0; i < kBreaches; ++i) {
    auto breach = service.SubmitDecompress("alpha", MakePayload(8 + i));
    clock.Advance(2000);
    service.Flush();
    EXPECT_FALSE(breach.get().ok());  // raw doubles are not a stream
  }
  events = service.SlowRequests();
  ASSERT_EQ(events.size(), kLogCapacity);
  for (std::size_t k = 0; k < kLogCapacity; ++k) {
    EXPECT_EQ(events[k].type, "decompress") << k;
    EXPECT_EQ(events[k].status, ServiceStatus::kError) << k;
    EXPECT_EQ(events[k].bytes, (8 + 1 + k) * sizeof(double)) << k;
  }

#if PRIMACY_TELEMETRY_ENABLED
  EXPECT_EQ(telemetry::MetricsRegistry::Global()
                .GetCounter("primacy_slow_requests_total",
                            "tenant=\"alpha\"")
                .Value(),
            1 + kBreaches);
#endif
}

TEST(ServiceTest, WatchdogDisabledByDefault) {
  VirtualClock clock;
  ServiceOptions options;
  options.batch = ManualFlushBatching();
  options.clock = &clock;
  CompressionService service(options);
  service.AddTenant({.name = "alpha"});
  auto future = service.SubmitCompress("alpha", MakePayload(64));
  clock.Advance(1'000'000'000);  // a full second in queue: nobody cares
  service.Flush();
  EXPECT_TRUE(future.get().ok());
  EXPECT_TRUE(service.SlowRequests().empty());
}

TEST(ServiceTest, StatusJsonRendersTenantsQueueAndSlowRequests) {
  VirtualClock clock;
  ServiceOptions options;
  options.batch = ManualFlushBatching();
  options.clock = &clock;
  options.slow_request_slo_ns = 1000;
  CompressionService service(options);
  service.AddTenant({.name = "alpha"});
  service.AddTenant({.name = "beta", .quota_bytes_per_sec = 1000,
                     .quota_burst_bytes = 4096});

  auto slow = service.SubmitCompress("alpha", MakePayload(64));
  clock.Advance(5000);
  service.Flush();
  ASSERT_TRUE(slow.get().ok());

  const std::string json = service.StatusJson();
  EXPECT_NE(json.find("\"tenants\""), std::string::npos);
  EXPECT_NE(json.find("\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"beta\""), std::string::npos);
  EXPECT_NE(json.find("\"queue_depth\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"slow_requests\""), std::string::npos);
  EXPECT_NE(json.find("\"type\": \"compress\""), std::string::npos);
  EXPECT_NE(json.find("\"result\": \"ok\""), std::string::npos);
  // Unlimited tenants omit the quota field; limited tenants render it.
  EXPECT_NE(json.find("\"quota_available_bytes\""), std::string::npos);
  // Structural sanity: balanced braces and brackets.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(ServiceTest, CompressMemoServesRepeatedPayloadsByteIdentical) {
  VirtualClock clock;
  ServiceOptions options;
  options.batch = ManualFlushBatching();
  options.clock = &clock;
  CompressionService service(options);
  TenantConfig config;
  config.name = "memoized";
  config.memo_bytes = 1 << 20;
  service.AddTenant(config);

  PrimacyOptions direct_options;
  direct_options.threads = 1;
  const Bytes payload = MakePayload(512);
  const Bytes expected = PrimacyCompressor(direct_options).CompressBytes(payload);
  for (int round = 0; round < 3; ++round) {
    auto future = service.SubmitCompress("memoized", payload);
    service.Flush();
    ServiceResponse response = future.get();
    ASSERT_TRUE(response.ok()) << response.error;
    // Hits must be byte-identical to the miss (and to the direct call) —
    // the memo may change where the stream comes from, never what it is.
    EXPECT_EQ(response.payload, expected) << "round " << round;
  }
  const TenantStatsSnapshot stats = service.TenantStats("memoized");
  EXPECT_EQ(stats.memo_hits, 2u);  // first round populated, two served
  EXPECT_GT(stats.memo_bytes_used, payload.size());
}

TEST(ServiceTest, MemoOffByDefaultAndBudgetTooSmallToFit) {
  VirtualClock clock;
  ServiceOptions options;
  options.batch = ManualFlushBatching();
  options.clock = &clock;
  CompressionService service(options);
  service.AddTenant({.name = "plain"});
  TenantConfig tiny;
  tiny.name = "tiny";
  tiny.memo_bytes = 16;  // smaller than any (input, stream) pair
  service.AddTenant(tiny);

  const Bytes payload = MakePayload(256);
  for (const char* tenant : {"plain", "tiny"}) {
    for (int round = 0; round < 2; ++round) {
      auto future = service.SubmitCompress(tenant, payload);
      service.Flush();
      ASSERT_TRUE(future.get().ok());
    }
    const TenantStatsSnapshot stats = service.TenantStats(tenant);
    EXPECT_EQ(stats.memo_hits, 0u) << tenant;
    EXPECT_EQ(stats.memo_bytes_used, 0u) << tenant;
  }
}

TEST(ServiceTest, MemoEvictsOldestEntryWhenOverBudget) {
  VirtualClock clock;
  ServiceOptions options;
  options.batch = ManualFlushBatching();
  options.clock = &clock;
  CompressionService service(options);
  const Bytes a = MakePayload(512, 1.0);
  const Bytes b = MakePayload(512, 2.0);
  PrimacyOptions direct_options;
  direct_options.threads = 1;
  const PrimacyCompressor direct(direct_options);
  // Budget fits exactly one entry, so inserting `b` must evict `a`.
  TenantConfig config;
  config.name = "one_slot";
  config.memo_bytes =
      a.size() + direct.CompressBytes(a).size() + 64 + 512;
  service.AddTenant(config);

  auto submit = [&](const Bytes& payload) {
    auto future = service.SubmitCompress("one_slot", payload);
    service.Flush();
    ServiceResponse response = future.get();
    EXPECT_TRUE(response.ok()) << response.error;
    return response.payload;
  };
  submit(a);                                       // populate a
  EXPECT_EQ(submit(a), direct.CompressBytes(a));   // hit
  submit(b);                                       // evicts a
  EXPECT_EQ(submit(b), direct.CompressBytes(b));   // hit on b
  EXPECT_EQ(submit(a), direct.CompressBytes(a));   // miss again: recomputed
  const TenantStatsSnapshot stats = service.TenantStats("one_slot");
  EXPECT_EQ(stats.memo_hits, 2u);
  EXPECT_LE(stats.memo_bytes_used, config.memo_bytes);
}

}  // namespace
}  // namespace primacy::service
