// Multi-tenant compression/decompression service over the PRIMACY codec.
//
// This is the long-lived request layer the ROADMAP's "serves millions of
// users" north star asks for: callers submit small compress/decompress
// requests tagged with a tenant, an admission queue coalesces them into
// chunk-sized batches (flush on size, count, or timeout — see
// batch_queue.h), and batches execute on the shared thread pool through a
// pool of reusable codec worker contexts, so per-request dispatch and
// codec-state construction cost is amortized across the batch.
//
// Per tenant, admission enforces a byte-rate token bucket and an in-flight
// cap with explicit backpressure: BackpressurePolicy::kReject fails fast
// with a retry_after_ns hint, kBlock holds the submitter until capacity
// frees. Each tenant may also own a share of the service's decoded-block
// cache budget as a private partition, so one tenant's hot read set never
// evicts another's.
//
// Every response is byte-identical to the corresponding direct library
// call (PrimacyCompressor::CompressBytes / PrimacyDecompressor::
// DecompressBytes) — batching changes when and where work runs, never what
// it produces. The service_load bench hash-verifies this on every request.
//
// All time flows through a ServiceClock (clock.h), so the whole layer —
// flush timeouts, quota refill, retry-after, latency accounting — is
// driven deterministically by a VirtualClock in tests, with no real sleeps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/primacy_codec.h"
#include "service/batch_queue.h"
#include "service/clock.h"
#include "service/tenant.h"
#include "util/bytes.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace primacy::service {

namespace internal {
struct Tenant;  // per-tenant admission state (service.cc)
}  // namespace internal

enum class ServiceStatus : std::uint8_t {
  kOk,
  /// Quota bucket cannot cover the request; retry_after_ns says when it can.
  kRejectedQuota,
  /// Tenant is at its in-flight cap; retry_after_ns is a coarse hint.
  kRejectedInflight,
  /// The tenant was drained after this request was admitted.
  kCancelled,
  /// The codec threw (corrupt stream on decompress, bad arguments); the
  /// message is in `error`.
  kError,
  /// Submitted during/after shutdown.
  kShuttingDown,
};

struct ServiceResponse {
  ServiceStatus status = ServiceStatus::kError;
  /// Compressed stream (compress) or restored bytes (decompress); empty
  /// unless status == kOk.
  Bytes payload;
  /// For kRejected*: nanoseconds until the request could be admitted.
  std::uint64_t retry_after_ns = 0;
  std::string error;

  bool ok() const { return status == ServiceStatus::kOk; }
};

struct ServiceOptions {
  /// Codec options every request is served with. `threads` is forced to 1
  /// per request — parallelism comes from batching across requests, and the
  /// serial path is what the reusable worker contexts accelerate.
  PrimacyOptions codec;
  BatchOptions batch;
  /// Total decoded-block cache budget partitioned across tenants by their
  /// cache_share (0 = no tenant caches).
  std::size_t cache_capacity_bytes = 0;
  /// Time source; null = the process-wide SystemServiceClock. Not owned;
  /// must outlive the service.
  ServiceClock* clock = nullptr;
  /// Slow-request watchdog SLO: a request whose admit-to-completion latency
  /// exceeds this is recorded in the slow-request log and counted in
  /// primacy_slow_requests_total. 0 disables the watchdog.
  std::uint64_t slow_request_slo_ns = 0;
};

/// One watchdog capture: the context of a request that blew through the
/// latency SLO, bounded-log'd so a latency incident is diagnosable from
/// /statusz without trace archaeology.
struct SlowRequestEvent {
  std::string tenant;
  std::string type;  // "compress" | "decompress"
  ServiceStatus status = ServiceStatus::kError;
  std::size_t bytes = 0;
  std::uint64_t admit_ns = 0;
  std::uint64_t latency_ns = 0;
  std::uint64_t slo_ns = 0;
  /// Admission-queue depth and the tenant's in-flight count at completion —
  /// the first question in any latency incident is "was it queueing?".
  std::size_t queue_depth = 0;
  std::size_t tenant_inflight = 0;
};

/// Service-wide exact counters (functional, kept under the service mutex —
/// meaningful even when telemetry is compiled out). Batch counters come
/// from the admission queue.
struct ServiceStatsSnapshot {
  std::uint64_t admitted_requests = 0;
  std::uint64_t admitted_bytes = 0;
  std::uint64_t rejected_quota = 0;
  std::uint64_t rejected_inflight = 0;
  std::uint64_t rejected_bytes = 0;
  std::uint64_t completed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t failed = 0;
  BatchQueue::Stats batch;
};

class CompressionService {
 public:
  explicit CompressionService(ServiceOptions options);

  /// Drains the admission queue, waits for every dispatched batch to
  /// finish (all futures are fulfilled), and joins the flusher.
  ~CompressionService();

  CompressionService(const CompressionService&) = delete;
  CompressionService& operator=(const CompressionService&) = delete;

  /// Registers a tenant before any traffic for it. Throws on duplicate
  /// names, names not matching [A-Za-z0-9_.-]+, or cache_share outside
  /// [0, 1].
  void AddTenant(const TenantConfig& config);

  /// Submits one request. The future is always fulfilled: with the result,
  /// a rejection (policy kReject), kCancelled (tenant drained first), or
  /// kError (codec failure). With policy kBlock the call itself may block
  /// until quota/in-flight capacity frees. Unknown tenants throw
  /// InvalidArgumentError.
  std::future<ServiceResponse> SubmitCompress(std::string_view tenant,
                                              Bytes payload);
  std::future<ServiceResponse> SubmitDecompress(std::string_view tenant,
                                                Bytes stream);

  /// As SubmitDecompress, but decodes only elements
  /// [first_element, first_element + element_count) of the stream — the
  /// random-access path the transport layer exposes as DecompressRange.
  std::future<ServiceResponse> SubmitDecompressRange(
      std::string_view tenant, Bytes stream, std::uint64_t first_element,
      std::uint64_t element_count);

  /// Cancels the tenant's admitted-but-not-executed requests (their futures
  /// resolve kCancelled) and flushes the queue so the cancellations land
  /// promptly. Requests admitted after this call proceed normally. Returns
  /// the number of requests that were in flight at the cut.
  std::size_t DrainTenant(std::string_view tenant);

  /// Force-flushes the admission queue (tests and latency-sensitive
  /// callers; normal operation relies on the size/count/timeout triggers).
  void Flush();

  ServiceStatsSnapshot Stats() const;
  TenantStatsSnapshot TenantStats(std::string_view tenant) const;

  /// The watchdog's slow-request log, the newest 64 events oldest first
  /// (empty unless ServiceOptions::slow_request_slo_ns is set).
  std::vector<SlowRequestEvent> SlowRequests() const;

  /// Point-in-time service state as a JSON object (per-tenant quota /
  /// in-flight / cache counters, queue depth, the slow-request log) — the
  /// fragment the ObservabilityHub serves under /statusz.
  std::string StatusJson() const;

  const ServiceOptions& options() const { return options_; }

 private:
  enum class RequestType : std::uint8_t {
    kCompress,
    kDecompress,
    kDecompressRange,
  };

  /// `first_element`/`element_count` are meaningful only for
  /// kDecompressRange.
  std::future<ServiceResponse> Submit(RequestType type,
                                      std::string_view tenant_name,
                                      Bytes payload,
                                      std::uint64_t first_element = 0,
                                      std::uint64_t element_count = 0)
      PRIMACY_EXCLUDES(mu_);
  internal::Tenant& FindTenant(std::string_view name) const
      PRIMACY_EXCLUDES(mu_);
  void DispatchBatch(BatchQueue::Batch&& batch) PRIMACY_EXCLUDES(mu_);
  void ExecuteBatch(BatchQueue::Batch& batch);

  CodecContext* CheckOutContext() PRIMACY_EXCLUDES(context_mu_);
  void ReturnContext(CodecContext* context) PRIMACY_EXCLUDES(context_mu_);

  ServiceOptions options_;
  ServiceClock* clock_;  // options_.clock or the system clock

  /// Service-wide admission/completion lock. Also guards, cross-object, the
  /// admission state inside each internal::Tenant (bucket, inflight,
  /// cancel_epoch, stats) — see the Tenant definition in service.cc. Lock
  /// order: mu_ before a tenant's memo_mu; BatchQueue's internal lock is
  /// never taken while mu_ is held.
  mutable primacy::Mutex mu_;
  /// Paired with mu_. Wakes blocked submitters (quota refill via clock
  /// Advance, completions) and the destructor's outstanding-batch wait.
  /// Registered with the clock so VirtualClock::Advance can wake timed
  /// quota waits.
  primacy::CondVar cv_;
  std::unordered_map<std::string, std::unique_ptr<internal::Tenant>> tenants_
      PRIMACY_GUARDED_BY(mu_);
  ServiceStatsSnapshot stats_ PRIMACY_GUARDED_BY(mu_);
  /// Watchdog log, newest at the back, capped at 64 events.
  std::deque<SlowRequestEvent> slow_requests_ PRIMACY_GUARDED_BY(mu_);
  std::size_t outstanding_batches_ PRIMACY_GUARDED_BY(mu_) = 0;
  /// Threads currently inside Submit (blocked or resolving). The destructor
  /// drains this to zero after setting stopping_, so a submitter woken into
  /// the kShuttingDown path never races member teardown.
  std::size_t active_submitters_ PRIMACY_GUARDED_BY(mu_) = 0;
  bool stopping_ PRIMACY_GUARDED_BY(mu_) = false;

  /// Reusable codec worker state: checked out per batch slot, returned when
  /// the slot finishes, so encoder scratch and solver instances persist
  /// across batches instead of being rebuilt per request.
  primacy::Mutex context_mu_;
  std::vector<std::unique_ptr<CodecContext>> contexts_
      PRIMACY_GUARDED_BY(context_mu_);
  std::vector<CodecContext*> free_contexts_ PRIMACY_GUARDED_BY(context_mu_);

  /// Declared last: the queue's flusher may touch everything above.
  std::unique_ptr<BatchQueue> queue_;
};

}  // namespace primacy::service
