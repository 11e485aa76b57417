// TransportServer: the Unix-domain-socket front door of a PRIMACY daemon.
//
// One accept loop plus two threads per connection (reader and writer)
// bridge the wire protocol (transport/wire.h) onto the in-process
// CompressionService:
//
//   reader:  RecvFrame -> DecodeFrame -> SubmitCompress/Decompress/Range
//            (futures), or answers Ping/Stats inline; pushes replies-to-be
//            onto the connection's queue. Requests are *pipelined*: the
//            reader keeps decoding while earlier requests are still in
//            flight, so one connection can have many outstanding ids.
//   writer:  pops the queue in arrival order, waits for each future,
//            encodes the response or error frame, SendAll with the write
//            deadline. Replies carry request ids, so in-order writing is an
//            implementation detail, not a protocol promise.
//
// Backpressure and limits: at most `max_connections` concurrent
// connections (excess get a kTooManyConnections error frame and a close);
// at most `max_pipelined_requests` queued replies per connection (the
// reader pauses, which stops draining the socket and lets the kernel
// buffers push back on the client). Per-connection deadlines bound how
// long a *started* frame may take to arrive and how long a reply write may
// stall; idle connections are never timed out.
//
// Graceful drain (Shutdown, also run by the destructor): stop accepting,
// wake every reader (no new requests), let writers flush every queued
// reply — in-flight service work completes and is delivered — then join
// and close. Service admission itself answers kShuttingDown during a
// service-level drain; the transport maps that status straight onto the
// wire.
//
// All blocking runs on the ServiceClock seam: socket deadlines are
// evaluated against the clock (see socket_io.h), queue handoffs use
// primacy::Mutex/CondVar, and nothing sleeps.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/clock.h"
#include "service/service.h"
#include "transport/socket_io.h"
#include "transport/wire.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace primacy::transport {

struct TransportServerOptions {
  /// Filesystem path of the Unix domain socket (created on Start, unlinked
  /// on Shutdown). Must fit in sockaddr_un (~107 bytes).
  std::string socket_path;
  /// Concurrent connection cap; excess connections are refused with a
  /// kTooManyConnections error frame carrying a 50 ms retry hint.
  std::size_t max_connections = 64;
  /// Queued-but-unwritten replies per connection before the reader pauses.
  std::size_t max_pipelined_requests = 128;
  /// Budget for the remainder of a frame once its first byte arrived
  /// (slow-loris guard). kNoDeadlineNs disables.
  std::uint64_t frame_read_deadline_ns = 30'000'000'000ull;
  /// Budget for writing one reply frame. kNoDeadlineNs disables.
  std::uint64_t write_deadline_ns = 30'000'000'000ull;
  /// Time source for deadlines; null uses the service's clock (and the
  /// system clock if the service also defaulted).
  service::ServiceClock* clock = nullptr;
};

/// Monotonic counters since Start (approximate under concurrency: each is
/// individually atomic).
struct TransportServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_rejected = 0;
  std::uint64_t connections_active = 0;
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
};

class TransportServer {
 public:
  /// The service must outlive the server.
  TransportServer(service::CompressionService& service,
                  TransportServerOptions options);
  ~TransportServer();

  TransportServer(const TransportServer&) = delete;
  TransportServer& operator=(const TransportServer&) = delete;

  /// Binds the socket and starts accepting. Returns false with `*error`
  /// set on failure; at most one successful Start per instance.
  bool Start(std::string* error);

  /// Graceful drain: stop accepting -> finish in-flight -> close.
  /// Idempotent and safe to call concurrently with serving.
  void Shutdown();

  TransportServerStats Stats() const;
  const TransportServerOptions& options() const { return options_; }

 private:
  struct Connection;

  void AcceptLoop();
  void ReaderLoop(Connection& conn);
  void WriterLoop(Connection& conn);
  /// Decodes and dispatches one frame; returns false when the connection
  /// should stop reading (protocol violation or fatal submit error).
  bool HandleFrame(Connection& conn, ByteSpan frame);
  void EnqueueReady(Connection& conn, Bytes frame);
  /// Reaps finished connections (joins their threads). Called from the
  /// accept loop and Shutdown.
  void ReapConnections(bool all) PRIMACY_EXCLUDES(mu_);

  service::CompressionService& service_;
  const TransportServerOptions options_;
  service::ServiceClock* clock_;  // never null after construction

  UniqueFd listen_fd_;
  WakePipe accept_wake_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};

  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_rejected_{0};
  std::atomic<std::uint64_t> connections_active_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> errors_{0};

  mutable primacy::Mutex mu_;
  std::vector<std::unique_ptr<Connection>> connections_ PRIMACY_GUARDED_BY(mu_);
  std::thread accept_thread_ PRIMACY_GUARDED_BY(mu_);
};

}  // namespace primacy::transport
