// TransportServer integration tests over real Unix-domain sockets: client
// byte-identity with direct library calls, pipelined multi-in-flight
// requests, connection limits, protocol-violation handling over a live
// connection, and graceful drain delivering in-flight replies.
//
// Raw-frame tests speak to the server through the transport/socket_io.h
// helpers (never raw syscalls — the transport-containment rule's point is
// that nobody outside src/transport needs them, this suite included).
#include "transport/server.h"

#include <unistd.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bitstream/byte_io.h"
#include "core/primacy_codec.h"
#include "service/service.h"
#include "transport/client.h"
#include "transport/socket_io.h"
#include "transport/wire.h"
#include "util/bytes.h"
#include "util/checksum.h"

namespace primacy::transport {
namespace {

std::string TestSocketPath(const char* tag) {
  static int counter = 0;
  return "/tmp/primacy_tsrv_" + std::to_string(::getpid()) + "_" + tag + "_" +
         std::to_string(counter++) + ".sock";
}

service::ServiceOptions DefaultServiceOptions() {
  service::ServiceOptions options;
  // Flush every request immediately: these tests exercise the transport,
  // not the batching triggers.
  options.batch.flush_timeout_ns = 0;
  return options;
}

service::TenantConfig UnlimitedTenant(const std::string& name = "default") {
  service::TenantConfig config;
  config.name = name;
  return config;
}

/// Deterministic pseudo-random payload (values pattern the codec sees as
/// double-ish data, plus raw byte noise).
Bytes TestPayload(std::size_t size, std::uint64_t seed) {
  Bytes payload(size);
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ull + 1;
  for (std::size_t i = 0; i < size; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    payload[i] = static_cast<std::byte>(state >> 56);
  }
  return payload;
}

class ServerFixture {
 public:
  explicit ServerFixture(TransportServerOptions options = {},
                         service::ServiceOptions service_options =
                             DefaultServiceOptions())
      : service_(std::move(service_options)) {
    service_.AddTenant(UnlimitedTenant());
    options.socket_path = TestSocketPath("fx");
    server_ = std::make_unique<TransportServer>(service_, options);
    std::string error;
    if (!server_->Start(&error)) {
      ADD_FAILURE() << "server start failed: " << error;
    }
  }

  ~ServerFixture() { server_->Shutdown(); }

  const std::string& socket_path() const {
    return server_->options().socket_path;
  }
  service::CompressionService& service() { return service_; }
  TransportServer& server() { return *server_; }

  TransportClient MakeClient(TransportClientOptions options = {}) {
    options.socket_path = socket_path();
    return TransportClient(std::move(options));
  }

 private:
  service::CompressionService service_;
  std::unique_ptr<TransportServer> server_;
};

/// Raw framed connection for protocol-level tests.
class RawConnection {
 public:
  explicit RawConnection(const std::string& path)
      : clock_(service::SystemServiceClock::Instance()) {
    std::string error;
    const int fd = ConnectUnixSocket(
        path, IoDeadline::After(clock_, 5'000'000'000ull), &error);
    EXPECT_GE(fd, 0) << error;
    fd_.Reset(fd);
  }

  IoStatus Send(const Bytes& frame) {
    return SendFrame(fd_.get(), ByteSpan(frame),
                     IoDeadline::After(clock_, 5'000'000'000ull));
  }

  IoStatus Recv(Bytes* frame) {
    return RecvFrame(fd_.get(), frame, kMaxFrameBytes, clock_,
                     30'000'000'000ull, 30'000'000'000ull);
  }

  int fd() const { return fd_.get(); }

 private:
  service::SystemServiceClock& clock_;
  UniqueFd fd_;
};

Bytes PingFrame(std::uint64_t id) {
  RequestFrame req;
  req.request_id = id;
  req.op = Op::kPing;
  req.payload = TestPayload(16, id);
  return EncodeRequestFrame(req);
}

// ---------------------------------------------------------------------------

TEST(TransportServer, PingEchoesPayload) {
  ServerFixture fx;
  TransportClient client = fx.MakeClient();
  const Bytes payload = TestPayload(64, 1);
  const TransportResult result = client.Ping(ByteSpan(payload));
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.payload, payload);
  EXPECT_EQ(result.attempts, 1u);
}

TEST(TransportServer, CompressMatchesDirectLibraryByteForByte) {
  ServerFixture fx;
  TransportClient client = fx.MakeClient();
  const Bytes payload = TestPayload(8192, 2);

  const TransportResult result = client.Compress("default", ByteSpan(payload));
  ASSERT_TRUE(result.ok()) << result.error;

  // The service pins codec parallelism to 1; mirror that for the direct
  // reference stream.
  PrimacyOptions codec = fx.service().options().codec;
  const Bytes direct = PrimacyCompressor(codec).CompressBytes(
      ByteSpan(payload));
  EXPECT_EQ(result.payload, direct)
      << "stream through the daemon differs from a direct CompressBytes";

  const TransportResult restored =
      client.Decompress("default", ByteSpan(result.payload));
  ASSERT_TRUE(restored.ok()) << restored.error;
  EXPECT_EQ(restored.payload, payload);
}

TEST(TransportServer, DecompressRangeMatchesDirectRange) {
  ServerFixture fx;
  TransportClient client = fx.MakeClient();
  const Bytes payload = TestPayload(4096, 3);

  const TransportResult stream = client.Compress("default", ByteSpan(payload));
  ASSERT_TRUE(stream.ok()) << stream.error;

  PrimacyOptions codec = fx.service().options().codec;
  const Bytes direct = PrimacyDecompressor(codec).DecompressBytesRange(
      ByteSpan(stream.payload), 100, 57);
  const TransportResult range =
      client.DecompressRange("default", ByteSpan(stream.payload), 100, 57);
  ASSERT_TRUE(range.ok()) << range.error;
  EXPECT_EQ(range.payload, direct);
}

TEST(TransportServer, StatsReturnsServiceStatusJson) {
  ServerFixture fx;
  TransportClient client = fx.MakeClient();
  ASSERT_TRUE(client.Ping().ok());
  const TransportResult stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.error;
  const std::string json = StringFromBytes(ByteSpan(stats.payload));
  EXPECT_NE(json.find("\"tenants\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"default\""), std::string::npos) << json;
}

TEST(TransportServer, UnknownTenantGetsErrorFrameAndConnectionSurvives) {
  ServerFixture fx;
  TransportClient client = fx.MakeClient();
  const TransportResult bad =
      client.Compress("no_such_tenant", ByteSpan(TestPayload(32, 4)));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status, WireStatus::kError);
  EXPECT_NE(bad.error.find("no_such_tenant"), std::string::npos) << bad.error;
  // The error was request-scoped: the same client (and pooled connection)
  // keeps working.
  EXPECT_TRUE(client.Ping().ok());
}

/// Property test: random payloads of many sizes, routed through the daemon,
/// must be byte-identical to the direct library on both directions.
TEST(TransportServerProperty, ClientThroughDaemonEqualsDirectService) {
  ServerFixture fx;
  TransportClient client = fx.MakeClient();
  PrimacyOptions codec = fx.service().options().codec;
  PrimacyCompressor compressor(codec);
  PrimacyDecompressor decompressor(codec);

  const std::size_t sizes[] = {0, 1, 7, 64, 333, 1024, 4096, 20000};
  std::uint64_t seed = 1;
  for (const std::size_t size : sizes) {
    const Bytes payload = TestPayload(size, ++seed);
    const TransportResult compressed =
        client.Compress("default", ByteSpan(payload));
    ASSERT_TRUE(compressed.ok()) << size << ": " << compressed.error;
    EXPECT_EQ(compressed.payload, compressor.CompressBytes(ByteSpan(payload)))
        << "compress mismatch at size " << size;

    const TransportResult restored =
        client.Decompress("default", ByteSpan(compressed.payload));
    ASSERT_TRUE(restored.ok()) << size << ": " << restored.error;
    EXPECT_EQ(restored.payload,
              decompressor.DecompressBytes(ByteSpan(compressed.payload)))
        << "decompress mismatch at size " << size;
    EXPECT_EQ(restored.payload, payload);
  }
}

// ---------------------------------------------------------------------------
// Pipelining: many in-flight ids on one connection.

TEST(TransportServerPipeline, ManyInFlightRequestsOnOneConnection) {
  ServerFixture fx;
  RawConnection conn(fx.socket_path());

  constexpr std::uint64_t kInFlight = 16;
  for (std::uint64_t id = 1; id <= kInFlight; ++id) {
    ASSERT_EQ(conn.Send(PingFrame(id)), IoStatus::kOk) << "send " << id;
  }
  // Replies come back in arrival order (an implementation detail the
  // protocol does not promise — ids are authoritative — but one this test
  // may rely on for determinism).
  for (std::uint64_t id = 1; id <= kInFlight; ++id) {
    Bytes frame;
    ASSERT_EQ(conn.Recv(&frame), IoStatus::kOk) << "recv " << id;
    const DecodedFrame decoded = DecodeFrame(ByteSpan(frame));
    ASSERT_EQ(decoded.kind, FrameKind::kResponse);
    EXPECT_EQ(decoded.response.request_id, id);
    EXPECT_EQ(decoded.response.payload, TestPayload(16, id));
  }
}

TEST(TransportServerPipeline, InterleavedOpsKeepTheirIds) {
  ServerFixture fx;
  RawConnection conn(fx.socket_path());
  const Bytes payload = TestPayload(2048, 11);

  RequestFrame compress;
  compress.request_id = 101;
  compress.op = Op::kCompress;
  compress.tenant = "default";
  compress.payload = payload;
  ASSERT_EQ(conn.Send(EncodeRequestFrame(compress)), IoStatus::kOk);
  ASSERT_EQ(conn.Send(PingFrame(102)), IoStatus::kOk);

  Bytes first, second;
  ASSERT_EQ(conn.Recv(&first), IoStatus::kOk);
  ASSERT_EQ(conn.Recv(&second), IoStatus::kOk);
  const DecodedFrame a = DecodeFrame(ByteSpan(first));
  const DecodedFrame b = DecodeFrame(ByteSpan(second));
  ASSERT_EQ(a.kind, FrameKind::kResponse);
  ASSERT_EQ(b.kind, FrameKind::kResponse);
  EXPECT_EQ(a.response.request_id, 101u);
  EXPECT_EQ(a.response.op, Op::kCompress);
  EXPECT_EQ(b.response.request_id, 102u);
  EXPECT_EQ(b.response.op, Op::kPing);
}

// ---------------------------------------------------------------------------
// Protocol violations over a live socket.

TEST(TransportServerViolation, VersionSkewAnsweredWithAddressedErrorFrame) {
  ServerFixture fx;
  RawConnection conn(fx.socket_path());

  Bytes skewed;
  PutU32(skewed, kWireMagic);
  PutU16(skewed, kProtocolVersion + 1);
  PutU8(skewed, 1);  // kRequest
  PutU64(skewed, 0xFEEDull);
  PutU8(skewed, 42);  // future-version body
  PutU64(skewed, Xxh64(ByteSpan(skewed)));
  ASSERT_EQ(conn.Send(skewed), IoStatus::kOk);

  Bytes reply;
  ASSERT_EQ(conn.Recv(&reply), IoStatus::kOk);
  const DecodedFrame decoded = DecodeFrame(ByteSpan(reply));
  ASSERT_EQ(decoded.kind, FrameKind::kError);
  EXPECT_EQ(decoded.error.status, WireStatus::kVersionSkew);
  EXPECT_EQ(decoded.error.request_id, 0xFEEDull)
      << "the frozen prefix exists so this id can be echoed";
  // A version-skewed peer cannot be spoken to further: expect close.
  Bytes next;
  EXPECT_EQ(conn.Recv(&next), IoStatus::kEof);
}

TEST(TransportServerViolation, CorruptFrameAnsweredWithBadFrameThenClose) {
  ServerFixture fx;
  RawConnection conn(fx.socket_path());

  Bytes garbage = TestPayload(64, 21);
  ASSERT_EQ(conn.Send(garbage), IoStatus::kOk);

  Bytes reply;
  ASSERT_EQ(conn.Recv(&reply), IoStatus::kOk);
  const DecodedFrame decoded = DecodeFrame(ByteSpan(reply));
  ASSERT_EQ(decoded.kind, FrameKind::kError);
  EXPECT_EQ(decoded.error.status, WireStatus::kBadFrame);
  Bytes next;
  EXPECT_EQ(conn.Recv(&next), IoStatus::kEof);
}

// ---------------------------------------------------------------------------
// Limits and drain.

TEST(TransportServerLimit, ExcessConnectionRefusedWithRetryAfter) {
  TransportServerOptions options;
  options.max_connections = 1;
  ServerFixture fx(options);

  RawConnection first(fx.socket_path());
  ASSERT_EQ(first.Send(PingFrame(1)), IoStatus::kOk);
  Bytes pong;
  ASSERT_EQ(first.Recv(&pong), IoStatus::kOk);

  RawConnection second(fx.socket_path());
  Bytes refusal;
  ASSERT_EQ(second.Recv(&refusal), IoStatus::kOk);
  const DecodedFrame decoded = DecodeFrame(ByteSpan(refusal));
  ASSERT_EQ(decoded.kind, FrameKind::kError);
  EXPECT_EQ(decoded.error.status, WireStatus::kTooManyConnections);
  EXPECT_EQ(decoded.error.retry_after_ns, 50'000'000ull);  // 50 ms
  Bytes next;
  EXPECT_EQ(second.Recv(&next), IoStatus::kEof);

  // The established connection is unaffected.
  ASSERT_EQ(first.Send(PingFrame(2)), IoStatus::kOk);
  ASSERT_EQ(first.Recv(&pong), IoStatus::kOk);
  EXPECT_EQ(fx.server().Stats().connections_rejected, 1u);
}

TEST(TransportServerDrain, ShutdownDeliversInFlightReplies) {
  ServerFixture fx;
  RawConnection conn(fx.socket_path());

  RequestFrame compress;
  compress.request_id = 7;
  compress.op = Op::kCompress;
  compress.tenant = "default";
  compress.payload = TestPayload(16384, 31);
  ASSERT_EQ(conn.Send(EncodeRequestFrame(compress)), IoStatus::kOk);

  // Wait until the request has been decoded and submitted (the requests
  // counter increments at dispatch), so Shutdown finds it in flight.
  while (fx.server().Stats().requests < 1) std::this_thread::yield();
  fx.server().Shutdown();

  // The drain contract: the queued reply was flushed before the close.
  Bytes reply;
  ASSERT_EQ(conn.Recv(&reply), IoStatus::kOk);
  const DecodedFrame decoded = DecodeFrame(ByteSpan(reply));
  ASSERT_EQ(decoded.kind, FrameKind::kResponse);
  EXPECT_EQ(decoded.response.request_id, 7u);
  PrimacyOptions codec = fx.service().options().codec;
  EXPECT_EQ(decoded.response.payload,
            PrimacyCompressor(codec).CompressBytes(
                ByteSpan(compress.payload)));
  Bytes next;
  EXPECT_EQ(conn.Recv(&next), IoStatus::kEof);
}

TEST(TransportServerDrain, ShutdownIsIdempotentAndRebindable) {
  service::CompressionService service(DefaultServiceOptions());
  service.AddTenant(UnlimitedTenant());
  TransportServerOptions options;
  options.socket_path = TestSocketPath("rebind");
  {
    TransportServer server(service, options);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;
    server.Shutdown();
    server.Shutdown();  // idempotent
  }
  // The socket path was unlinked, so a fresh server can bind it.
  TransportServer second(service, options);
  std::string error;
  ASSERT_TRUE(second.Start(&error)) << error;
  TransportClientOptions client_options;
  client_options.socket_path = options.socket_path;
  TransportClient client(std::move(client_options));
  EXPECT_TRUE(client.Ping().ok());
  second.Shutdown();
}

TEST(TransportServer, StatsCountersTrackTraffic) {
  ServerFixture fx;
  TransportClient client = fx.MakeClient();
  ASSERT_TRUE(client.Ping().ok());
  ASSERT_TRUE(client.Compress("default", ByteSpan(TestPayload(256, 5))).ok());
  const TransportServerStats stats = fx.server().Stats();
  EXPECT_GE(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.errors, 0u);
}

}  // namespace
}  // namespace primacy::transport
