// libFuzzer entry point for every PRIMACY decode surface. Build with
// -DPRIMACY_FUZZ=ON (clang only) and run:
//
//   ./build/fuzz/fuzz_decoder fuzz-corpus tests/golden/data \
//       tests/fuzz/wire_seeds -max_total_time=30
//
// The golden corpus doubles as the seed corpus: valid v1/v2/v3 (one-shot
// and streamed), stored, and checkpoint bytes give the fuzzer real
// structure to mutate, and tests/fuzz/wire_seeds holds the four pinned
// protocol-v1 frames (request, ping, response, error) from
// tests/transport/wire_test.cc for the wire-frame decoder. The contract
// mirrors the CTest corruption harness: typed decode errors
// (CorruptStreamError/InvalidArgumentError; the wire's WireFormatError is a
// CorruptStreamError) and allocation failures are expected outcomes; any
// other escape — crash, hang, sanitizer report, uncaught exception type —
// is a finding.
#include <cstddef>
#include <cstdint>
#include <new>
#include <stdexcept>

#include "core/primacy_codec.h"
#include "core/streaming.h"
#include "store/checkpoint_store.h"
#include "transport/wire.h"
#include "util/bytes.h"
#include "util/error.h"

namespace {

using namespace primacy;

template <typename Fn>
void Expecting(Fn&& fn) {
  try {
    fn();
  } catch (const CorruptStreamError&) {
  } catch (const InvalidArgumentError&) {
  } catch (const std::bad_alloc&) {
  } catch (const std::length_error&) {
  }
  // Anything else propagates and libFuzzer records the input as a crash.
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const ByteSpan stream(reinterpret_cast<const std::byte*>(data), size);
  const PrimacyDecompressor decompressor;

  Expecting([&] { decompressor.DecompressBytes(stream); });
  Expecting([&] {
    // Range geometry derived from the input so the fuzzer can steer it.
    const std::uint64_t first = size > 0 ? data[0] * 7u : 0;
    const std::uint64_t count = size > 1 ? data[1] * 3u : 1;
    decompressor.DecompressBytesRange(stream, first, count);
  });
  Expecting([&] {
    PrimacyStreamReader reader(stream);
    Bytes sink;
    while (reader.NextChunk(sink)) {
      sink.clear();  // bound memory: structure, not content, is under test
    }
  });
  Expecting([&] { transport::DecodeFrame(stream); });
  Expecting([&] {
    const CheckpointReader reader(stream);
    reader.ReadAllRaw();
    reader.VerifyAll();
  });
  // Never throws by contract — outside Expecting on purpose.
  VerifyStream(stream);
  return 0;
}
