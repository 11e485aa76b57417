// Deterministic corruption harness: a structured mutation engine (bit
// flips, byte stomps, swaps, truncations, insertions, deletions, and
// length-field / footer tampering, all seeded from util::Rng) drives every
// decode surface with 10k mutated streams. The contract under test: a
// mutated stream either decodes cleanly or fails with a *typed* error
// (CorruptStreamError / InvalidArgumentError, or an allocation failure from
// a hostile size field) — never a crash, hang, or undefined behavior. And
// for v3 (checksummed) streams, "decodes cleanly" additionally implies the
// output is bit-identical to the original payload.
#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bitstream/byte_io.h"
#include "core/primacy_codec.h"
#include "core/stream_format.h"
#include "core/streaming.h"
#include "datasets/datasets.h"
#include "store/checkpoint_store.h"
#include "support/legacy_streams.h"
#include "util/checksum.h"
#include "util/error.h"
#include "util/rng.h"

namespace primacy {
namespace {

// ---------------------------------------------------------------------------
// Mutation engine

enum class Mutation {
  kBitFlip,
  kByteStomp,
  kByteSwap,
  kTruncate,
  kAppendGarbage,
  kInsertWindow,
  kDeleteWindow,
  kZeroWindow,
  kLengthFieldTamper,  // overwrite a run with 0xFF: varints balloon
  kFooterTamper,       // mutate within the trailing 32 bytes
  kCount,
};

Bytes Mutate(const Bytes& base, Rng& rng) {
  Bytes out = base;
  const auto kind = static_cast<Mutation>(
      rng.NextBelow(static_cast<std::uint64_t>(Mutation::kCount)));
  const auto pos = [&](std::size_t size) {
    return static_cast<std::size_t>(rng.NextBelow(size));
  };
  switch (kind) {
    case Mutation::kBitFlip:
      out[pos(out.size())] ^=
          static_cast<std::byte>(1u << rng.NextBelow(8));
      break;
    case Mutation::kByteStomp:
      out[pos(out.size())] = static_cast<std::byte>(rng.NextU64() & 0xff);
      break;
    case Mutation::kByteSwap: {
      const std::size_t a = pos(out.size());
      const std::size_t b = pos(out.size());
      std::swap(out[a], out[b]);
      break;
    }
    case Mutation::kTruncate:
      out.resize(pos(out.size()));
      break;
    case Mutation::kAppendGarbage: {
      const std::size_t n = 1 + pos(64);
      for (std::size_t i = 0; i < n; ++i) {
        out.push_back(static_cast<std::byte>(rng.NextU64() & 0xff));
      }
      break;
    }
    case Mutation::kInsertWindow: {
      const std::size_t n = 1 + pos(16);
      Bytes window(n);
      for (auto& b : window) {
        b = static_cast<std::byte>(rng.NextU64() & 0xff);
      }
      const std::size_t at = pos(out.size() + 1);
      out.insert(out.begin() + static_cast<std::ptrdiff_t>(at),
                 window.begin(), window.end());
      break;
    }
    case Mutation::kDeleteWindow: {
      const std::size_t at = pos(out.size());
      const std::size_t n = 1 + pos(std::min<std::size_t>(16, out.size() - at));
      out.erase(out.begin() + static_cast<std::ptrdiff_t>(at),
                out.begin() + static_cast<std::ptrdiff_t>(at + n));
      break;
    }
    case Mutation::kZeroWindow: {
      const std::size_t at = pos(out.size());
      const std::size_t n = 1 + pos(std::min<std::size_t>(32, out.size() - at));
      std::memset(out.data() + at, 0, n);
      break;
    }
    case Mutation::kLengthFieldTamper: {
      // 0xFF runs read back as maximal varint groups — the classic
      // "length field claims more than the buffer holds" shape.
      const std::size_t at = pos(out.size());
      const std::size_t n = 1 + pos(std::min<std::size_t>(9, out.size() - at));
      std::memset(out.data() + at, 0xff, n);
      break;
    }
    case Mutation::kFooterTamper: {
      const std::size_t window = std::min<std::size_t>(32, out.size());
      const std::size_t at = out.size() - window + pos(window);
      out[at] ^= static_cast<std::byte>(1 + (rng.NextU64() & 0xfe));
      break;
    }
    case Mutation::kCount:
      break;  // unreachable
  }
  return out;
}

// Runs `fn` and classifies the outcome. Anything but a clean return or a
// typed decode error (or an allocation failure provoked by a hostile size
// field) fails the test.
template <typename Fn>
bool DecodesCleanly(Fn&& fn, const std::string& context) {
  try {
    fn();
    return true;
  } catch (const CorruptStreamError&) {
  } catch (const InvalidArgumentError&) {
  } catch (const std::bad_alloc&) {
  } catch (const std::length_error&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << context << ": unexpected exception type: " << e.what();
  }
  return false;
}

struct Corpus {
  std::string name;
  Bytes stream;
  Bytes payload;  // the exact bytes a clean decode must reproduce
  bool checksummed = false;
};

std::vector<double> SpecialValues(std::size_t n, Rng& rng) {
  std::vector<double> values = GenerateDatasetByName("num_plasma", n);
  // Sprinkle in the adversarial doubles a checkpoint can legally hold.
  const double specials[] = {0.0, -0.0, 1e308, -1e308, 5e-324,
                             std::bit_cast<double>(0x7ff0000000000000ull),
                             std::bit_cast<double>(0xfff0000000000000ull),
                             std::bit_cast<double>(0x7ff8000000000001ull)};
  for (std::size_t i = 0; i < n / 16; ++i) {
    values[rng.NextBelow(n)] = specials[rng.NextBelow(8)];
  }
  return values;
}

// The range path over a whole one-shot stream: every element through
// DecompressBytesRange, then the bytes beyond the last whole element. A
// range read slices a stored payload without hashing the whole stream, so
// the stored tail is taken through the verified payload: over the full
// range, all three decode paths then check the same bytes.
Bytes DecodeAsFullRange(const PrimacyDecompressor& decompressor,
                        const Bytes& stream) {
  const internal::OpenedStream opened =
      internal::OpenStream(stream, /*verify_checksums=*/true);
  Bytes out = decompressor.DecompressBytesRange(stream, 0, opened.elements());
  AppendBytes(out, opened.header.stored
                       ? internal::VerifiedStoredPayload(opened).subspan(
                             out.size())
                       : opened.tail);
  return out;
}

class CorruptionFuzzTest : public ::testing::Test {
 protected:
  static PrimacyOptions Options() {
    PrimacyOptions options;
    options.chunk_bytes = 4096;  // several chunks from a small payload
    return options;
  }

  static Bytes PayloadOf(std::span<const double> values) {
    return ToBytes(AsBytes(values));
  }
};

// Streams of every version, streamed and one-shot, plus the stored
// fallback: 10200 seeded mutations through DecompressBytes (the reader for
// streamed v1) and, sampled, DecompressRange and VerifyStream. For v2, v3,
// streamed v3 and stored streams the sequential reader and a range over
// every element must agree with the full decode on each mutation: the same
// bytes, or a typed error from all three.
TEST_F(CorruptionFuzzTest, MutatedStreamsFailCleanlyAcrossVersions) {
  Rng seed_rng(0x5eed);
  const auto values = SpecialValues(1536, seed_rng);

  std::vector<Corpus> corpora;
  corpora.push_back({"v1", legacy::MakeV1Stream(AsBytes(values), Options()),
                     PayloadOf(values), false});
  corpora.push_back({"v2", legacy::MakeV2Stream(AsBytes(values), Options()),
                     PayloadOf(values), false});
  corpora.push_back({"v3", PrimacyCompressor(Options()).Compress(values),
                     PayloadOf(values), true});
  {
    // Incompressible input: the stored fallback (v3 with a trailing
    // whole-stream checksum).
    Rng rng(3);
    std::vector<double> noise(1024);
    for (auto& v : noise) {
      v = std::bit_cast<double>(rng.NextU64() & 0x7fefffffffffffffull);
    }
    corpora.push_back({"stored", PrimacyCompressor().Compress(noise),
                       PayloadOf(noise), true});
  }
  // Streamed v1 (the legacy unknown-length trailer shape) and streamed v3
  // (the writer's output: sentinel header total, checksummed directory).
  corpora.push_back(
      {"streamed_v1", legacy::MakeStreamedV1Stream(AsBytes(values), Options()),
       PayloadOf(values), false});
  {
    Bytes collected;
    PrimacyStreamWriter writer(
        [&](ByteSpan data) { AppendBytes(collected, data); }, Options());
    writer.Append(std::span(values));
    writer.Finish();
    corpora.push_back({"streamed_v3", std::move(collected),
                       PayloadOf(values), true});
  }

  const PrimacyDecompressor decompressor(Options());
  constexpr std::size_t kMutationsPerCorpus = 1700;  // x6 corpora = 10200
  for (const Corpus& corpus : corpora) {
    Rng rng(Xxh64(BytesFromString(corpus.name), 2026));
    for (std::size_t i = 0; i < kMutationsPerCorpus; ++i) {
      const Bytes mutated = Mutate(corpus.stream, rng);
      const std::string context =
          corpus.name + " mutation " + std::to_string(i);
      Bytes decoded;
      const bool clean = DecodesCleanly(
          [&] {
            if (corpus.name == "streamed_v1") {
              PrimacyStreamReader reader(mutated);
              while (reader.NextChunk(decoded)) {
              }
            } else {
              decoded = decompressor.DecompressBytes(mutated);
            }
          },
          context);
      if (clean && corpus.checksummed) {
        // The acceptance bar for v3: damage is either detected or the
        // mutation was semantically a no-op — silent wrong output is not an
        // outcome. (Non-payload bytes like the version-independent footer
        // fields can absorb some mutations; the payload must survive.)
        EXPECT_EQ(decoded, corpus.payload) << context;
      }
      if (corpus.name != "v1" && corpus.name != "streamed_v1") {
        Bytes read;
        const bool reader_clean = DecodesCleanly(
            [&] {
              PrimacyStreamReader reader(mutated);
              while (reader.NextChunk(read)) {
              }
            },
            context + " (reader)");
        Bytes ranged;
        const bool range_clean = DecodesCleanly(
            [&] { ranged = DecodeAsFullRange(decompressor, mutated); },
            context + " (full range)");
        EXPECT_EQ(reader_clean, clean) << context << " (reader)";
        EXPECT_EQ(range_clean, clean) << context << " (full range)";
        if (clean && reader_clean) EXPECT_EQ(read, decoded) << context;
        if (clean && range_clean) EXPECT_EQ(ranged, decoded) << context;
      }
      // Sampled extra surfaces: range reads and the never-throwing verifier.
      if (i % 5 == 0) {
        DecodesCleanly(
            [&] {
              decompressor.DecompressBytesRange(
                  mutated, rng.NextBelow(2048), rng.NextBelow(512));
            },
            context + " (range)");
        const StreamVerifyResult verdict = VerifyStream(mutated);
        if (!verdict.ok) {
          EXPECT_FALSE(verdict.error.empty()) << context;
        }
      }
    }
  }
}

// Checkpoint containers: 1500 seeded mutations of a CheckpointWriter file.
// Construction plus ReadAllRaw either returns the original variables or
// throws a typed error; VerifyAll never throws, and reports every variable
// healthy whenever ReadAllRaw succeeded. (The footer carries no checksum, so
// a mutated variable name can go unnoticed; the payload bytes cannot.)
TEST_F(CorruptionFuzzTest, MutatedCheckpointsFailCleanly) {
  Rng seed_rng(0xc0ffee);
  CheckpointWriter writer(Options());
  const std::vector<double> temperature = SpecialValues(800, seed_rng);
  const std::vector<double> pressure = SpecialValues(500, seed_rng);
  writer.Add("temperature", std::span(temperature));
  writer.Add("pressure", std::span(pressure));
  const Bytes checkpoint = writer.Finish();
  const std::vector<Bytes> original = {PayloadOf(temperature),
                                       PayloadOf(pressure)};

  Rng rng(0xdecaf);
  for (std::size_t i = 0; i < 1500; ++i) {
    const Bytes mutated = Mutate(checkpoint, rng);
    const std::string context = "checkpoint mutation " + std::to_string(i);
    std::optional<CheckpointReader> reader;
    std::vector<Bytes> restored;
    const bool clean = DecodesCleanly(
        [&] {
          reader.emplace(mutated, Options());
          restored = reader->ReadAllRaw();
        },
        context);
    if (clean) {
      EXPECT_EQ(restored, original) << context;
    }
    if (!reader) continue;
    for (const auto& result : reader->VerifyAll()) {
      if (result.stream.ok) continue;
      EXPECT_FALSE(result.stream.error.empty()) << context;
      EXPECT_FALSE(clean) << context << ": " << result.name << " failed "
                          << "verification after a clean restore";
    }
  }
}

// The engine itself is deterministic: the same seed must produce the same
// mutation sequence, or "10k seeded mutations" is not a reproducible claim.
TEST_F(CorruptionFuzzTest, MutationEngineIsDeterministic) {
  const auto values = GenerateDatasetByName("obs_temp", 512);
  const Bytes stream = PrimacyCompressor(Options()).Compress(values);
  Rng a(1234), b(1234);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(Mutate(stream, a), Mutate(stream, b)) << "iteration " << i;
  }
}

}  // namespace
}  // namespace primacy
