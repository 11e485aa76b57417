// ISOBAR partitioned compression: applies the analyzer's plan to an element
// stream — compressible byte-columns are column-linearized and fed to the
// solver codec, incompressible columns are stored verbatim. This is the
// "ISOBAR-COMPRESS" step of the paper's Algorithm 1, applied in PRIMACY to
// the six low-order mantissa bytes of each double.
#pragma once

#include <array>
#include <memory>

#include "compress/codec.h"
#include "isobar/analyzer.h"

namespace primacy {

struct IsobarCompressed {
  Bytes stream;
  IsobarPlan plan;                 // the plan that was applied
  std::size_t compressed_bytes = 0;   // solver output size
  std::size_t raw_bytes = 0;           // bytes stored verbatim
};

/// Compresses a row-linearized `width`-byte element matrix under `plan`
/// using `solver`. The returned stream is self-describing.
IsobarCompressed IsobarCompress(ByteSpan rows, std::size_t width,
                                const IsobarPlan& plan, const Codec& solver);

/// Analyze-then-compress convenience.
IsobarCompressed IsobarCompress(ByteSpan rows, std::size_t width,
                                const Codec& solver,
                                const IsobarOptions& options = {});

/// Inverse of IsobarCompress.
Bytes IsobarDecompress(ByteSpan stream, const Codec& solver);

/// A decoded ISOBAR stream, column by column: byte column c of the n x
/// width matrix is the n bytes at column[c], in the stream itself (raw
/// columns) or in the caller's scratch (solved ones).
struct IsobarColumns {
  std::size_t n = 0;
  std::size_t width = 0;
  std::array<const std::byte*, kMaxIsobarWidth> column{};
};

/// Decodes a stream of `n` elements of `width` bytes (any other shape is
/// CorruptStreamError) without assembling rows, so a caller can merge the
/// columns straight into its own layout. The solved columns decode into
/// `scratch`, which a caller reuses across calls; the view is valid while
/// `stream` and `scratch` are unchanged.
IsobarColumns IsobarDecodeColumns(ByteSpan stream, const Codec& solver,
                                  std::size_t n, std::size_t width,
                                  Bytes& scratch);

}  // namespace primacy
