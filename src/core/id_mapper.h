// The ID mapping transform itself: rewriting each element's high-order byte
// pair as its frequency-ranked ID (paper Section II-C), and the byte-level
// linearization choice for the resulting N x 2 ID matrix (Section II-D).
#pragma once

#include "core/frequency.h"
#include "util/bytes.h"

namespace primacy {

/// How the transformed ID matrix is laid out before entropy coding.
enum class Linearization {
  kRow,     // element order: id0_hi id0_lo id1_hi id1_lo ...
  kColumn,  // transposed: all high ID bytes, then all low ID bytes
};

/// Maps row-linearized high-order bytes (N x 2) to ID bytes under `index`,
/// laid out per `linearization`. Big-endian ID bytes: the high byte of the
/// ID — overwhelmingly 0x00 after frequency ranking — comes first.
/// Throws InvalidArgumentError if a byte pair is absent from the index.
Bytes MapToIds(ByteSpan high_bytes, const IdIndex& index,
               Linearization linearization);

/// Exact inverse of MapToIds.
Bytes MapFromIds(ByteSpan id_bytes, const IdIndex& index,
                 Linearization linearization);

/// MapFromIds into `rows` (resized to id_bytes.size()), so a decoder can
/// reuse one buffer across chunks.
void MapFromIdsInto(ByteSpan id_bytes, const IdIndex& index,
                    Linearization linearization, Bytes& rows);

}  // namespace primacy
