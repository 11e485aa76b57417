// LSB-first bit-granular serialization used by the Huffman-coded codecs.
//
// Bit order contract: the first bit written is the least significant bit of
// the first output byte (deflate convention). WriteBits emits the low `count`
// bits of `value` LSB-first; Huffman codes are therefore stored bit-reversed
// by the encoder so the decoder can peek a machine word and index a table.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/bytes.h"
#include "util/error.h"

namespace primacy {

class BitWriter {
 public:
  BitWriter() = default;

  /// Appends the low `count` (<= 57) bits of `value`, LSB first.
  void WriteBits(std::uint64_t value, unsigned count) {
    if (count > 57) throw InvalidArgumentError("BitWriter: count > 57");
    if (pending_bits_ + count >= 64) FlushFullBytes();
    // Here count <= 57 and pending_bits_ < 64 (at most 7 after a flush), so
    // both shifts stay below 64.
    accumulator_ |= (value & ((std::uint64_t{1} << count) - 1))
                    << pending_bits_;
    pending_bits_ += count;
    bit_count_ += count;
  }

  /// Pads with zero bits to the next byte boundary.
  void AlignToByte();

  /// Appends raw bytes; the writer must be byte-aligned.
  void WriteBytes(ByteSpan data);

  /// Number of bits written so far.
  std::uint64_t BitCount() const { return bit_count_; }

  /// Flushes any partial byte (zero-padded) and returns the buffer.
  Bytes Finish();

 private:
  /// Moves the whole bytes of the accumulator to the buffer with one
  /// 8-byte store, leaving fewer than 8 pending bits.
  void FlushFullBytes();

  Bytes buffer_;    // bytes written: [0, size_); the rest is store room
  std::size_t size_ = 0;
  std::uint64_t accumulator_ = 0;  // pending bits, LSB-first
  unsigned pending_bits_ = 0;      // at most 64
  std::uint64_t bit_count_ = 0;
};

class BitReader {
 public:
  explicit BitReader(ByteSpan data) : data_(data) {}

  /// Reads `count` (<= 57) bits, LSB first. Throws CorruptStreamError when
  /// the stream is exhausted.
  std::uint64_t ReadBits(unsigned count);

  /// Returns up to 57 upcoming bits without consuming them; missing bits past
  /// the end of the stream read as zero (standard deflate-style peeking).
  std::uint64_t PeekBits(unsigned count);

  /// Consumes `count` (<= 57) bits previously observed via PeekBits.
  void SkipBits(unsigned count);

  /// Discards bits up to the next byte boundary.
  void AlignToByte();

  /// Reads raw bytes; the reader must be byte-aligned.
  Bytes ReadBytes(std::size_t count);

  /// Total bits consumed.
  std::uint64_t BitsConsumed() const { return bits_consumed_; }

  /// True when every payload bit has been consumed (trailing padding bits in
  /// the final partial byte are allowed).
  bool AtEnd() const;

 private:
  void Refill();

  ByteSpan data_;
  std::size_t next_byte_ = 0;      // next unread byte in data_
  std::uint64_t accumulator_ = 0;  // buffered bits, LSB-first
  unsigned available_bits_ = 0;
  std::uint64_t bits_consumed_ = 0;
};

}  // namespace primacy
