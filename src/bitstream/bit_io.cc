#include "bitstream/bit_io.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/error.h"

namespace primacy {

void BitWriter::FlushFullBytes() {
  const unsigned bytes = pending_bits_ / 8;
  if (buffer_.size() < size_ + 8) {
    buffer_.resize(std::max<std::size_t>(64, 2 * (size_ + 8)));
  }
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(buffer_.data() + size_, &accumulator_, 8);
  } else {
    for (unsigned i = 0; i < 8; ++i) {
      buffer_[size_ + i] = static_cast<std::byte>(accumulator_ >> (8 * i));
    }
  }
  size_ += bytes;
  // A full accumulator (64 bits) leaves nothing; a shift by 64 would be
  // undefined.
  accumulator_ = bytes == 8 ? 0 : accumulator_ >> (8 * bytes);
  pending_bits_ -= 8 * bytes;
}

void BitWriter::AlignToByte() {
  const unsigned remainder = pending_bits_ % 8;
  if (remainder != 0) WriteBits(0, 8 - remainder);
}

void BitWriter::WriteBytes(ByteSpan data) {
  if (pending_bits_ % 8 != 0) {
    throw InvalidArgumentError("BitWriter::WriteBytes: not byte-aligned");
  }
  FlushFullBytes();
  buffer_.resize(size_);
  AppendBytes(buffer_, data);
  size_ = buffer_.size();
  bit_count_ += 8 * static_cast<std::uint64_t>(data.size());
}

Bytes BitWriter::Finish() {
  AlignToByte();
  FlushFullBytes();
  buffer_.resize(size_);
  size_ = 0;
  return std::move(buffer_);
}

void BitReader::Refill() {
  while (available_bits_ <= 56 && next_byte_ < data_.size()) {
    accumulator_ |= static_cast<std::uint64_t>(data_[next_byte_++])
                    << available_bits_;
    available_bits_ += 8;
  }
}

std::uint64_t BitReader::ReadBits(unsigned count) {
  if (count > 57) throw InvalidArgumentError("BitReader: count > 57");
  Refill();
  if (available_bits_ < count) {
    throw CorruptStreamError("BitReader: stream exhausted");
  }
  const std::uint64_t value = accumulator_ & ((1ULL << count) - 1);
  accumulator_ >>= count;
  available_bits_ -= count;
  bits_consumed_ += count;
  return value;
}

std::uint64_t BitReader::PeekBits(unsigned count) {
  if (count > 57) throw InvalidArgumentError("BitReader: count > 57");
  Refill();
  return accumulator_ & ((1ULL << count) - 1);
}

void BitReader::SkipBits(unsigned count) {
  // Same ceiling as ReadBits: without it a count >= 64 reaches the
  // accumulator shift below, which is undefined for a 64-bit operand.
  if (count > 57) throw InvalidArgumentError("BitReader: count > 57");
  Refill();
  if (available_bits_ < count) {
    throw CorruptStreamError("BitReader::SkipBits: stream exhausted");
  }
  accumulator_ >>= count;
  available_bits_ -= count;
  bits_consumed_ += count;
}

void BitReader::AlignToByte() {
  const unsigned remainder = bits_consumed_ % 8;
  if (remainder != 0) SkipBits(8 - static_cast<unsigned>(remainder));
}

Bytes BitReader::ReadBytes(std::size_t count) {
  if (bits_consumed_ % 8 != 0) {
    throw InvalidArgumentError("BitReader::ReadBytes: not byte-aligned");
  }
  // The accumulator may hold already-buffered whole bytes; read through it.
  Bytes out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(static_cast<std::byte>(ReadBits(8)));
  }
  return out;
}

bool BitReader::AtEnd() const {
  const std::uint64_t total_bits = 8 * static_cast<std::uint64_t>(data_.size());
  // All bytes pulled into the accumulator and fewer than 8 buffered bits left
  // means only final-byte padding can remain.
  return next_byte_ == data_.size() && available_bits_ < 8 &&
         bits_consumed_ + available_bits_ == total_bits;
}

}  // namespace primacy
