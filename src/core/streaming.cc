#include "core/streaming.h"

#include <algorithm>

#include "compress/registry.h"
#include "telemetry/trace.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace primacy {

PrimacyStreamWriter::PrimacyStreamWriter(Sink sink, PrimacyOptions options)
    : PrimacyStreamWriter(std::move(sink), options,
                          internal::ResolveSolver(options.solver),
                          /*encoder=*/nullptr, kStreamingTotal) {
  if (!sink_) {
    throw InvalidArgumentError("PrimacyStreamWriter: null sink");
  }
}

PrimacyStreamWriter::PrimacyStreamWriter(Sink sink, PrimacyOptions options,
                                         std::shared_ptr<const Codec> solver,
                                         ChunkEncoder* encoder,
                                         std::uint64_t total_bytes)
    : sink_(std::move(sink)),
      options_(std::move(options)),
      chunk_bytes_(options_.chunk_bytes - options_.chunk_bytes %
                                              ElementWidth(options_.precision)),
      solver_(std::move(solver)),
      total_bytes_(total_bytes),
      borrowed_(encoder) {
  if (chunk_bytes_ == 0) {
    throw InvalidArgumentError("PrimacyStreamWriter: chunk_bytes too small");
  }
  if (borrowed_ == nullptr) {
    own_encoder_.emplace(options_, *solver_);
  } else {
    borrowed_->Reset();  // clear cross-chunk index state from prior streams
  }
  if (total_bytes != kStreamingTotal) {
    // Sized once: an allocation between chunk encodes fragments the heap
    // their temporaries reuse (+5-10% peak RSS on 7.5 MiB variables).
    directory_.chunks.reserve(total_bytes / chunk_bytes_ + 1);
  }
  internal::WriteStreamHeader(out_, options_, total_bytes);
  header_tail_.Update(ByteSpan(out_).subspan(unsent_));
  Emit();
}

Bytes PrimacyStreamWriter::StoredStream(const PrimacyOptions& options,
                                        ByteSpan data) {
  Bytes stored;
  internal::WriteStreamHeader(stored, options, data.size(), /*stored=*/true);
  PutBlock(stored, data);
  PutU64(stored, Xxh64(stored));
  return stored;
}

void PrimacyStreamWriter::Emit() {
  const ByteSpan fresh = ByteSpan(out_).subspan(unsent_);
  stats_.output_bytes += fresh.size();
  if (sink_) {
    sink_(fresh);
    out_.clear();
  }
  unsent_ = out_.size();
}

void PrimacyStreamWriter::EmitRecord(const ChunkRecordStats& chunk) {
  // Every earlier byte is emitted, so the record starts at the emitted count.
  directory_.chunks.push_back(
      {stats_.output_bytes, chunk.elements,
       static_cast<std::uint8_t>(chunk.emitted_full_index    ? 1
                                 : chunk.emitted_delta_index ? 2
                                                             : 0),
       Xxh64(ByteSpan(out_).subspan(unsent_))});
  AccumulateChunkStats(stats_, chunk);
  Emit();
}

void PrimacyStreamWriter::Append(std::span<const double> values) {
  if (options_.precision != Precision::kDouble) {
    throw InvalidArgumentError(
        "PrimacyStreamWriter: double input requires Precision::kDouble");
  }
  AppendBytes(AsBytes(values));
}

void PrimacyStreamWriter::Append(std::span<const float> values) {
  if (options_.precision != Precision::kSingle) {
    throw InvalidArgumentError(
        "PrimacyStreamWriter: float input requires Precision::kSingle");
  }
  AppendBytes(AsBytes(values));
}

void PrimacyStreamWriter::AppendBytes(ByteSpan data) {
  if (finished_) {
    throw InvalidArgumentError("PrimacyStreamWriter: Append after Finish");
  }
  stats_.input_bytes += data.size();
  if (!pending_.empty()) {
    // Top up the buffered partial chunk first.
    const std::size_t take =
        std::min(chunk_bytes_ - pending_.size(), data.size());
    primacy::AppendBytes(pending_, data.first(take));
    data = data.subspan(take);
    if (pending_.size() < chunk_bytes_) return;
    EncodeChunks(pending_);
    pending_.clear();
  }
  // Once the input reaches the known total, the last partial chunk is
  // encoded now too, so a one-shot input is never copied.
  const std::size_t keep =
      stats_.input_bytes == total_bytes_
          ? data.size() % ElementWidth(options_.precision)
          : data.size() % chunk_bytes_;
  EncodeChunks(data.first(data.size() - keep));
  primacy::AppendBytes(pending_, data.last(keep));
}

void PrimacyStreamWriter::EncodeChunks(ByteSpan data) {
  const std::size_t count = (data.size() + chunk_bytes_ - 1) / chunk_bytes_;
  const auto chunk = [&](std::size_t i) {
    return data.subspan(i * chunk_bytes_,
                        std::min(chunk_bytes_, data.size() - i * chunk_bytes_));
  };
  // Chunks are independent under kPerChunk indexing: encode them across the
  // shared pool (a solver + encoder per slot), then emit them in order. A
  // borrowed encoder pins the serial path: it keeps one worker's scratch hot.
  if (borrowed_ == nullptr && options_.threads != 1 &&
      options_.index_mode == IndexMode::kPerChunk && count > 1) {
    std::vector<Bytes> records(count);
    std::vector<ChunkRecordStats> chunk_stats(count);
    struct Slot {
      std::unique_ptr<const Codec> solver;
      std::optional<ChunkEncoder> encoder;
    };
    std::vector<Slot> slots(
        SharedThreadPool().SlotCount(count, options_.threads));
    SharedThreadPool().ParallelForSlots(
        count, options_.threads, [&](std::size_t slot, std::size_t i) {
          Slot& s = slots[slot];
          if (!s.encoder) {
            s.solver = CreateCodec(options_.solver);
            s.encoder.emplace(options_, *s.solver);
          }
          chunk_stats[i] = s.encoder->EncodeChunk(chunk(i), records[i]);
        });
    for (std::size_t i = 0; i < count; ++i) {
      primacy::AppendBytes(out_, records[i]);
      EmitRecord(chunk_stats[i]);
    }
    return;
  }
  for (std::size_t i = 0; i < count; ++i) {
    telemetry::TraceSpan span("primacy.stream_encode_chunk", "chunk",
                              static_cast<std::uint64_t>(stats_.chunks));
    EmitRecord((borrowed_ != nullptr ? *borrowed_ : *own_encoder_)
                   .EncodeChunk(chunk(i), out_));
  }
}

PrimacyStats PrimacyStreamWriter::Finish() {
  if (finished_) {
    throw InvalidArgumentError("PrimacyStreamWriter: double Finish");
  }
  finished_ = true;
  const std::size_t tail = pending_.size() % ElementWidth(options_.precision);
  EncodeChunks(ByteSpan(pending_).first(pending_.size() - tail));

  directory_.tail_offset = stats_.output_bytes;
  PutBlock(out_, ByteSpan(pending_).last(tail));
  header_tail_.Update(ByteSpan(out_).subspan(unsent_));
  directory_.header_tail_checksum = header_tail_.Digest();
  internal::AppendChunkDirectory(out_, directory_);
  pending_.clear();
  Emit();

  FinalizeChunkStatMeans(stats_);
  return stats_;
}

PrimacyStreamReader::PrimacyStreamReader(ByteSpan stream,
                                         bool verify_checksums)
    : reader_(stream), header_(internal::ReadStreamHeader(reader_)) {
  if (header_.version != internal::kFormatVersion1 ||
      header_.total_bytes != kStreamingTotal) {
    opened_ = internal::OpenStream(stream, verify_checksums);
  }
  solver_ = CreateCodec(header_.solver_name);
  decoder_ = std::make_unique<ChunkDecoder>(*solver_, header_.linearization,
                                            header_.width);
}

const telemetry::StageBreakdown& PrimacyStreamReader::stage_breakdown() const {
  return decoder_->stage_breakdown();
}

bool PrimacyStreamReader::NextChunk(Bytes& out) {
  if (saw_trailer_) return false;
  telemetry::TraceSpan span("primacy.stream_next_chunk", "chunk",
                            static_cast<std::uint64_t>(chunk_index_));
  if (opened_ && header_.stored) {
    AppendBytes(out, internal::VerifiedStoredPayload(*opened_));
    saw_trailer_ = true;
    return false;
  }
  if (opened_ && header_.version >= internal::kFormatVersion2) {
    const internal::ChunkDirectory& directory = opened_->directory;
    if (chunk_index_ == directory.chunks.size()) {
      AppendBytes(out, opened_->tail);
      saw_trailer_ = true;
      return false;
    }
    const std::size_t at = out.size();
    const auto bytes = static_cast<std::size_t>(
        directory.chunks[chunk_index_].elements * header_.width);
    out.resize(at + bytes);
    internal::DecodeDirectoryChunk(*opened_, chunk_index_, *decoder_,
                                   MutableByteSpan(out).subspan(at, bytes));
    ++chunk_index_;
    return true;
  }
  return NextSequentialChunk(out);
}

bool PrimacyStreamReader::NextSequentialChunk(Bytes& out) {
  // v1 records end at a 0 count in streamed streams, and once the header's
  // element total is reached in one-shot streams.
  const bool streamed = header_.total_bytes == kStreamingTotal;
  const std::uint64_t remaining =
      streamed ? kStreamingTotal
               : header_.total_bytes / header_.width -
                     decoded_bytes_ / header_.width;
  std::uint64_t count = 0;
  if (remaining > 0) {
    const std::size_t record_offset = reader_.Offset();
    try {
      count = reader_.GetVarint();
      if (count > remaining || (count == 0 && !streamed)) {
        throw CorruptStreamError("primacy: bad chunk element count");
      }
      if (count > 0) decoder_->DecodeChunk(reader_, count, out);
    } catch (const InternalError&) {
      throw;  // library invariant failure, not stream damage — keep the type
    } catch (const Error& e) {
      internal::ThrowChunkError(chunk_index_, record_offset, e.what());
    }
  }
  if (count > 0) {
    decoded_bytes_ += count * header_.width;
    ++chunk_index_;
    return true;
  }
  const ByteSpan tail = reader_.GetBlock();
  AppendBytes(out, tail);
  decoded_bytes_ += tail.size();
  if (streamed && reader_.GetVarint() != decoded_bytes_) {
    throw CorruptStreamError("primacy: trailer total mismatch");
  }
  if (!streamed && decoded_bytes_ != header_.total_bytes) {
    throw CorruptStreamError("primacy: tail size mismatch");
  }
  saw_trailer_ = true;
  return false;
}

std::vector<double> PrimacyStreamReader::ReadAllDoubles() {
  if (header_.width != 8) {
    throw InvalidArgumentError(
        "PrimacyStreamReader: stream holds single-precision data");
  }
  Bytes out;
  while (NextChunk(out)) {
  }
  if (out.size() % 8 != 0) {
    throw CorruptStreamError("primacy: stream is not a whole double array");
  }
  return FromBytes<double>(out);
}

}  // namespace primacy
