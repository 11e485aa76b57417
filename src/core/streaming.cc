#include "core/streaming.h"

#include "compress/registry.h"
#include "telemetry/trace.h"
#include "util/error.h"

namespace primacy {

PrimacyStreamWriter::PrimacyStreamWriter(Sink sink, PrimacyOptions options)
    : sink_(std::move(sink)),
      options_(std::move(options)),
      solver_(internal::ResolveSolver(options_.solver)),
      encoder_(options_, *solver_) {
  if (!sink_) {
    throw InvalidArgumentError("PrimacyStreamWriter: null sink");
  }
  if (options_.chunk_bytes < ElementWidth(options_.precision)) {
    throw InvalidArgumentError("PrimacyStreamWriter: chunk_bytes too small");
  }
  Bytes header;
  // Streaming mode: the total byte count is unknown up front; the header
  // stores the sentinel and the real count follows the end-of-chunks
  // sentinel in the trailer. Streamed streams stay v1: the writer cannot
  // seek back to plant a directory, and the reader is sequential anyway.
  internal::WriteStreamHeader(header, options_, kStreamingTotal,
                              /*stored=*/false, internal::kFormatVersion1);
  Emit(header);
}

void PrimacyStreamWriter::Emit(ByteSpan data) {
  stats_.output_bytes += data.size();
  sink_(data);
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
  primacy::AppendBytes(pending_, data);
  stats_.input_bytes += data.size();
  EncodeBufferedChunks(/*flush_partial=*/false);
}

void PrimacyStreamWriter::EncodeBufferedChunks(bool flush_partial) {
  const std::size_t width = ElementWidth(options_.precision);
  const std::size_t chunk_bytes =
      (options_.chunk_bytes / width) * width;  // whole elements per chunk
  std::size_t offset = 0;
  Bytes records;
  while (pending_.size() - offset >= chunk_bytes) {
    telemetry::TraceSpan span("primacy.stream_encode_chunk", "chunk",
                              static_cast<std::uint64_t>(stats_.chunks));
    AccumulateChunkStats(
        stats_, encoder_.EncodeChunk(
                    ByteSpan(pending_).subspan(offset, chunk_bytes), records));
    offset += chunk_bytes;
  }
  if (flush_partial) {
    const std::size_t remaining = pending_.size() - offset;
    const std::size_t whole = (remaining / width) * width;
    if (whole > 0) {
      AccumulateChunkStats(
          stats_, encoder_.EncodeChunk(
                      ByteSpan(pending_).subspan(offset, whole), records));
      offset += whole;
    }
  }
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(offset));
  if (!records.empty()) Emit(records);
}

PrimacyStats PrimacyStreamWriter::Finish() {
  if (finished_) {
    throw InvalidArgumentError("PrimacyStreamWriter: double Finish");
  }
  finished_ = true;
  EncodeBufferedChunks(/*flush_partial=*/true);

  Bytes trailer;
  PutVarint(trailer, 0);  // end-of-chunks sentinel (chunk counts are >= 1)
  PutBlock(trailer, pending_);  // partial-element tail bytes
  PutVarint(trailer, stats_.input_bytes);
  pending_.clear();
  Emit(trailer);

  FinalizeChunkStatMeans(stats_);
  return stats_;
}

PrimacyStreamReader::PrimacyStreamReader(ByteSpan stream,
                                         bool verify_checksums)
    : reader_(stream), header_(internal::ReadStreamHeader(reader_)) {
  if (header_.total_bytes != kStreamingTotal) {
    one_shot_ = internal::OpenStream(stream, verify_checksums);
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
  if (one_shot_ && header_.stored) {
    AppendBytes(out, internal::VerifiedStoredPayload(*one_shot_));
    saw_trailer_ = true;
    return false;
  }
  if (one_shot_ && header_.version >= internal::kFormatVersion2) {
    const internal::ChunkDirectory& directory = one_shot_->directory;
    if (chunk_index_ == directory.chunks.size()) {
      AppendBytes(out, one_shot_->tail);
      saw_trailer_ = true;
      return false;
    }
    const std::size_t at = out.size();
    const auto bytes = static_cast<std::size_t>(
        directory.chunks[chunk_index_].elements * header_.width);
    out.resize(at + bytes);
    internal::DecodeDirectoryChunk(*one_shot_, chunk_index_, *decoder_,
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
