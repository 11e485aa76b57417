#include "isobar/partitioned_codec.h"

#include "bitstream/byte_io.h"
#include "util/byte_matrix.h"
#include "util/error.h"

namespace primacy {

IsobarCompressed IsobarCompress(ByteSpan rows, std::size_t width,
                                const IsobarPlan& plan, const Codec& solver) {
  if (plan.width != width || plan.columns.size() != width) {
    throw InvalidArgumentError("IsobarCompress: plan does not match width");
  }
  const std::size_t n = width == 0 ? 0 : rows.size() / width;
  if (width == 0 || rows.size() % width != 0) {
    throw InvalidArgumentError("IsobarCompress: bad matrix shape");
  }

  // Gather compressible columns (column-linearized) and raw columns.
  Bytes compressible;
  Bytes raw;
  for (const ColumnAnalysis& col : plan.columns) {
    Bytes column(n);
    for (std::size_t i = 0; i < n; ++i) {
      column[i] = rows[i * width + col.column];
    }
    AppendBytes(col.compressible ? compressible : raw, column);
  }

  IsobarCompressed result;
  result.plan = plan;
  const Bytes solved = solver.Compress(compressible);
  result.compressed_bytes = solved.size();
  result.raw_bytes = raw.size();

  Bytes& out = result.stream;
  PutVarint(out, n);
  PutBlock(out, SerializePlan(plan));
  PutBlock(out, solved);
  PutBlock(out, raw);
  return result;
}

IsobarCompressed IsobarCompress(ByteSpan rows, std::size_t width,
                                const Codec& solver,
                                const IsobarOptions& options) {
  return IsobarCompress(rows, width, AnalyzeColumns(rows, width, options),
                        solver);
}

namespace {

/// An ISOBAR stream's parts, as IsobarCompress wrote them.
struct IsobarRecord {
  std::uint64_t n = 0;  // element count, off the wire
  IsobarPlan plan;
  std::size_t solved_columns = 0;
  ByteSpan solved;  // solver stream of the compressible columns
  ByteSpan raw;     // the incompressible columns, verbatim
};

IsobarRecord ReadRecord(ByteSpan stream) {
  ByteReader reader(stream);
  IsobarRecord record;
  record.n = reader.GetVarint();
  record.plan = DeserializePlan(reader.GetBlock());
  record.solved_columns = record.plan.CompressibleColumns().size();
  record.solved = reader.GetBlock();
  record.raw = reader.GetBlock();
  return record;
}

/// Checks the decoded column bytes against the element count. Overflow-safe:
/// division instead of multiplication, since n comes from an untrusted
/// varint.
void CheckColumnSizes(const IsobarRecord& record, std::size_t solved_bytes) {
  const std::uint64_t n = record.n;
  const auto column_count_matches = [n](std::size_t bytes,
                                        std::size_t columns) {
    if (columns == 0) return bytes == 0;
    return bytes % columns == 0 && bytes / columns == n;
  };
  const std::size_t raw_columns =
      record.plan.columns.size() - record.solved_columns;
  if (!column_count_matches(solved_bytes, record.solved_columns) ||
      !column_count_matches(record.raw.size(), raw_columns)) {
    throw CorruptStreamError("IsobarDecompress: column sizes inconsistent");
  }
  if (record.plan.width != 0 && n > (solved_bytes + record.raw.size())) {
    throw CorruptStreamError("IsobarDecompress: element count inconsistent");
  }
}

/// The column view of a checked `record` whose solved columns are in
/// `solved`. Columns past the plan's (a plan may cover fewer than its
/// width) read as zero, from n zero bytes appended to `solved`.
IsobarColumns ViewColumns(const IsobarRecord& record, Bytes& solved) {
  IsobarColumns view;
  view.n = static_cast<std::size_t>(record.n);
  view.width = record.plan.width;
  const std::size_t planned = record.plan.columns.size();
  if (planned < view.width) solved.resize(solved.size() + view.n);
  std::size_t next_solved = 0;
  std::size_t next_raw = 0;
  for (std::size_t c = 0; c < view.width; ++c) {
    if (c >= planned) {
      view.column[c] = solved.data() + view.n * record.solved_columns;
    } else if (record.plan.columns[c].compressible) {
      view.column[c] = solved.data() + view.n * next_solved++;
    } else {
      view.column[c] = record.raw.data() + view.n * next_raw++;
    }
  }
  return view;
}

}  // namespace

Bytes IsobarDecompress(ByteSpan stream, const Codec& solver) {
  const IsobarRecord record = ReadRecord(stream);
  Bytes solved = solver.Decompress(record.solved);
  CheckColumnSizes(record, solved.size());
  const IsobarColumns view = ViewColumns(record, solved);
  // Row by row, one read cursor per column: each output row is written
  // once, instead of each column striding across every row.
  Bytes rows(view.n * view.width);
  if (view.width == 0) return rows;
  std::byte* row = rows.data();
  if (view.width == 6) {
    const auto& c = view.column;
    for (std::size_t i = 0; i < view.n; ++i, row += 6) {
      row[0] = c[0][i];
      row[1] = c[1][i];
      row[2] = c[2][i];
      row[3] = c[3][i];
      row[4] = c[4][i];
      row[5] = c[5][i];
    }
    return rows;
  }
  for (std::size_t i = 0; i < view.n; ++i, row += view.width) {
    for (std::size_t c = 0; c < view.width; ++c) row[c] = view.column[c][i];
  }
  return rows;
}

IsobarColumns IsobarDecodeColumns(ByteSpan stream, const Codec& solver,
                                  std::size_t n, std::size_t width,
                                  Bytes& scratch) {
  const IsobarRecord record = ReadRecord(stream);
  if (record.n != n || record.plan.width != width) {
    throw CorruptStreamError("IsobarDecompress: element shape mismatch");
  }
  scratch.resize(n * record.solved_columns);
  solver.DecompressInto(record.solved, scratch);
  CheckColumnSizes(record, scratch.size());
  return ViewColumns(record, scratch);
}

}  // namespace primacy
