// Readers and writers for HTTP request log traces.
//
// Three on-disk formats:
//   * CSV — human-inspectable, one record per line, with a header naming the
//     Table 1 fields. This is the interchange format of examples/.
//   * Binary v2 (columnar) — one contiguous column per Table 1 field plus the
//     TraceStore user table, so readers can load a column subset (see
//     ColumnMask) with one pread per loaded column, all columns at once on
//     a thread pool, and analyze paper-scale traces without ever
//     materializing the AoS vector. Every binary trace the tools write is
//     v2.
//   * Binary v1 — fixed-width little-endian records behind a small
//     magic+version header. Still read everywhere; only the library writes
//     it (WriteBinaryTrace).
// All formats round-trip LogRecord exactly (times are stored in microseconds).
//
// ReadTrace and WriteTrace are the one reader and the one writer of trace
// files: the format follows from the name (CSV for `.csv`) and, on read,
// from the v2 magic.
#pragma once

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "trace/log_record.h"
#include "trace/record_columns.h"
#include "trace/trace_store.h"
#include "util/error.h"

namespace mcloud {

/// Header line written/expected by the CSV format.
[[nodiscard]] std::string CsvHeader();

/// Serialize one record as a CSV line (no trailing newline).
[[nodiscard]] std::string ToCsvLine(const LogRecord& r);

/// Parse one CSV line. Throws ParseError on malformed input.
[[nodiscard]] LogRecord FromCsvLine(std::string_view line);

/// Write a trace as CSV (with header). Overwrites `path`.
void WriteCsvTrace(const std::filesystem::path& path,
                   std::span<const LogRecord> records);

/// Read an entire CSV trace into memory.
[[nodiscard]] std::vector<LogRecord> ReadCsvTrace(
    const std::filesystem::path& path);

/// Read any trace file: v2 when it starts with the v2 magic, CSV when its
/// name ends in `.csv`, v1 otherwise. Throws Error for a directory (a
/// partitioned trace is streamed, not read whole) and ParseError on
/// malformed bytes.
[[nodiscard]] std::vector<LogRecord> ReadTrace(
    const std::filesystem::path& path);

/// Write a trace file: CSV when `path` ends in `.csv`, v2 for every other
/// name. Overwrites `path`.
void WriteTrace(const std::filesystem::path& path,
                std::span<const LogRecord> records);
void WriteTrace(const std::filesystem::path& path, const TraceStore& store);

/// Write a trace in the v1 binary format. Overwrites `path`.
void WriteBinaryTrace(const std::filesystem::path& path,
                      std::span<const LogRecord> records);

/// Read an entire v1 binary trace into memory. Throws ParseError on a bad
/// magic/version, a header count the file cannot hold, a truncated file, or
/// an out-of-range enum field.
[[nodiscard]] std::vector<LogRecord> ReadBinaryTrace(
    const std::filesystem::path& path);

namespace detail {

[[nodiscard]] inline std::int64_t ToMicros(Seconds s) {
  return static_cast<std::int64_t>(s * 1e6 + (s >= 0 ? 0.5 : -0.5));
}
[[nodiscard]] inline Seconds FromMicros(std::int64_t us) {
  return static_cast<Seconds>(us) * 1e-6;
}

}  // namespace detail

/// True when `path` starts with the v2 columnar magic — the format sniff
/// of ReadTrace. Returns false (never throws) for missing or short files.
[[nodiscard]] bool IsColumnarTrace(const std::filesystem::path& path);

/// Write a trace in the v2 columnar format (all columns the store carries,
/// so a store read with a column subset writes that subset). Overwrites
/// `path`. This and WriteColumnarRun share one writer body, which walks the
/// columns in ColumnMask order; they differ only in the dense user column.
void WriteColumnarTrace(const std::filesystem::path& path,
                        const TraceStore& store);

/// Reusable buffers for WriteColumnarRun: the per-run user table, and one
/// fixed-size block each for the dense user column and the microsecond
/// staging of the time columns (so they do not grow with the run).
struct V2RunScratch {
  std::vector<std::uint64_t> user_table;
  std::vector<std::uint32_t> dense_users;
  std::vector<std::int64_t> micros;
};

/// Write rows [begin, end) of a time-sorted columnar record buffer as one
/// all-columns v2 file — byte-identical to WriteColumnarTrace(path,
/// TraceStore::FromRecords(<those rows>, day_base)) without materializing
/// the records or the store (the run's user table is the sorted unique raw
/// ids of the range; dense ids are the ascending-id ranks, exactly the
/// remap TraceStore assigns, resolved by binary search in blocks of
/// `scratch.dense_users`).
void WriteColumnarRun(const std::filesystem::path& path,
                      const RecordColumns& cols, std::size_t begin,
                      std::size_t end, UnixSeconds day_base,
                      V2RunScratch& scratch);

/// Read a v2 columnar trace, loading only the columns in `want` (skipped
/// columns are never read; the timestamp and user columns are always
/// loaded — the store's indexes need them). Columns in `want` that the file
/// does not carry are simply absent from the result (check
/// columns_present()). Each loaded column is one task on `pool` (inline
/// when null) that preads it at its header-derived offset straight into
/// the builder's column, named by RecordColumns::VisitColumn (the user
/// table and the dense user column are the two special cases);
/// TraceStore::Builder::Build then checks the rows on the same pool. The
/// store and any error are the same for every pool.
/// Throws ParseError on a bad magic/version, a truncated file or invalid
/// rows.
[[nodiscard]] TraceStore ReadColumnarTrace(const std::filesystem::path& path,
                                           std::uint32_t want = kAllColumns,
                                           ThreadPool* pool = nullptr);

namespace detail {

/// Parsed and validated header of one MCLOGv02 columnar file. Offsets are
/// absolute byte positions, precomputed from the fixed column order, so
/// out-of-core readers can seek straight to a column's row range.
struct V2FileInfo {
  std::uint64_t rows = 0;
  std::uint64_t users = 0;
  std::int64_t day_base = 0;
  std::uint32_t mask = 0;
  std::uint64_t user_table_offset = 0;  ///< byte offset of the user-id table

  /// Byte offset of column `col`'s data. Throws Error when the file does
  /// not carry `col` (check `mask` first).
  [[nodiscard]] std::uint64_t ColumnOffset(std::uint32_t col) const;
};

/// Element width in bytes of `col` in the v2 on-disk layout (times are
/// stored as int64 microseconds). Throws Error for an unknown column bit.
[[nodiscard]] std::size_t V2ColumnWidth(std::uint32_t col);

/// Read and validate a v2 columnar header: magic, column mask, and the full
/// expected byte length (header + user table + every present column). The
/// header's user and row counts are checked against the file size before
/// any arithmetic with them. A missing, short, or truncated file throws
/// ParseError here — this is the single truncation gate shared by
/// ReadColumnarTrace and the partitioned multi-file reader, so a partition
/// can never silently drop rows.
[[nodiscard]] V2FileInfo ReadV2FileInfo(const std::filesystem::path& path);

}  // namespace detail

}  // namespace mcloud
