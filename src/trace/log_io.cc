#include "trace/log_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <type_traits>

#include "util/csv.h"
#include "util/error.h"
#include "util/parallel.h"

namespace mcloud {
namespace {

constexpr std::array<char, 8> kMagic = {'M', 'C', 'L', 'O',
                                        'G', 'v', '0', '1'};
constexpr std::array<char, 8> kMagicV2 = {'M', 'C', 'L', 'O',
                                          'G', 'v', '0', '2'};

/// Records per I/O block of the v1 format (256 KiB buffers).
constexpr std::size_t kV1BlockRecords = 4096;

std::ofstream OpenForWrite(const std::filesystem::path& path, bool binary) {
  std::ofstream out(path, binary ? std::ios::binary | std::ios::trunc
                                 : std::ios::trunc);
  if (!out) throw Error("cannot open for writing: " + path.string());
  return out;
}

std::ifstream OpenForRead(const std::filesystem::path& path, bool binary) {
  std::ifstream in(path, binary ? std::ios::binary : std::ios::in);
  if (!in) throw Error("cannot open for reading: " + path.string());
  return in;
}

bool IsCsvPath(const std::filesystem::path& path) {
  return path.extension() == ".csv";
}

/// Fixed-width on-disk layout of one v1 binary record (little-endian).
struct PackedRecord {
  std::int64_t timestamp;
  std::uint64_t device_id;
  std::uint64_t user_id;
  std::uint64_t data_volume;
  std::int64_t processing_us;
  std::int64_t server_us;
  std::int64_t rtt_us;
  std::uint8_t device_type;
  std::uint8_t request_type;
  std::uint8_t direction;
  std::uint8_t proxied;
  std::uint8_t pad[4];
};
static_assert(sizeof(PackedRecord) == 64, "unexpected record layout");

PackedRecord Pack(const LogRecord& r) {
  PackedRecord p{};
  p.timestamp = r.timestamp;
  p.device_id = r.device_id;
  p.user_id = r.user_id;
  p.data_volume = r.data_volume;
  p.processing_us = detail::ToMicros(r.processing_time);
  p.server_us = detail::ToMicros(r.server_time);
  p.rtt_us = detail::ToMicros(r.avg_rtt);
  p.device_type = static_cast<std::uint8_t>(r.device_type);
  p.request_type = static_cast<std::uint8_t>(r.request_type);
  p.direction = static_cast<std::uint8_t>(r.direction);
  p.proxied = r.proxied ? 1 : 0;
  return p;
}

LogRecord Unpack(const PackedRecord& p) {
  LogRecord r;
  r.timestamp = p.timestamp;
  r.device_id = p.device_id;
  r.user_id = p.user_id;
  r.data_volume = p.data_volume;
  r.processing_time = detail::FromMicros(p.processing_us);
  r.server_time = detail::FromMicros(p.server_us);
  r.avg_rtt = detail::FromMicros(p.rtt_us);
  if (p.device_type > 2) throw ParseError("bad device type in binary trace");
  if (p.request_type > 1) throw ParseError("bad request type in binary trace");
  if (p.direction > 1) throw ParseError("bad direction in binary trace");
  r.device_type = static_cast<DeviceType>(p.device_type);
  r.request_type = static_cast<RequestType>(p.request_type);
  r.direction = static_cast<Direction>(p.direction);
  r.proxied = p.proxied != 0;
  return r;
}

}  // namespace

std::string CsvHeader() {
  return "timestamp,device_type,device_id,user_id,request_type,direction,"
         "data_volume,processing_time,server_time,avg_rtt,proxied";
}

std::string ToCsvLine(const LogRecord& r) {
  std::string out;
  out.reserve(128);
  out.append(std::to_string(r.timestamp)).push_back(',');
  out.append(ToString(r.device_type)).push_back(',');
  out.append(std::to_string(r.device_id)).push_back(',');
  out.append(std::to_string(r.user_id)).push_back(',');
  out.append(ToString(r.request_type)).push_back(',');
  out.append(ToString(r.direction)).push_back(',');
  out.append(std::to_string(r.data_volume)).push_back(',');
  // 6 decimals = microsecond resolution, matching the binary format.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", r.processing_time);
  out.append(buf).push_back(',');
  std::snprintf(buf, sizeof(buf), "%.6f", r.server_time);
  out.append(buf).push_back(',');
  std::snprintf(buf, sizeof(buf), "%.6f", r.avg_rtt);
  out.append(buf).push_back(',');
  out.push_back(r.proxied ? '1' : '0');
  return out;
}

LogRecord FromCsvLine(std::string_view line) {
  const auto f = SplitCsvLine(line);
  if (f.size() != 11)
    throw ParseError("expected 11 CSV fields, got " +
                     std::to_string(f.size()));
  LogRecord r;
  r.timestamp = ParseInt64(f[0], "timestamp");
  r.device_type = DeviceTypeFromString(f[1]);
  r.device_id = ParseUint64(f[2], "device_id");
  r.user_id = ParseUint64(f[3], "user_id");
  r.request_type = RequestTypeFromString(f[4]);
  r.direction = DirectionFromString(f[5]);
  r.data_volume = ParseUint64(f[6], "data_volume");
  r.processing_time = ParseDouble(f[7], "processing_time");
  r.server_time = ParseDouble(f[8], "server_time");
  r.avg_rtt = ParseDouble(f[9], "avg_rtt");
  if (f[10] == "1") {
    r.proxied = true;
  } else if (f[10] == "0") {
    r.proxied = false;
  } else {
    throw ParseError("bad proxied flag: '" + std::string(f[10]) + "'");
  }
  return r;
}

void WriteCsvTrace(const std::filesystem::path& path,
                   std::span<const LogRecord> records) {
  std::ofstream out = OpenForWrite(path, /*binary=*/false);
  out << CsvHeader() << '\n';
  for (const auto& r : records) out << ToCsvLine(r) << '\n';
  if (!out) throw Error("write failed: " + path.string());
}

std::vector<LogRecord> ReadCsvTrace(const std::filesystem::path& path) {
  std::ifstream in = OpenForRead(path, /*binary=*/false);
  std::string line;
  if (!std::getline(in, line))
    throw ParseError("empty CSV trace: " + path.string());
  if (line != CsvHeader())
    throw ParseError("unexpected CSV header in " + path.string());
  std::vector<LogRecord> records;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    records.push_back(FromCsvLine(line));
  }
  return records;
}

std::vector<LogRecord> ReadTrace(const std::filesystem::path& path) {
  if (std::filesystem::is_directory(path))
    throw Error("not a trace file (a directory): " + path.string());
  if (IsColumnarTrace(path)) return ReadColumnarTrace(path).ToRecords();
  if (IsCsvPath(path)) return ReadCsvTrace(path);
  return ReadBinaryTrace(path);
}

void WriteTrace(const std::filesystem::path& path,
                std::span<const LogRecord> records) {
  if (IsCsvPath(path)) {
    WriteCsvTrace(path, records);
  } else {
    WriteColumnarTrace(path, TraceStore::FromRecords(records));
  }
}

void WriteTrace(const std::filesystem::path& path, const TraceStore& store) {
  if (IsCsvPath(path)) {
    WriteCsvTrace(path, store.ToRecords());
  } else {
    WriteColumnarTrace(path, store);
  }
}

void WriteBinaryTrace(const std::filesystem::path& path,
                      std::span<const LogRecord> records) {
  std::ofstream out = OpenForWrite(path, /*binary=*/true);
  out.write(kMagic.data(), kMagic.size());
  const std::uint64_t count = records.size();
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  // Pack and flush blockwise rather than one 64-byte write per record.
  std::vector<PackedRecord> block;
  block.reserve(kV1BlockRecords);
  for (const auto& r : records) {
    block.push_back(Pack(r));
    if (block.size() == kV1BlockRecords) {
      out.write(reinterpret_cast<const char*>(block.data()),
                static_cast<std::streamsize>(block.size() *
                                             sizeof(PackedRecord)));
      block.clear();
    }
  }
  if (!block.empty()) {
    out.write(reinterpret_cast<const char*>(block.data()),
              static_cast<std::streamsize>(block.size() *
                                           sizeof(PackedRecord)));
  }
  if (!out) throw Error("write failed: " + path.string());
}

std::vector<LogRecord> ReadBinaryTrace(const std::filesystem::path& path) {
  std::ifstream in = OpenForRead(path, /*binary=*/true);
  std::array<char, 8> magic{};
  in.read(magic.data(), magic.size());
  if (!in || magic != kMagic)
    throw ParseError("not a mcloud binary trace: " + path.string());
  std::uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!in) throw ParseError("truncated binary trace: " + path.string());
  // The count sizes the result, so it must fit the file.
  std::error_code ec;
  const std::uint64_t size = std::filesystem::file_size(path, ec);
  const std::uint64_t header = kMagic.size() + sizeof(count);
  if (ec || size < header || count > (size - header) / sizeof(PackedRecord))
    throw ParseError("truncated binary trace: " + path.string());

  std::vector<LogRecord> records;
  records.reserve(static_cast<std::size_t>(count));
  std::vector<PackedRecord> block(static_cast<std::size_t>(
      std::min<std::uint64_t>(count, kV1BlockRecords)));
  while (records.size() < count) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(count - records.size(), block.size()));
    in.read(reinterpret_cast<char*>(block.data()),
            static_cast<std::streamsize>(n * sizeof(PackedRecord)));
    if (!in) throw ParseError("truncated binary trace: " + path.string());
    for (std::size_t i = 0; i < n; ++i) records.push_back(Unpack(block[i]));
  }
  return records;
}

namespace {

/// The fixed on-disk column order of the v2 format. Element width in bytes;
/// 0 marks the dense user column (uint32) handled specially.
struct ColumnLayout {
  std::uint32_t mask;
  std::size_t width;
};
constexpr ColumnLayout kV2Columns[] = {
    {kColTimestamp, sizeof(std::int64_t)},
    {kColDeviceType, sizeof(std::uint8_t)},
    {kColDeviceId, sizeof(std::uint64_t)},
    {kColUser, sizeof(std::uint32_t)},
    {kColRequestType, sizeof(std::uint8_t)},
    {kColDirection, sizeof(std::uint8_t)},
    {kColDataVolume, sizeof(std::uint64_t)},
    {kColProcessingTime, sizeof(std::int64_t)},  // microseconds on disk
    {kColServerTime, sizeof(std::int64_t)},
    {kColAvgRtt, sizeof(std::int64_t)},
    {kColProxied, sizeof(std::uint8_t)},
};

void WriteRaw(std::ofstream& out, const void* data, std::size_t bytes) {
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(bytes));
}

template <typename T>
void WriteColumn(std::ofstream& out, std::span<const T> column) {
  WriteRaw(out, column.data(), column.size() * sizeof(T));
}

/// Rows per block of a column that is converted on its way to disk: the
/// staging buffer is this long however long the column is.
constexpr std::size_t kConvertBlockRows = std::size_t{1} << 15;

/// Write convert(0), ..., convert(n - 1) as one column, converted into
/// `block` (resized to at most kConvertBlockRows) one block at a time.
template <typename T, typename Fn>
void WriteConvertedColumn(std::ofstream& out, std::size_t n,
                          std::vector<T>& block, Fn&& convert) {
  block.resize(std::min(n, kConvertBlockRows));
  for (std::size_t first = 0; first < n; first += block.size()) {
    const std::size_t m = std::min(block.size(), n - first);
    for (std::size_t i = 0; i < m; ++i) block[i] = convert(first + i);
    WriteColumn<T>(out, std::span<const T>(block).first(m));
  }
}

void WriteMicrosColumn(std::ofstream& out, std::span<const double> seconds,
                       std::vector<std::int64_t>& block) {
  WriteConvertedColumn(out, seconds.size(), block, [&](std::size_t i) {
    return detail::ToMicros(seconds[i]);
  });
}

}  // namespace

namespace detail {

std::size_t V2ColumnWidth(std::uint32_t col) {
  for (const auto& c : kV2Columns)
    if (c.mask == col) return c.width;
  throw Error("unknown v2 column bit: " + std::to_string(col));
}

std::uint64_t V2FileInfo::ColumnOffset(std::uint32_t col) const {
  if (!(mask & col)) throw Error("column absent from v2 file");
  std::uint64_t offset = user_table_offset + users * sizeof(std::uint64_t);
  for (const auto& c : kV2Columns) {
    if (c.mask == col) return offset;
    if (mask & c.mask) offset += rows * c.width;
  }
  throw Error("unknown v2 column bit: " + std::to_string(col));
}

V2FileInfo ReadV2FileInfo(const std::filesystem::path& path) {
  // Not OpenForRead: a partitioned trace names its runs in the MANIFEST,
  // so a missing run is a malformed trace (ParseError), not an IO error.
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw ParseError("missing columnar trace file: " + path.string());
  std::array<char, 8> magic{};
  in.read(magic.data(), magic.size());
  if (!in || magic != kMagicV2)
    throw ParseError("not a mcloud columnar trace: " + path.string());

  V2FileInfo info;
  std::uint32_t reserved = 0;
  in.read(reinterpret_cast<char*>(&info.rows), sizeof(info.rows));
  in.read(reinterpret_cast<char*>(&info.users), sizeof(info.users));
  in.read(reinterpret_cast<char*>(&info.day_base), sizeof(info.day_base));
  in.read(reinterpret_cast<char*>(&info.mask), sizeof(info.mask));
  in.read(reinterpret_cast<char*>(&reserved), sizeof(reserved));
  if (!in) throw ParseError("truncated columnar trace: " + path.string());
  if ((info.mask & ~kAllColumns) != 0 || !(info.mask & kColTimestamp) ||
      !(info.mask & kColUser))
    throw ParseError("bad column mask in columnar trace: " + path.string());
  info.user_table_offset = 8 + sizeof(info.rows) + sizeof(info.users) +
                           sizeof(info.day_base) + sizeof(info.mask) +
                           sizeof(reserved);

  // Validate the full payload length up front: seeks past EOF would not
  // fail, so even columns a reader skips must be accounted for here. Each
  // header count is checked against the bytes left before it is multiplied,
  // so no product can wrap.
  std::size_t row_width = 0;
  for (const auto& col : kV2Columns)
    if (info.mask & col.mask) row_width += col.width;
  std::error_code ec;
  const std::uint64_t size = std::filesystem::file_size(path, ec);
  if (ec || size < info.user_table_offset)
    throw ParseError("truncated columnar trace: " + path.string());
  std::uint64_t left = size - info.user_table_offset;
  if (info.users > left / sizeof(std::uint64_t))
    throw ParseError("truncated columnar trace: " + path.string());
  left -= info.users * sizeof(std::uint64_t);
  if (info.rows > left / row_width)
    throw ParseError("truncated columnar trace: " + path.string());
  return info;
}

}  // namespace detail

bool IsColumnarTrace(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::array<char, 8> magic{};
  in.read(magic.data(), magic.size());
  return in && magic == kMagicV2;
}

void WriteColumnarTrace(const std::filesystem::path& path,
                        const TraceStore& store) {
  std::ofstream out = OpenForWrite(path, /*binary=*/true);
  out.write(kMagicV2.data(), kMagicV2.size());
  const std::uint64_t n_rows = store.rows();
  const std::uint64_t n_users = store.users();
  const std::int64_t day_base = store.day_base();
  const std::uint32_t mask = store.columns_present();
  const std::uint32_t reserved = 0;
  WriteRaw(out, &n_rows, sizeof(n_rows));
  WriteRaw(out, &n_users, sizeof(n_users));
  WriteRaw(out, &day_base, sizeof(day_base));
  WriteRaw(out, &mask, sizeof(mask));
  WriteRaw(out, &reserved, sizeof(reserved));
  WriteColumn(out, store.user_ids());

  std::vector<std::int64_t> micros;
  for (const auto& col : kV2Columns) {
    if (!(mask & col.mask)) continue;
    switch (col.mask) {
      case kColTimestamp: WriteColumn(out, store.timestamps()); break;
      case kColDeviceType: WriteColumn(out, store.device_types()); break;
      case kColDeviceId: WriteColumn(out, store.device_ids()); break;
      case kColUser: WriteColumn(out, store.user_index()); break;
      case kColRequestType: WriteColumn(out, store.request_types()); break;
      case kColDirection: WriteColumn(out, store.directions()); break;
      case kColDataVolume: WriteColumn(out, store.data_volumes()); break;
      case kColProcessingTime:
        WriteMicrosColumn(out, store.processing_times(), micros);
        break;
      case kColServerTime:
        WriteMicrosColumn(out, store.server_times(), micros);
        break;
      case kColAvgRtt: WriteMicrosColumn(out, store.avg_rtts(), micros); break;
      case kColProxied: WriteColumn(out, store.proxied()); break;
    }
  }
  if (!out) throw Error("write failed: " + path.string());
}

void WriteColumnarRun(const std::filesystem::path& path,
                      const RecordColumns& cols, std::size_t begin,
                      std::size_t end, UnixSeconds day_base,
                      V2RunScratch& scratch) {
  const std::size_t n = end - begin;
  // Per-run user table: sorted unique raw ids; dense ids are ascending-id
  // ranks — the exact remap TraceStore::FromRecords would assign.
  auto& table = scratch.user_table;
  table.assign(cols.user_ids.begin() + static_cast<std::ptrdiff_t>(begin),
               cols.user_ids.begin() + static_cast<std::ptrdiff_t>(end));
  std::sort(table.begin(), table.end());
  table.erase(std::unique(table.begin(), table.end()), table.end());

  std::ofstream out = OpenForWrite(path, /*binary=*/true);
  out.write(kMagicV2.data(), kMagicV2.size());
  const std::uint64_t n_rows = n;
  const std::uint64_t n_users = table.size();
  const std::int64_t base = day_base;
  const std::uint32_t mask = kAllColumns;
  const std::uint32_t reserved = 0;
  WriteRaw(out, &n_rows, sizeof(n_rows));
  WriteRaw(out, &n_users, sizeof(n_users));
  WriteRaw(out, &base, sizeof(base));
  WriteRaw(out, &mask, sizeof(mask));
  WriteRaw(out, &reserved, sizeof(reserved));
  WriteColumn<std::uint64_t>(out, table);

  // Column payloads in the fixed kV2Columns order.
  const auto sub = [&](const auto& col) {
    using T = typename std::remove_reference_t<decltype(col)>::value_type;
    return std::span<const T>(col).subspan(begin, n);
  };
  WriteColumn<std::int64_t>(out, sub(cols.timestamps));
  WriteColumn<std::uint8_t>(out, sub(cols.device_types));
  WriteColumn<std::uint64_t>(out, sub(cols.device_ids));
  WriteConvertedColumn(out, n, scratch.dense_users, [&](std::size_t i) {
    return static_cast<std::uint32_t>(
        std::lower_bound(table.begin(), table.end(),
                         cols.user_ids[begin + i]) -
        table.begin());
  });
  WriteColumn<std::uint8_t>(out, sub(cols.request_types));
  WriteColumn<std::uint8_t>(out, sub(cols.directions));
  WriteColumn<std::uint64_t>(out, sub(cols.data_volumes));
  WriteMicrosColumn(out, sub(cols.processing_times), scratch.micros);
  WriteMicrosColumn(out, sub(cols.server_times), scratch.micros);
  WriteMicrosColumn(out, sub(cols.avg_rtts), scratch.micros);
  WriteColumn<std::uint8_t>(out, sub(cols.proxied));
  if (!out) throw Error("write failed: " + path.string());
}

namespace {

/// A read-only file descriptor, closed on scope exit. pread on one shared
/// descriptor needs no seek position, so concurrent column reads share it.
class ReadOnlyFd {
 public:
  explicit ReadOnlyFd(const std::filesystem::path& path)
      : fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC)) {
    if (fd_ < 0) throw Error("cannot open for reading: " + path.string());
  }
  ~ReadOnlyFd() { ::close(fd_); }
  ReadOnlyFd(const ReadOnlyFd&) = delete;
  ReadOnlyFd& operator=(const ReadOnlyFd&) = delete;

  /// Read exactly `bytes` at `offset` into `data`. The header gate has
  /// already checked the length, so a short read means the file shrank.
  void ReadAt(void* data, std::size_t bytes, std::uint64_t offset,
              const std::filesystem::path& path) const {
    auto* out = static_cast<char*>(data);
    while (bytes > 0) {
      const ssize_t got =
          ::pread(fd_, out, bytes, static_cast<off_t>(offset));
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0)
        throw ParseError("truncated columnar trace: " + path.string());
      out += got;
      bytes -= static_cast<std::size_t>(got);
      offset += static_cast<std::uint64_t>(got);
    }
  }

 private:
  int fd_;
};

}  // namespace

TraceStore ReadColumnarTrace(const std::filesystem::path& path,
                             std::uint32_t want, ThreadPool* pool) {
  // The probe validates the magic, mask, and full expected byte length.
  const detail::V2FileInfo info = detail::ReadV2FileInfo(path);
  const std::uint64_t n_rows = info.rows;
  if (n_rows > UINT32_MAX)
    throw ParseError("columnar trace too large: " + path.string());
  const ReadOnlyFd fd(path);

  TraceStore::Builder b;
  b.day_base = info.day_base;
  // The indexes need timestamps and users regardless of the request.
  const std::uint32_t load = (want | kColTimestamp | kColUser) & info.mask;
  b.present = load;

  // One task per loaded column plus one for the user table, each read with
  // one pread at its own offset straight into its final vector. The tasks
  // go largest first, so the pool's in-order claiming balances them.
  constexpr std::uint32_t kUserTable = 0;
  struct Task {
    std::uint32_t col;
    std::uint64_t bytes;
  };
  std::vector<Task> tasks = {{kUserTable, info.users * sizeof(std::uint64_t)}};
  for (const auto& col : kV2Columns)
    if (load & col.mask) tasks.push_back({col.mask, n_rows * col.width});
  std::stable_sort(tasks.begin(), tasks.end(),
                   [](const Task& a, const Task& c) { return a.bytes > c.bytes; });

  const auto read = [&](auto& column, std::uint64_t n, std::uint64_t offset) {
    column.resize(static_cast<std::size_t>(n));
    fd.ReadAt(column.data(), column.size() * sizeof(column[0]), offset, path);
  };
  // Times are int64 microseconds on disk: read into the double column's
  // own storage (same width), then convert in place.
  const auto read_micros = [&](std::vector<double>& column,
                               std::uint64_t offset) {
    static_assert(sizeof(double) == sizeof(std::int64_t));
    read(column, n_rows, offset);
    for (double& x : column) {
      std::int64_t us = 0;
      std::memcpy(&us, &x, sizeof(us));
      x = detail::FromMicros(us);
    }
  };
  RunTasks(pool, tasks.size(), [&](std::size_t t) {
    const std::uint32_t col = tasks[t].col;
    if (col == kUserTable) {
      read(b.user_ids, info.users, info.user_table_offset);
      return;
    }
    const std::uint64_t at = info.ColumnOffset(col);
    switch (col) {
      case kColTimestamp: read(b.timestamps, n_rows, at); break;
      case kColDeviceType: read(b.device_types, n_rows, at); break;
      case kColDeviceId: read(b.device_ids, n_rows, at); break;
      case kColUser: read(b.dense_users, n_rows, at); break;
      case kColRequestType: read(b.request_types, n_rows, at); break;
      case kColDirection: read(b.directions, n_rows, at); break;
      case kColDataVolume: read(b.data_volumes, n_rows, at); break;
      case kColProcessingTime: read_micros(b.processing_times, at); break;
      case kColServerTime: read_micros(b.server_times, at); break;
      case kColAvgRtt: read_micros(b.avg_rtts, at); break;
      case kColProxied: read(b.proxied, n_rows, at); break;
    }
  });
  try {
    return std::move(b).Build(pool);
  } catch (const Error& e) {
    throw ParseError("invalid columnar trace " + path.string() + ": " +
                     e.what());
  }
}

}  // namespace mcloud
