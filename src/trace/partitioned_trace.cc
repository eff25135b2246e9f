#include "trace/partitioned_trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "trace/log_io.h"
#include "util/error.h"
#include "util/merge.h"
#include "util/timeutil.h"

namespace mcloud {
namespace {

constexpr const char* kManifestName = "MANIFEST";
constexpr const char* kManifestMagic = "MCLOUDPART v1";

/// The analysis columns in v2 on-disk order; index in this array == index in
/// Run::col_offset.
constexpr std::uint32_t kScanColumns[7] = {
    kColTimestamp, kColDeviceType, kColDeviceId,    kColUser,
    kColRequestType, kColDirection, kColDataVolume,
};

}  // namespace

TraceRowBlock BlockOf(const TraceStore& store, std::size_t begin,
                      std::size_t end) {
  if (!store.has(kAnalysisColumns))
    throw Error("trace store is missing analysis columns");
  const std::size_t n = end - begin;
  TraceRowBlock b;
  b.timestamps = store.timestamps().subspan(begin, n);
  b.device_types = store.device_types().subspan(begin, n);
  b.device_ids = store.device_ids().subspan(begin, n);
  b.users = store.user_index().subspan(begin, n);
  b.request_types = store.request_types().subspan(begin, n);
  b.directions = store.directions().subspan(begin, n);
  b.data_volumes = store.data_volumes().subspan(begin, n);
  return b;
}

PartitionedTraceWriter::PartitionedTraceWriter(std::filesystem::path dir,
                                               UnixSeconds day_base)
    : dir_(std::move(dir)), day_base_(day_base) {
  if (!std::filesystem::is_directory(dir_))
    throw Error("spill target is not a directory: " + dir_.string());
}

void PartitionedTraceWriter::WriteSortedSlice(const RecordColumns& slice) {
  if (finished_)
    throw Error("partitioned trace already sealed: " + dir_.string());
  // Timestamps are non-decreasing within the slice, so equal-day segments
  // are contiguous; each becomes one run file.
  std::size_t begin = 0;
  while (begin < slice.size()) {
    const std::int64_t day =
        FloorDayIndex(slice.timestamps[begin] - day_base_);
    std::size_t end = begin + 1;
    while (end < slice.size() &&
           FloorDayIndex(slice.timestamps[end] - day_base_) == day)
      ++end;
    char name[32];
    std::snprintf(name, sizeof(name), "run-%06zu.v2", runs_.size());
    WriteColumnarRun(dir_ / name, slice, begin, end, day_base_, run_scratch_);
    runs_.push_back({day, static_cast<std::uint64_t>(end - begin), name});
    records_ += end - begin;
    begin = end;
  }
}

void PartitionedTraceWriter::Finish() {
  if (finished_) return;
  const std::filesystem::path path = dir_ / kManifestName;
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw Error("cannot open for writing: " + path.string());
  out << kManifestMagic << '\n';
  out << "day_base " << day_base_ << '\n';
  out << "records " << records_ << '\n';
  out << "runs " << runs_.size() << '\n';
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    out << "run " << i << ' ' << runs_[i].day << ' ' << runs_[i].rows << ' '
        << runs_[i].file << '\n';
  }
  out << "end\n";
  if (!out) throw Error("write failed: " + path.string());
  finished_ = true;
}

PartitionedTrace PartitionedTrace::Open(const std::filesystem::path& dir) {
  const std::filesystem::path manifest = dir / kManifestName;
  std::ifstream in(manifest);
  if (!in)
    throw ParseError("cannot open partitioned trace manifest: " +
                     manifest.string());
  std::string line;
  const auto next_line = [&]() -> const std::string& {
    if (!std::getline(in, line))
      throw ParseError("truncated partitioned trace manifest: " +
                       manifest.string());
    return line;
  };
  const auto bad = [&](const std::string& what) {
    return ParseError("bad partitioned trace manifest (" + what + "): " +
                      manifest.string());
  };
  if (next_line() != kManifestMagic)
    throw ParseError("not a partitioned trace manifest: " + manifest.string());

  PartitionedTrace t;
  std::uint64_t n_runs = 0;
  {
    std::istringstream ls(next_line());
    std::string key;
    if (!(ls >> key >> t.day_base_) || key != "day_base")
      throw bad("day_base");
  }
  {
    std::istringstream ls(next_line());
    std::string key;
    if (!(ls >> key >> t.rows_) || key != "records") throw bad("records");
  }
  {
    std::istringstream ls(next_line());
    std::string key;
    if (!(ls >> key >> n_runs) || key != "runs") throw bad("runs");
  }
  // No reserve from n_runs: the count is untrusted until every entry it
  // declares has been read.
  std::uint64_t declared_rows = 0;
  for (std::uint64_t i = 0; i < n_runs; ++i) {
    std::istringstream ls(next_line());
    std::string key, file;
    std::uint64_t seq = 0, rows = 0;
    std::int64_t day = 0;
    if (!(ls >> key >> seq >> day >> rows >> file) || key != "run" ||
        seq != i || file.empty())
      throw bad("run entry " + std::to_string(i));
    Run r;
    r.path = dir / file;
    r.day = day;
    r.rows = rows;
    declared_rows += rows;
    t.runs_.push_back(std::move(r));
  }
  // The trailing sentinel distinguishes a complete manifest from one cut
  // short mid-write: a truncated run list fails loudly here.
  if (next_line() != "end") throw bad("missing end sentinel");
  if (declared_rows != t.rows_) throw bad("record count mismatch");

  // Validate every run file (missing/short partitions throw in
  // ReadV2FileInfo), collect column offsets, and read the user tables.
  std::vector<std::vector<std::uint64_t>> tables(t.runs_.size());
  for (std::size_t i = 0; i < t.runs_.size(); ++i) {
    Run& r = t.runs_[i];
    const detail::V2FileInfo info = detail::ReadV2FileInfo(r.path);
    if (info.rows != r.rows)
      throw ParseError("partition row count mismatch (manifest says " +
                       std::to_string(r.rows) + ", file has " +
                       std::to_string(info.rows) + "): " + r.path.string());
    if (info.day_base != t.day_base_)
      throw ParseError("partition day_base mismatch: " + r.path.string());
    if ((info.mask & kAnalysisColumns) != kAnalysisColumns)
      throw ParseError("partition is missing analysis columns: " +
                       r.path.string());
    for (std::size_t c = 0; c < 7; ++c)
      r.col_offset[c] = info.ColumnOffset(kScanColumns[c]);

    std::ifstream run_in(r.path, std::ios::binary);
    if (!run_in)
      throw ParseError("cannot open partition: " + r.path.string());
    run_in.seekg(static_cast<std::streamoff>(info.user_table_offset));
    tables[i].resize(static_cast<std::size_t>(info.users));
    run_in.read(reinterpret_cast<char*>(tables[i].data()),
                static_cast<std::streamsize>(info.users *
                                             sizeof(std::uint64_t)));
    if (!run_in)
      throw ParseError("truncated columnar trace: " + r.path.string());
  }

  // Global user table: sorted union of the per-run tables — the same
  // ascending-original-id dense remap a resident TraceStore would assign.
  std::size_t total = 0;
  for (const auto& table : tables) total += table.size();
  t.user_ids_.reserve(total);
  for (const auto& table : tables)
    t.user_ids_.insert(t.user_ids_.end(), table.begin(), table.end());
  std::sort(t.user_ids_.begin(), t.user_ids_.end());
  t.user_ids_.erase(std::unique(t.user_ids_.begin(), t.user_ids_.end()),
                    t.user_ids_.end());
  if (t.user_ids_.size() > UINT32_MAX)
    throw ParseError("partitioned trace has too many users: " + dir.string());
  for (std::size_t i = 0; i < t.runs_.size(); ++i) {
    Run& r = t.runs_[i];
    r.local_to_global.reserve(tables[i].size());
    for (const std::uint64_t id : tables[i]) {
      const auto it =
          std::lower_bound(t.user_ids_.begin(), t.user_ids_.end(), id);
      r.local_to_global.push_back(
          static_cast<std::uint32_t>(it - t.user_ids_.begin()));
    }
    tables[i] = std::vector<std::uint64_t>();  // release as we go
  }
  return t;
}

namespace {

/// Block-buffered streaming cursor over one run file's analysis columns.
/// Satisfies the MergeSortedCursorsInto contract; user ids are remapped to
/// global dense indices as each block is loaded.
class RunCursor {
 public:
  RunCursor(const std::filesystem::path& path, std::uint64_t rows,
            const std::uint64_t* col_offset,
            std::span<const std::uint32_t> local_to_global,
            std::size_t block_rows)
      : in_(path, std::ios::binary),
        path_(path),
        rows_(rows),
        col_offset_(col_offset),
        local_to_global_(local_to_global) {
    if (!in_) throw ParseError("cannot open partition: " + path_.string());
    const std::size_t cap =
        static_cast<std::size_t>(std::min<std::uint64_t>(rows, block_rows));
    ts_.resize(cap);
    dev_.resize(cap);
    dev_id_.resize(cap);
    user_.resize(cap);
    req_.resize(cap);
    dir_.resize(cap);
    vol_.resize(cap);
    Refill();
  }

  [[nodiscard]] bool empty() const { return pos_ == block_n_; }
  void pop() {
    ++pos_;
    if (pos_ == block_n_ && file_pos_ < rows_) Refill();
  }

  [[nodiscard]] std::int64_t ts() const { return ts_[pos_]; }
  [[nodiscard]] std::uint8_t device_type() const { return dev_[pos_]; }
  [[nodiscard]] std::uint64_t device_id() const { return dev_id_[pos_]; }
  [[nodiscard]] std::uint32_t user() const { return user_[pos_]; }
  [[nodiscard]] std::uint8_t request_type() const { return req_[pos_]; }
  [[nodiscard]] std::uint8_t direction() const { return dir_[pos_]; }
  [[nodiscard]] std::uint64_t data_volume() const { return vol_[pos_]; }

 private:
  void ReadColumnAt(std::size_t col, void* data, std::size_t width,
                    std::size_t n) {
    in_.seekg(static_cast<std::streamoff>(col_offset_[col] +
                                          file_pos_ * width));
    in_.read(reinterpret_cast<char*>(data),
             static_cast<std::streamsize>(n * width));
    if (!in_)
      throw ParseError("truncated columnar trace: " + path_.string());
  }

  void Refill() {
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(rows_ - file_pos_, ts_.size()));
    ReadColumnAt(0, ts_.data(), sizeof(std::int64_t), n);
    ReadColumnAt(1, dev_.data(), sizeof(std::uint8_t), n);
    ReadColumnAt(2, dev_id_.data(), sizeof(std::uint64_t), n);
    ReadColumnAt(3, user_.data(), sizeof(std::uint32_t), n);
    ReadColumnAt(4, req_.data(), sizeof(std::uint8_t), n);
    ReadColumnAt(5, dir_.data(), sizeof(std::uint8_t), n);
    ReadColumnAt(6, vol_.data(), sizeof(std::uint64_t), n);
    for (std::size_t i = 0; i < n; ++i) {
      if (user_[i] >= local_to_global_.size())
        throw ParseError("bad user index in partition: " + path_.string());
      user_[i] = local_to_global_[user_[i]];
    }
    file_pos_ += n;
    pos_ = 0;
    block_n_ = n;
  }

  std::ifstream in_;
  std::filesystem::path path_;
  std::uint64_t rows_;
  const std::uint64_t* col_offset_;
  std::span<const std::uint32_t> local_to_global_;
  std::uint64_t file_pos_ = 0;
  std::size_t pos_ = 0;
  std::size_t block_n_ = 0;
  std::vector<std::int64_t> ts_;
  std::vector<std::uint8_t> dev_;
  std::vector<std::uint64_t> dev_id_;
  std::vector<std::uint32_t> user_;
  std::vector<std::uint8_t> req_;
  std::vector<std::uint8_t> dir_;
  std::vector<std::uint64_t> vol_;
};

}  // namespace

void PartitionedTrace::Scan(std::size_t staging_rows,
                            const BlockSink& sink) const {
  staging_rows = std::max<std::size_t>(staging_rows, std::size_t{16} * 1024);
  // Ascending day order; within a day, manifest (= spill sequence) order —
  // std::map iterates keys ascending, push_back preserves run order.
  std::map<std::int64_t, std::vector<const Run*>> days;
  for (const Run& r : runs_)
    if (r.rows > 0) days[r.day].push_back(&r);

  // Half the budget stages the merged output; the other half is split
  // across the day's per-run read buffers.
  const std::size_t out_rows = std::max<std::size_t>(staging_rows / 2, 4096);
  std::vector<std::int64_t> ts;
  std::vector<std::uint8_t> dev;
  std::vector<std::uint64_t> dev_id;
  std::vector<std::uint32_t> user;
  std::vector<std::uint8_t> req;
  std::vector<std::uint8_t> dir;
  std::vector<std::uint64_t> vol;
  ts.reserve(out_rows);
  dev.reserve(out_rows);
  dev_id.reserve(out_rows);
  user.reserve(out_rows);
  req.reserve(out_rows);
  dir.reserve(out_rows);
  vol.reserve(out_rows);

  const auto flush = [&](std::int64_t day) {
    if (ts.empty()) return;
    TraceRowBlock b;
    b.timestamps = ts;
    b.device_types = dev;
    b.device_ids = dev_id;
    b.users = user;
    b.request_types = req;
    b.directions = dir;
    b.data_volumes = vol;
    sink(day, b);
    ts.clear();
    dev.clear();
    dev_id.clear();
    user.clear();
    req.clear();
    dir.clear();
    vol.clear();
  };

  for (const auto& [day, day_runs] : days) {
    const std::size_t per_run = std::max<std::size_t>(
        (staging_rows - out_rows) / day_runs.size(), 4096);
    std::vector<RunCursor> cursors;
    cursors.reserve(day_runs.size());
    for (const Run* r : day_runs)
      cursors.emplace_back(r->path, r->rows, r->col_offset, r->local_to_global,
                           per_run);
    // (ts, global user, device) == LogRecordTimeOrder: the global dense
    // remap is ascending in original id, so comparing dense indices is
    // comparing original ids. Index ties resolve to the lower cursor — the
    // earlier spill — giving exactly stable-sort order.
    const auto less = [](const RunCursor& a, const RunCursor& b) {
      if (a.ts() != b.ts()) return a.ts() < b.ts();
      if (a.user() != b.user()) return a.user() < b.user();
      return a.device_id() < b.device_id();
    };
    MergeSortedCursorsInto(cursors, less, [&](RunCursor& c) {
      ts.push_back(c.ts());
      dev.push_back(c.device_type());
      dev_id.push_back(c.device_id());
      user.push_back(c.user());
      req.push_back(c.request_type());
      dir.push_back(c.direction());
      vol.push_back(c.data_volume());
      if (ts.size() == out_rows) flush(day);
    });
    flush(day);
  }
}

}  // namespace mcloud
