#include "trace/partitioned_trace.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <utility>

#include "trace/log_io.h"
#include "util/error.h"
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

void PartitionedTraceWriter::WriteSortedSlice(const RecordColumns& slice,
                                              ThreadPool* pool) {
  if (finished_)
    throw Error("partitioned trace already sealed: " + dir_.string());
  if (slice.empty()) return;
  const auto [lo, hi] =
      std::minmax_element(slice.user_ids.begin(), slice.user_ids.end());
  if (records_ > 0 && *lo <= last_user_)
    throw Error("spill slice starts at user " + std::to_string(*lo) +
                ", not above the previous slices' last user " +
                std::to_string(last_user_) + ": " + dir_.string());

  // Each calendar day of the sorted slice, cut as a store's day partitions
  // are, becomes one run file, named in day order before any is written.
  std::vector<RunEntry> runs;
  std::vector<std::size_t> starts;  // each run's first row in the slice
  for (const TraceStore::DayPartition& part :
       TraceStore::DayPartitions(slice.timestamps, day_base_)) {
    char name[32];
    std::snprintf(name, sizeof(name), "run-%06zu.v2",
                  runs_.size() + runs.size());
    runs.push_back({part.day, part.end - part.begin, name});
    starts.push_back(part.begin);
  }

  // The days' run files are independent: one task each, with its own
  // scratch. Every task runs to completion, and the earliest day's error
  // wins, so the message does not depend on which task failed first.
  std::vector<std::exception_ptr> errors(runs.size());
  RunTasks(pool, runs.size(), [&](std::size_t i) {
    try {
      V2RunScratch scratch;
      WriteColumnarRun(dir_ / runs[i].file, slice, starts[i],
                       starts[i] + static_cast<std::size_t>(runs[i].rows),
                       day_base_, scratch);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  });
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);

  last_user_ = *hi;
  records_ += slice.size();
  runs_.insert(runs_.end(), std::make_move_iterator(runs.begin()),
               std::make_move_iterator(runs.end()));
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
    if (std::adjacent_find(tables[i].begin(), tables[i].end(),
                           std::greater_equal<>()) != tables[i].end())
      throw ParseError("partition user table is not ascending: " +
                       r.path.string());
  }

  // Groups: the run list cut wherever the day stops strictly rising. A
  // group's user table is the sorted union of its runs' tables; the groups
  // must hold disjoint, ascending user ranges, so the global table — the
  // ascending-original-id dense remap a resident TraceStore would assign —
  // is their concatenation.
  for (std::size_t i = 0; i < t.runs_.size(); ++i) {
    if (i == 0 || t.runs_[i].day <= t.runs_[i - 1].day)
      t.groups_.push_back({i, i, 0, 0});
    t.groups_.back().end_run = i + 1;
  }
  std::vector<std::uint64_t> ids;
  for (Group& g : t.groups_) {
    ids.clear();
    for (std::size_t i = g.first_run; i < g.end_run; ++i)
      ids.insert(ids.end(), tables[i].begin(), tables[i].end());
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    if (!ids.empty() && !t.user_ids_.empty() &&
        ids.front() <= t.user_ids_.back())
      throw ParseError("partitioned trace runs from " +
                       std::to_string(g.first_run) +
                       " on repeat or precede earlier users: " +
                       dir.string());
    g.user_begin = t.user_ids_.size();
    t.user_ids_.insert(t.user_ids_.end(), ids.begin(), ids.end());
    g.user_end = t.user_ids_.size();
    if (g.user_end > UINT32_MAX)
      throw ParseError("partitioned trace has too many users: " +
                       dir.string());
    // Run and group tables both ascend, so one forward walk maps each id.
    for (std::size_t i = g.first_run; i < g.end_run; ++i) {
      Run& r = t.runs_[i];
      r.local_to_global.reserve(tables[i].size());
      std::size_t j = g.user_begin;
      for (const std::uint64_t id : tables[i]) {
        while (t.user_ids_[j] < id) ++j;
        r.local_to_global.push_back(static_cast<std::uint32_t>(j));
      }
      tables[i] = std::vector<std::uint64_t>();  // release as we go
    }
  }
  return t;
}

void PartitionedTrace::ReadGroup(std::size_t g, std::size_t block_rows,
                                 const BlockSink& sink) const {
  const Group& group = groups_.at(g);
  std::uint64_t longest = 0;
  for (std::size_t i = group.first_run; i < group.end_run; ++i)
    longest = std::max(longest, runs_[i].rows);
  const auto cap = static_cast<std::size_t>(std::min<std::uint64_t>(
      longest, std::max<std::size_t>(block_rows, 1)));
  std::vector<std::int64_t> ts(cap);
  std::vector<std::uint8_t> dev(cap);
  std::vector<std::uint64_t> dev_id(cap);
  std::vector<std::uint32_t> user(cap);
  std::vector<std::uint8_t> req(cap);
  std::vector<std::uint8_t> dir(cap);
  std::vector<std::uint64_t> vol(cap);

  for (std::size_t i = group.first_run; i < group.end_run; ++i) {
    const Run& r = runs_[i];
    if (r.rows == 0) continue;
    std::ifstream in(r.path, std::ios::binary);
    if (!in) throw ParseError("cannot open partition: " + r.path.string());
    std::uint64_t first = 0;
    std::size_t n = 0;
    // Rows [first, first + n) of column `col` into the front of `column`.
    const auto read = [&](std::size_t col, auto& column) {
      const std::size_t width = sizeof(column[0]);
      in.seekg(static_cast<std::streamoff>(r.col_offset[col] + first * width));
      in.read(reinterpret_cast<char*>(column.data()),
              static_cast<std::streamsize>(n * width));
      if (!in) throw ParseError("truncated columnar trace: " + r.path.string());
      return std::span(std::as_const(column)).first(n);
    };
    for (; first < r.rows; first += n) {
      n = static_cast<std::size_t>(
          std::min<std::uint64_t>(r.rows - first, cap));
      TraceRowBlock b;
      b.timestamps = read(0, ts);
      b.device_types = read(1, dev);
      b.device_ids = read(2, dev_id);
      (void)read(3, user);
      for (std::size_t k = 0; k < n; ++k) {
        if (user[k] >= r.local_to_global.size())
          throw ParseError("bad user index in partition: " + r.path.string());
        user[k] = r.local_to_global[user[k]];
      }
      b.users = std::span(std::as_const(user)).first(n);
      b.request_types = read(4, req);
      b.directions = read(5, dir);
      b.data_volumes = read(6, vol);
      sink(r.day, b);
    }
  }
}

}  // namespace mcloud
