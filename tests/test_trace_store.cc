// Tests for the columnar TraceStore and the v2 columnar binary format:
// dense user remapping, day partitions, AoS round-trips, selective column
// reads, corrupt-file handling, and the streaming analysis passes checked
// stage by stage against the plain per-stage functions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/session_stats.h"
#include "analysis/sessionizer.h"
#include "analysis/stream_engine.h"
#include "analysis/usage_patterns.h"
#include "analysis/workload_timeseries.h"
#include "core/pipeline.h"
#include "trace/filters.h"
#include "trace/log_io.h"
#include "trace/log_record.h"
#include "trace/partitioned_trace.h"
#include "trace/record_columns.h"
#include "trace/trace_store.h"
#include "util/parallel.h"
#include "util/timeutil.h"
#include "workload/generator.h"

namespace mcloud {
namespace {

LogRecord MakeRecord(UnixSeconds ts, std::uint64_t user, Direction dir,
                     RequestType type = RequestType::kChunkRequest,
                     DeviceType dev = DeviceType::kAndroid) {
  LogRecord r;
  r.timestamp = ts;
  r.device_type = dev;
  r.device_id = user * 10;
  r.user_id = user;
  r.request_type = type;
  r.direction = dir;
  r.data_volume = type == RequestType::kChunkRequest ? kChunkSize : 0;
  r.processing_time = 1.25;
  r.server_time = 0.1;
  r.avg_rtt = 0.089238;
  r.proxied = false;
  return r;
}

std::filesystem::path TempPath(const char* name) {
  return std::filesystem::temp_directory_path() / name;
}

/// A small mixed trace: sparse out-of-order user ids, all three device
/// types, both request types, rows spanning three calendar days around
/// kTraceStart (including one before it).
std::vector<LogRecord> MixedTrace() {
  std::vector<LogRecord> t;
  t.push_back(MakeRecord(kTraceStart - kDay / 2, 900, Direction::kStore,
                         RequestType::kFileOperation, DeviceType::kPc));
  t.push_back(MakeRecord(kTraceStart + 10, 7, Direction::kStore,
                         RequestType::kFileOperation));
  t.push_back(MakeRecord(kTraceStart + 20, 900, Direction::kRetrieve));
  t.push_back(MakeRecord(kTraceStart + 30, 42, Direction::kRetrieve,
                         RequestType::kChunkRequest, DeviceType::kIos));
  t.push_back(MakeRecord(kTraceStart + 40, 7, Direction::kStore));
  t.push_back(MakeRecord(kTraceStart + kDay + 5, 7, Direction::kRetrieve,
                         RequestType::kFileOperation, DeviceType::kPc));
  t.push_back(MakeRecord(kTraceStart + kDay + 6, 42, Direction::kStore));
  return t;
}

TEST(TraceStore, DenseRemapIsAscendingOriginalOrder) {
  const auto records = MixedTrace();
  const auto store = TraceStore::FromRecords(records);

  ASSERT_EQ(store.rows(), records.size());
  ASSERT_EQ(store.users(), 3u);
  // Dense ids are assigned in ascending original-id order regardless of
  // first-appearance order (900 appears first).
  EXPECT_EQ(store.user_ids()[0], 7u);
  EXPECT_EQ(store.user_ids()[1], 42u);
  EXPECT_EQ(store.user_ids()[2], 900u);
  for (std::size_t row = 0; row < store.rows(); ++row) {
    EXPECT_EQ(store.user_ids()[store.user_index()[row]],
              records[row].user_id);
  }
}

TEST(TraceStore, DayPartitionsTileTheTraceByCalendarDay) {
  const auto records = MixedTrace();
  const auto store = TraceStore::FromRecords(records);

  const auto parts = store.day_partitions();
  ASSERT_FALSE(parts.empty());
  std::uint32_t next = 0;
  for (const auto& p : parts) {
    EXPECT_EQ(p.begin, next);  // contiguous, in row order
    EXPECT_LT(p.begin, p.end);
    for (std::uint32_t row = p.begin; row < p.end; ++row) {
      const auto day = static_cast<std::int64_t>(
          std::floor(static_cast<double>(store.timestamps()[row] -
                                         store.day_base()) /
                     kDay));
      EXPECT_EQ(day, p.day);
    }
    next = p.end;
  }
  EXPECT_EQ(next, store.rows());
  EXPECT_LT(parts.front().day, 0);  // the pre-epoch row lands in day -1
}

TEST(TraceStore, ToRecordsRoundTripsTheAosTrace) {
  const auto records = MixedTrace();
  EXPECT_EQ(TraceStore::FromRecords(records).ToRecords(), records);
}

template <typename T>
std::vector<T> Copy(std::span<const T> column) {
  return {column.begin(), column.end()};
}

/// Column for column, index for index.
void ExpectSameStore(const TraceStore& got, const TraceStore& want) {
  EXPECT_EQ(got.columns_present(), want.columns_present());
  EXPECT_EQ(got.day_base(), want.day_base());
  EXPECT_EQ(Copy(got.timestamps()), Copy(want.timestamps()));
  EXPECT_EQ(Copy(got.device_types()), Copy(want.device_types()));
  EXPECT_EQ(Copy(got.device_ids()), Copy(want.device_ids()));
  EXPECT_EQ(Copy(got.user_index()), Copy(want.user_index()));
  EXPECT_EQ(Copy(got.user_ids()), Copy(want.user_ids()));
  EXPECT_EQ(Copy(got.request_types()), Copy(want.request_types()));
  EXPECT_EQ(Copy(got.directions()), Copy(want.directions()));
  EXPECT_EQ(Copy(got.data_volumes()), Copy(want.data_volumes()));
  EXPECT_EQ(Copy(got.processing_times()), Copy(want.processing_times()));
  EXPECT_EQ(Copy(got.server_times()), Copy(want.server_times()));
  EXPECT_EQ(Copy(got.avg_rtts()), Copy(want.avg_rtts()));
  EXPECT_EQ(Copy(got.proxied()), Copy(want.proxied()));
  ASSERT_EQ(got.day_partitions().size(), want.day_partitions().size());
  for (std::size_t i = 0; i < got.day_partitions().size(); ++i) {
    EXPECT_EQ(got.day_partitions()[i].day, want.day_partitions()[i].day);
    EXPECT_EQ(got.day_partitions()[i].begin, want.day_partitions()[i].begin);
    EXPECT_EQ(got.day_partitions()[i].end, want.day_partitions()[i].end);
  }
}

/// ReadColumnarTrace inline; the same read on pools of 1 and 3 must give
/// the same store.
TraceStore ReadInlineAndOnPools(const std::filesystem::path& path,
                                std::uint32_t want) {
  TraceStore store = ReadColumnarTrace(path, want);
  for (const int threads : {1, 3}) {
    ThreadPool pool(threads);
    ExpectSameStore(ReadColumnarTrace(path, want, &pool), store);
  }
  return store;
}

/// The ParseError message of reading `path` inline; the reads on pools of
/// 1 and 3 must fail with the same message.
std::string ReadErrorInlineAndOnPools(const std::filesystem::path& path) {
  const auto error = [&](ThreadPool* pool) -> std::string {
    try {
      (void)ReadColumnarTrace(path, kAllColumns, pool);
    } catch (const ParseError& e) {
      return e.what();
    }
    return "";
  };
  const std::string message = error(nullptr);
  for (const int threads : {1, 3}) {
    ThreadPool pool(threads);
    EXPECT_EQ(error(&pool), message) << "threads=" << threads;
  }
  return message;
}

TEST(ColumnarIo, RoundTripAllColumns) {
  const auto records = MixedTrace();
  const auto path = TempPath("trace_store_roundtrip.v2");
  WriteColumnarTrace(path, TraceStore::FromRecords(records));

  const auto store = ReadInlineAndOnPools(path, kAllColumns);
  EXPECT_EQ(store.columns_present(), kAllColumns);
  const auto back = store.ToRecords();
  ASSERT_EQ(back.size(), records.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].timestamp, records[i].timestamp);
    EXPECT_EQ(back[i].user_id, records[i].user_id);
    EXPECT_EQ(back[i].device_id, records[i].device_id);
    EXPECT_EQ(back[i].device_type, records[i].device_type);
    EXPECT_EQ(back[i].request_type, records[i].request_type);
    EXPECT_EQ(back[i].direction, records[i].direction);
    EXPECT_EQ(back[i].data_volume, records[i].data_volume);
    EXPECT_EQ(back[i].proxied, records[i].proxied);
    // Times travel as integer microseconds, like the v1 format.
    EXPECT_DOUBLE_EQ(back[i].processing_time, records[i].processing_time);
    EXPECT_DOUBLE_EQ(back[i].server_time, records[i].server_time);
    EXPECT_DOUBLE_EQ(back[i].avg_rtt, records[i].avg_rtt);
  }
  std::filesystem::remove(path);
}

TEST(ColumnarIo, SelectiveReadSkipsColumnsAndZeroFills) {
  const auto records = MixedTrace();
  const auto path = TempPath("trace_store_subset.v2");
  WriteColumnarTrace(path, TraceStore::FromRecords(records));

  const auto store = ReadInlineAndOnPools(path, kAnalysisColumns);
  EXPECT_TRUE(store.has(kAnalysisColumns));
  EXPECT_FALSE(store.has(kColProcessingTime));
  EXPECT_FALSE(store.has(kColProxied));
  EXPECT_TRUE(store.processing_times().empty());

  // Loaded columns match; absent ones read back as zeros.
  const auto back = store.ToRecords();
  ASSERT_EQ(back.size(), records.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].timestamp, records[i].timestamp);
    EXPECT_EQ(back[i].user_id, records[i].user_id);
    EXPECT_EQ(back[i].device_id, records[i].device_id);
    EXPECT_EQ(back[i].device_type, records[i].device_type);
    EXPECT_EQ(back[i].request_type, records[i].request_type);
    EXPECT_EQ(back[i].direction, records[i].direction);
    EXPECT_EQ(back[i].data_volume, records[i].data_volume);
    EXPECT_EQ(back[i].processing_time, 0.0);
    EXPECT_EQ(back[i].server_time, 0.0);
    EXPECT_EQ(back[i].avg_rtt, 0.0);
    EXPECT_FALSE(back[i].proxied);
  }
  std::filesystem::remove(path);
}

TEST(ColumnarIo, SniffsTheMagic) {
  const auto records = MixedTrace();
  const auto v2 = TempPath("trace_store_sniff.v2");
  const auto v1 = TempPath("trace_store_sniff.v1bin");
  WriteColumnarTrace(v2, TraceStore::FromRecords(records));
  WriteBinaryTrace(v1, records);

  EXPECT_TRUE(IsColumnarTrace(v2));
  EXPECT_FALSE(IsColumnarTrace(v1));
  EXPECT_FALSE(IsColumnarTrace(TempPath("no_such_trace.v2")));

  const auto tiny = TempPath("trace_store_tiny.v2");
  std::ofstream(tiny) << "MC";  // shorter than the magic
  EXPECT_FALSE(IsColumnarTrace(tiny));

  std::filesystem::remove(v2);
  std::filesystem::remove(v1);
  std::filesystem::remove(tiny);
}

TEST(ColumnarIo, RejectsWrongFormatAndTruncation) {
  const auto records = MixedTrace();

  // A v1 file is not a v2 file.
  const auto v1 = TempPath("trace_store_bad.v1bin");
  WriteBinaryTrace(v1, records);
  EXPECT_NE(ReadErrorInlineAndOnPools(v1), "");
  std::filesystem::remove(v1);

  // Truncation anywhere in the column data is detected up front.
  const auto v2 = TempPath("trace_store_trunc.v2");
  WriteColumnarTrace(v2, TraceStore::FromRecords(records));
  const auto full = std::filesystem::file_size(v2);
  std::filesystem::resize_file(v2, full - 16);
  EXPECT_NE(ReadErrorInlineAndOnPools(v2), "");
  std::filesystem::resize_file(v2, 4);  // shorter than the header
  EXPECT_NE(ReadErrorInlineAndOnPools(v2), "");
  std::filesystem::remove(v2);
}

/// A v2 file of `records` whose bytes at `offset` are overwritten.
std::filesystem::path CorruptedV2(const char* name,
                                  const std::vector<LogRecord>& records,
                                  std::uint64_t offset,
                                  std::span<const char> bytes) {
  const auto path = TempPath(name);
  WriteColumnarTrace(path, TraceStore::FromRecords(records));
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return path;
}

TEST(ColumnarIo, InvalidRowsFailAlikeInlineAndOnPools) {
  const auto records = MixedTrace();
  const auto info_path = TempPath("trace_store_layout.v2");
  WriteColumnarTrace(info_path, TraceStore::FromRecords(records));
  const detail::V2FileInfo info = detail::ReadV2FileInfo(info_path);
  std::filesystem::remove(info_path);

  // A dense user index past the user table, in the last row.
  const std::uint32_t bad_user = 99;
  const auto user_path = CorruptedV2(
      "trace_store_bad_user.v2", records,
      info.ColumnOffset(kColUser) + (records.size() - 1) * sizeof(bad_user),
      std::span(reinterpret_cast<const char*>(&bad_user), sizeof(bad_user)));
  EXPECT_NE(ReadErrorInlineAndOnPools(user_path).find(
                "dense user index out of range"),
            std::string::npos);
  std::filesystem::remove(user_path);

  // A bad direction in row 0 and an unsorted timestamp in the last row:
  // the time-order check comes first, whichever shard sees which row.
  const auto both_path = CorruptedV2("trace_store_bad_rows.v2", records,
                                     info.ColumnOffset(kColDirection),
                                     std::span("\x07", 1));
  {
    const std::int64_t early = kTraceStart - 10 * kDay;
    std::fstream f(both_path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(info.ColumnOffset(kColTimestamp) +
                                        (records.size() - 1) * sizeof(early)));
    f.write(reinterpret_cast<const char*>(&early), sizeof(early));
  }
  EXPECT_NE(ReadErrorInlineAndOnPools(both_path).find(
                "trace must be time-sorted"),
            std::string::npos);
  std::filesystem::remove(both_path);
}

/// Build's error message inline, or "" when it builds; the same builder
/// built on pools of 1 and 3 must end the same way.
std::string BuildErrorInlineAndOnPools(const TraceStore::Builder& builder) {
  const auto error = [&](ThreadPool* pool) -> std::string {
    TraceStore::Builder b = builder;
    try {
      (void)std::move(b).Build(pool);
    } catch (const Error& e) {
      return e.what();
    }
    return "";
  };
  const std::string message = error(nullptr);
  for (const int threads : {1, 3}) {
    ThreadPool pool(threads);
    EXPECT_EQ(error(&pool), message) << "threads=" << threads;
  }
  return message;
}

TEST(TraceStore, BuildReportsTheFirstFailedCheckAtEveryPoolSize) {
  TraceStore::Builder b;
  for (int i = 0; i < 300; ++i) {
    b.Append(MakeRecord(kTraceStart + i, 1 + i % 5, Direction::kStore));
  }
  EXPECT_EQ(BuildErrorInlineAndOnPools(b), "");

  // A bad direction in the first shard, a bad device type in the last.
  TraceStore::Builder two = b;
  two.directions[2] = 9;
  two.device_types[297] = 5;
  const std::string device = BuildErrorInlineAndOnPools(two);
  EXPECT_NE(device.find("bad device type"), std::string::npos) << device;

  // Unsorted rows outrank every enum check, wherever they are.
  two.timestamps[290] = kTraceStart - kDay;
  const std::string order = BuildErrorInlineAndOnPools(two);
  EXPECT_NE(order.find("trace must be time-sorted"), std::string::npos)
      << order;
}

TEST(TraceStore, DayPartitionsSkipEmptyDays) {
  // Rows on days -1, 0, 2 and 5 of day_base; days 1, 3 and 4 are empty.
  std::vector<LogRecord> records;
  for (const std::int64_t day : {-1, 0, 2, 5}) {
    for (int i = 0; i < 3; ++i) {
      records.push_back(MakeRecord(kTraceStart + day * kDay + 1000 * i, 7,
                                   Direction::kStore));
    }
  }
  records.push_back(MakeRecord(kTraceStart + 6 * kDay - 1, 7,
                               Direction::kStore));  // last second of day 5
  const TraceStore store = TraceStore::FromRecords(records);

  // Reference: one calendar-day division per row.
  std::vector<TraceStore::DayPartition> want;
  for (std::uint32_t row = 0; row < store.rows(); ++row) {
    const std::int64_t day =
        FloorDayIndex(store.timestamps()[row] - store.day_base());
    if (want.empty() || want.back().day != day) {
      want.push_back({day, row, row});
    }
    want.back().end = row + 1;
  }
  const auto got = store.day_partitions();
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.size(), 4u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].day, want[i].day) << i;
    EXPECT_EQ(got[i].begin, want[i].begin) << i;
    EXPECT_EQ(got[i].end, want[i].end) << i;
  }
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// FNV-1a over the 8 little-endian bytes of `v`, one byte at a time.
std::uint64_t FnvBytes(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

/// TraceFingerprint by definition: every field widened to 8 bytes, times
/// as integer microseconds.
std::uint64_t ByteSerialFingerprint(const std::vector<LogRecord>& records) {
  std::uint64_t h = kFnvOffset;
  for (const LogRecord& r : records) {
    h = FnvBytes(h, static_cast<std::uint64_t>(r.timestamp));
    h = FnvBytes(h, static_cast<std::uint64_t>(r.device_type));
    h = FnvBytes(h, r.device_id);
    h = FnvBytes(h, r.user_id);
    h = FnvBytes(h, static_cast<std::uint64_t>(r.request_type));
    h = FnvBytes(h, static_cast<std::uint64_t>(r.direction));
    h = FnvBytes(h, r.data_volume);
    h = FnvBytes(h, static_cast<std::uint64_t>(
                        detail::ToMicros(r.processing_time)));
    h = FnvBytes(h,
                 static_cast<std::uint64_t>(detail::ToMicros(r.server_time)));
    h = FnvBytes(h, static_cast<std::uint64_t>(detail::ToMicros(r.avg_rtt)));
    h = FnvBytes(h, r.proxied ? 1 : 0);
  }
  return h;
}

TEST(Fingerprint, MatchesByteSerialFnvAtEveryValueWidth) {
  // 64-bit values with 0..8 significant bytes, only the high half set,
  // and all bits set (a negative int64).
  std::vector<std::uint64_t> values = {0};
  for (int bytes = 1; bytes <= 8; ++bytes) {
    values.push_back(std::uint64_t{1} << (8 * bytes - 1));  // top bit only
    values.push_back(~std::uint64_t{0} >> (64 - 8 * bytes));  // all bytes
  }
  values.push_back(0xdeadbeef00000000ULL);
  values.push_back(0x0000000100000000ULL);
  std::vector<LogRecord> records;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::uint64_t v = values[i];
    const std::uint64_t w = values[(i + 5) % values.size()];
    LogRecord r = MakeRecord(kTraceStart + static_cast<std::int64_t>(i),
                             1 + i % 3, Direction::kStore);
    r.device_id = v;
    r.user_id = w;
    r.data_volume = values[(i + 11) % values.size()];
    r.device_type = static_cast<DeviceType>(i % 3);
    r.proxied = i % 2 == 1;
    // Signed times: microsecond counts of every width and sign.
    r.processing_time = static_cast<double>(static_cast<std::int32_t>(v)) * 1e-6;
    r.server_time = -r.processing_time;
    r.avg_rtt = static_cast<double>(i) * -1234.5;
    records.push_back(r);
  }
  // Timestamps of every width and sign, in the AoS overload (the store
  // needs them sorted).
  std::vector<LogRecord> any_ts = records;
  for (std::size_t i = 0; i < any_ts.size(); ++i)
    any_ts[i].timestamp = static_cast<std::int64_t>(values[i]);

  EXPECT_EQ(TraceFingerprint(std::span<const LogRecord>(any_ts)),
            ByteSerialFingerprint(any_ts));
  EXPECT_EQ(TraceFingerprint(std::span<const LogRecord>(records)),
            ByteSerialFingerprint(records));
  EXPECT_EQ(TraceFingerprint(TraceStore::FromRecords(records)),
            ByteSerialFingerprint(records));
}

void ExpectSameSessions(const std::vector<analysis::Session>& got,
                        const std::vector<analysis::Session>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].user_id, want[i].user_id) << i;
    EXPECT_EQ(got[i].begin, want[i].begin) << i;
    EXPECT_EQ(got[i].end, want[i].end) << i;
    EXPECT_EQ(got[i].first_op, want[i].first_op) << i;
    EXPECT_EQ(got[i].last_op, want[i].last_op) << i;
    EXPECT_EQ(got[i].store_ops, want[i].store_ops) << i;
    EXPECT_EQ(got[i].retrieve_ops, want[i].retrieve_ops) << i;
    EXPECT_EQ(got[i].chunk_requests, want[i].chunk_requests) << i;
    EXPECT_EQ(got[i].store_volume, want[i].store_volume) << i;
    EXPECT_EQ(got[i].retrieve_volume, want[i].retrieve_volume) << i;
    EXPECT_EQ(got[i].mobile, want[i].mobile) << i;
  }
}

void ExpectSameUsage(const std::vector<analysis::UserUsage>& got,
                     const std::vector<analysis::UserUsage>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].user_id, want[i].user_id) << i;
    EXPECT_EQ(got[i].store_volume, want[i].store_volume) << i;
    EXPECT_EQ(got[i].retrieve_volume, want[i].retrieve_volume) << i;
    EXPECT_EQ(got[i].stored_files, want[i].stored_files) << i;
    EXPECT_EQ(got[i].retrieved_files, want[i].retrieved_files) << i;
    EXPECT_EQ(got[i].mobile_devices, want[i].mobile_devices) << i;
    EXPECT_EQ(got[i].uses_pc, want[i].uses_pc) << i;
  }
}

/// Stage-level reference check: the streaming passes, fed a store's day
/// partitions as the pipeline feeds them, against the plain per-stage
/// functions on the AoS trace and on its mobile slice.
void ExpectPassesMatchReference(const std::vector<LogRecord>& records) {
  constexpr Seconds kTau = 3600;
  constexpr int kDays = 7;
  const TraceStore store = TraceStore::FromRecords(records);
  analysis::StreamingRowPass row_pass(store.user_ids(), kTraceStart, kDays,
                                      store.day_base());
  analysis::StreamingPerUserPass per_user_pass(store.user_ids(), kTau);
  for (const TraceStore::DayPartition& part : store.day_partitions()) {
    const TraceRowBlock block = BlockOf(store, part.begin, part.end);
    row_pass.Consume(part.day, block);
    per_user_pass.Consume(block);
  }
  const analysis::FusedRowPassResult row = row_pass.TakeResult();
  const analysis::FusedPerUserResult per_user = per_user_pass.Finish();

  const std::vector<LogRecord> mobile = MobileOnly(records);
  const analysis::Sessionizer sessionizer(kTau);
  ExpectSameSessions(per_user.sessions, sessionizer.Sessionize(records));
  ExpectSameSessions(per_user.mobile_sessions, sessionizer.Sessionize(mobile));
  ExpectSameUsage(per_user.usage, analysis::BuildUserUsage(records));
  const auto mobile_usage = analysis::BuildUserUsage(mobile);
  ExpectSameUsage(per_user.mobile_usage, mobile_usage);
  EXPECT_EQ(per_user.mobile_users, mobile_usage.size());
  EXPECT_EQ(per_user.mobile_devices, CountDistinctDevices(mobile));

  const analysis::WorkloadTimeseries ts =
      analysis::BuildTimeseries(mobile, kTraceStart, kDays);
  ASSERT_EQ(row.timeseries.hours.size(), ts.hours.size());
  for (std::size_t h = 0; h < ts.hours.size(); ++h) {
    const analysis::HourBin& got = row.timeseries.hours[h];
    const analysis::HourBin& want = ts.hours[h];
    EXPECT_EQ(got.hour, want.hour);
    EXPECT_EQ(got.store_volume_bytes, want.store_volume_bytes) << h;
    EXPECT_EQ(got.retrieve_volume_bytes, want.retrieve_volume_bytes) << h;
    EXPECT_EQ(got.stored_files, want.stored_files) << h;
    EXPECT_EQ(got.retrieved_files, want.retrieved_files) << h;
  }
  EXPECT_EQ(row.intervals.Total(), analysis::InterOpIntervals(mobile).size());
  EXPECT_EQ(row.mobile_records, mobile.size());
  EXPECT_EQ(row.android_records,
            static_cast<std::size_t>(std::count_if(
                mobile.begin(), mobile.end(), [](const LogRecord& r) {
                  return r.device_type == DeviceType::kAndroid;
                })));
}

TEST(StreamingPasses, MatchReferenceStagesOnMixedTrace) {
  ExpectPassesMatchReference(MixedTrace());
}

TEST(StreamingPasses, MatchReferenceStagesOnGeneratedTrace) {
  workload::WorkloadConfig cfg;
  cfg.population.mobile_users = 200;
  cfg.population.pc_only_users = 60;
  cfg.seed = 7;
  const auto w = workload::WorkloadGenerator(cfg).Generate();
  ASSERT_FALSE(w.trace.empty());
  ExpectPassesMatchReference(w.trace);
}

// The report's Fig 5 bins and Fig 7 CDFs against the plain functions on
// the AoS trace: SessionSizeByOpCount over Sessionize(MobileOnly(trace)),
// and each group's RatioSample over BuildUserUsage(trace), counted.
TEST(StreamingPasses, ReportSessionSizesAndRatioCdfsMatchReference) {
  workload::WorkloadConfig cfg;
  cfg.population.mobile_users = 400;
  cfg.population.pc_only_users = 120;
  cfg.seed = 11;
  const auto w = workload::WorkloadGenerator(cfg).Generate();
  const core::FullReport report = core::AnalysisPipeline().Run(w.trace);

  using Type = analysis::Session::Type;
  const auto sessions =
      analysis::Sessionizer().Sessionize(MobileOnly(w.trace));
  const auto store = analysis::SessionSizeByOpCount(sessions, Type::kStoreOnly);
  ASSERT_FALSE(store.empty());
  EXPECT_EQ(report.store_session_sizes, store);
  EXPECT_EQ(report.retrieve_session_sizes,
            analysis::SessionSizeByOpCount(sessions, Type::kRetrieveOnly));

  using analysis::DeviceProfile;
  using analysis::RatioGroup;
  const auto usage = analysis::BuildUserUsage(w.trace);
  const auto counted = [](const std::vector<double>& log_ratios) {
    analysis::RatioCdf cdf;
    for (const double r : log_ratios) cdf.Add(r);
    return cdf;
  };
  const auto at = [&](RatioGroup g) {
    return report.ratio_cdfs[static_cast<std::size_t>(g)];
  };
  EXPECT_EQ(at(RatioGroup::kMobileAndPc),
            counted(analysis::RatioSample(usage, DeviceProfile::kMobileAndPc)));
  EXPECT_EQ(at(RatioGroup::kMobileOnly),
            counted(analysis::RatioSample(usage, DeviceProfile::kMobileOnly)));
  EXPECT_EQ(at(RatioGroup::kPcOnly),
            counted(analysis::RatioSample(usage, DeviceProfile::kPcOnly)));
  for (const auto& [group, devices] :
       {std::pair{RatioGroup::kOneDevicePlus, 1},
        std::pair{RatioGroup::kTwoDevicesPlus, 2},
        std::pair{RatioGroup::kThreeDevicesPlus, 3}}) {
    EXPECT_EQ(at(group), counted(analysis::RatioSampleByDevices(
                             usage, static_cast<std::size_t>(devices))))
        << devices << " devices";
  }
  EXPECT_GT(at(RatioGroup::kMobileOnly).users, 0u);
  EXPECT_GT(at(RatioGroup::kPcOnly).users, 0u);
}

TEST(StreamingPasses, UserRangesSplitTheUnrestrictedResult) {
  workload::WorkloadConfig cfg;
  cfg.population.mobile_users = 200;
  cfg.population.pc_only_users = 60;
  cfg.seed = 7;
  const TraceStore store = TraceStore::FromRecords(
      workload::WorkloadGenerator(cfg).Generate().trace);
  constexpr Seconds kTau = 3600;
  const auto walk = [&](analysis::UserRange users) {
    analysis::StreamingRowPass row(store.user_ids(), kTraceStart, 7,
                                   store.day_base(), users);
    analysis::StreamingPerUserPass per_user(store.user_ids(), kTau, users);
    for (const TraceStore::DayPartition& part : store.day_partitions()) {
      const TraceRowBlock block = BlockOf(store, part.begin, part.end);
      row.Consume(part.day, block);
      per_user.Consume(block);
    }
    return std::pair(row.TakeResult(), per_user.Finish());
  };
  const auto [all_rows, all_users] = walk({});

  // Three uneven ranges: each holds exactly its users' share of every
  // per-user result, and the row sums add up.
  const std::size_t cuts[] = {0, 17, 150, store.users()};
  std::size_t mobile_records = 0;
  std::uint64_t intervals = 0;
  std::vector<std::uint64_t> stored(all_rows.timeseries.hours.size(), 0);
  std::vector<analysis::Session> sessions;
  std::vector<analysis::Session> mobile_sessions;
  std::vector<analysis::UserUsage> usage;
  for (std::size_t r = 0; r + 1 < std::size(cuts); ++r) {
    const auto [rows, users] = walk({cuts[r], cuts[r + 1]});
    mobile_records += rows.mobile_records;
    intervals += rows.intervals.Total();
    for (std::size_t h = 0; h < stored.size(); ++h)
      stored[h] += rows.timeseries.hours[h].stored_files;
    sessions.insert(sessions.end(), users.sessions.begin(),
                    users.sessions.end());
    mobile_sessions.insert(mobile_sessions.end(),
                           users.mobile_sessions.begin(),
                           users.mobile_sessions.end());
    usage.insert(usage.end(), users.usage.begin(), users.usage.end());
    ASSERT_EQ(users.usage.size(), cuts[r + 1] - cuts[r]);
    EXPECT_EQ(users.usage.front().user_id, store.user_ids()[cuts[r]]);
  }
  EXPECT_EQ(mobile_records, all_rows.mobile_records);
  EXPECT_EQ(intervals, all_rows.intervals.Total());
  for (std::size_t h = 0; h < stored.size(); ++h)
    EXPECT_EQ(stored[h], all_rows.timeseries.hours[h].stored_files) << h;
  ExpectSameSessions(sessions, all_users.sessions);
  ExpectSameSessions(mobile_sessions, all_users.mobile_sessions);
  ExpectSameUsage(usage, all_users.usage);
}

TEST(EngineEquivalence, GenerateColumnarEmitsTheSameTrace) {
  workload::WorkloadConfig cfg;
  cfg.population.mobile_users = 120;
  cfg.population.pc_only_users = 40;
  cfg.seed = 9;
  const auto aos = workload::WorkloadGenerator(cfg).Generate();
  const auto columnar = workload::WorkloadGenerator(cfg).GenerateColumnar();

  EXPECT_EQ(columnar.users.size(), aos.users.size());
  EXPECT_EQ(columnar.trace.ToRecords(), aos.trace);
}

}  // namespace
}  // namespace mcloud
