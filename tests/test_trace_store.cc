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
#include <vector>

#include "analysis/sessionizer.h"
#include "analysis/stream_engine.h"
#include "analysis/usage_patterns.h"
#include "analysis/workload_timeseries.h"
#include "trace/filters.h"
#include "trace/log_io.h"
#include "trace/log_record.h"
#include "trace/partitioned_trace.h"
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

TEST(ColumnarIo, RoundTripAllColumns) {
  const auto records = MixedTrace();
  const auto path = TempPath("trace_store_roundtrip.v2");
  WriteColumnarTrace(path, TraceStore::FromRecords(records));

  const auto store = ReadColumnarTrace(path);
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

  const auto store = ReadColumnarTrace(path, kAnalysisColumns);
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
  EXPECT_THROW((void)ReadColumnarTrace(v1), ParseError);
  std::filesystem::remove(v1);

  // Truncation anywhere in the column data is detected up front.
  const auto v2 = TempPath("trace_store_trunc.v2");
  WriteColumnarTrace(v2, TraceStore::FromRecords(records));
  const auto full = std::filesystem::file_size(v2);
  std::filesystem::resize_file(v2, full - 16);
  EXPECT_THROW((void)ReadColumnarTrace(v2), ParseError);
  std::filesystem::resize_file(v2, 4);  // shorter than the header
  EXPECT_THROW((void)ReadColumnarTrace(v2), ParseError);
  std::filesystem::remove(v2);
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
  ThreadPool pool(1);
  const analysis::FusedRowPassResult row = row_pass.TakeResult();
  const analysis::FusedPerUserResult per_user = per_user_pass.Finish(pool);

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
