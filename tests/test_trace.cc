// Tests for the trace layer: record serialization, CSV/binary IO, filters,
// anonymization, the CSV tokenizer, and partitioned traces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "trace/anonymizer.h"
#include "trace/filters.h"
#include "trace/log_io.h"
#include "trace/log_record.h"
#include "trace/partitioned_trace.h"
#include "trace/record_columns.h"
#include "trace/trace_store.h"
#include "util/csv.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/timeutil.h"

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

TEST(LogRecord, EnumStringsRoundTrip) {
  for (auto d : {DeviceType::kAndroid, DeviceType::kIos, DeviceType::kPc}) {
    EXPECT_EQ(DeviceTypeFromString(ToString(d)), d);
  }
  for (auto t : {RequestType::kFileOperation, RequestType::kChunkRequest}) {
    EXPECT_EQ(RequestTypeFromString(ToString(t)), t);
  }
  for (auto d : {Direction::kStore, Direction::kRetrieve}) {
    EXPECT_EQ(DirectionFromString(ToString(d)), d);
  }
  EXPECT_THROW((void)DeviceTypeFromString("blackberry"), ParseError);
  EXPECT_THROW((void)RequestTypeFromString(""), ParseError);
  EXPECT_THROW((void)DirectionFromString("up"), ParseError);
}

TEST(LogRecord, IsMobile) {
  EXPECT_TRUE(MakeRecord(0, 1, Direction::kStore).IsMobile());
  EXPECT_FALSE(MakeRecord(0, 1, Direction::kStore,
                          RequestType::kChunkRequest, DeviceType::kPc)
                   .IsMobile());
}

TEST(Csv, SplitAndJoin) {
  const auto fields = SplitCsvLine("a,b,,d");
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "");
  EXPECT_EQ(JoinCsvLine({"a", "b", "", "d"}), "a,b,,d");
  EXPECT_THROW((void)JoinCsvLine({"a,b"}), ParseError);
}

TEST(Csv, ParseHelpers) {
  EXPECT_EQ(ParseInt64("-42", "x"), -42);
  EXPECT_EQ(ParseUint64("42", "x"), 42u);
  EXPECT_DOUBLE_EQ(ParseDouble("2.5", "x"), 2.5);
  EXPECT_THROW((void)ParseInt64("4x", "x"), ParseError);
  EXPECT_THROW((void)ParseUint64("-1", "x"), ParseError);
  EXPECT_THROW((void)ParseDouble("", "x"), ParseError);
}

TEST(LogIo, CsvLineRoundTrip) {
  const LogRecord r = MakeRecord(kTraceStart + 5, 7, Direction::kRetrieve);
  const LogRecord back = FromCsvLine(ToCsvLine(r));
  EXPECT_EQ(back, r);
}

TEST(LogIo, CsvLineRejectsBadFieldCount) {
  EXPECT_THROW((void)FromCsvLine("1,2,3"), ParseError);
}

TEST(LogIo, CsvFileRoundTrip) {
  std::vector<LogRecord> records;
  for (int i = 0; i < 100; ++i) {
    records.push_back(MakeRecord(kTraceStart + i, i % 7 + 1,
                                 i % 2 ? Direction::kStore
                                       : Direction::kRetrieve));
  }
  const auto path = TempPath("mcloud_test_trace.csv");
  WriteCsvTrace(path, records);
  const auto back = ReadCsvTrace(path);
  EXPECT_EQ(back, records);
  std::filesystem::remove(path);
}

TEST(LogIo, CsvHeaderValidated) {
  const auto path = TempPath("mcloud_bad_header.csv");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("not,a,header\n", f);
    std::fclose(f);
  }
  EXPECT_THROW((void)ReadCsvTrace(path), ParseError);
  std::filesystem::remove(path);
}

TEST(LogIo, BinaryFileRoundTrip) {
  std::vector<LogRecord> records;
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    LogRecord r = MakeRecord(kTraceStart + i, rng.UniformInt(50) + 1,
                             Direction::kStore);
    r.proxied = rng.Bernoulli(0.1);
    r.avg_rtt = rng.Uniform(0.01, 2.0);
    records.push_back(r);
  }
  const auto path = TempPath("mcloud_test_trace.bin");
  WriteBinaryTrace(path, records);
  const auto back = ReadBinaryTrace(path);
  ASSERT_EQ(back.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(back[i].timestamp, records[i].timestamp);
    EXPECT_EQ(back[i].user_id, records[i].user_id);
    EXPECT_NEAR(back[i].avg_rtt, records[i].avg_rtt, 1e-6);
  }
  std::filesystem::remove(path);
}

TEST(LogIo, BinaryRejectsGarbage) {
  const auto path = TempPath("mcloud_garbage.bin");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("garbage!", f);
    std::fclose(f);
  }
  EXPECT_THROW((void)ReadBinaryTrace(path), ParseError);

  // A valid magic whose header claims 2^60 records in a 16-byte file: the
  // count is checked against the file size before anything is reserved.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    const std::uint64_t count = std::uint64_t{1} << 60;
    out.write("MCLOGv01", 8);
    out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  }
  EXPECT_THROW((void)ReadBinaryTrace(path), ParseError);
  std::filesystem::remove(path);
}

TEST(LogIo, ReadTraceReadsEveryFormat) {
  // Times are exact in microseconds, so every format round-trips them.
  std::vector<LogRecord> records;
  for (int i = 0; i < 200; ++i) {
    LogRecord r = MakeRecord(kTraceStart + i, i % 5 + 1,
                             i % 3 ? Direction::kStore : Direction::kRetrieve);
    r.processing_time = 1.5;
    r.server_time = 0.25;
    r.avg_rtt = 0.125;
    r.proxied = i % 4 == 0;
    records.push_back(r);
  }
  const auto csv = TempPath("mcloud_read_trace.csv");
  const auto v1 = TempPath("mcloud_read_trace.v1");
  const auto v2 = TempPath("mcloud_read_trace.v2");
  const auto bin = TempPath("mcloud_read_trace.bin");
  WriteCsvTrace(csv, records);
  WriteBinaryTrace(v1, records);
  WriteColumnarTrace(v2, TraceStore::FromRecords(records));
  WriteTrace(bin, records);
  EXPECT_EQ(ReadTrace(csv), records);
  EXPECT_EQ(ReadTrace(v1), records);
  EXPECT_EQ(ReadTrace(v2), records);

  // WriteTrace writes v2 for any name but .csv.
  EXPECT_TRUE(IsColumnarTrace(bin));
  std::ifstream a(v2, std::ios::binary), b(bin, std::ios::binary);
  EXPECT_TRUE(std::equal(std::istreambuf_iterator<char>(a), {},
                         std::istreambuf_iterator<char>(b), {}));

  // A directory is not a trace file; the error names it.
  const auto dir = TempPath("mcloud_read_trace_dir");
  std::filesystem::create_directories(dir);
  try {
    (void)ReadTrace(dir);
    ADD_FAILURE() << "ReadTrace accepted a directory";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(dir.string()), std::string::npos)
        << e.what();
  }
  for (const auto& p : {csv, v1, v2, bin, dir}) std::filesystem::remove(p);
}

TEST(Filters, SliceByDeviceProxyAndType) {
  std::vector<LogRecord> trace;
  trace.push_back(MakeRecord(1, 1, Direction::kStore,
                             RequestType::kFileOperation));
  trace.push_back(MakeRecord(2, 1, Direction::kStore));
  LogRecord pc = MakeRecord(3, 2, Direction::kRetrieve,
                            RequestType::kChunkRequest, DeviceType::kPc);
  trace.push_back(pc);
  LogRecord proxied = MakeRecord(4, 3, Direction::kStore);
  proxied.proxied = true;
  trace.push_back(proxied);

  EXPECT_EQ(MobileOnly(trace).size(), 3u);
  EXPECT_EQ(Unproxied(trace).size(), 3u);
  EXPECT_EQ(ChunksOnly(trace).size(), 3u);
  EXPECT_EQ(FileOperationsOnly(trace).size(), 1u);
  EXPECT_EQ(CountDistinctUsers(trace), 3u);
  EXPECT_EQ(CountDistinctDevices(trace), 3u);
}

TEST(Filters, GroupByUserPreservesOrder) {
  std::vector<LogRecord> trace;
  for (int i = 0; i < 10; ++i)
    trace.push_back(MakeRecord(kTraceStart + i, i % 2 + 1, Direction::kStore));
  const auto groups = GroupByUser(trace);
  ASSERT_EQ(groups.size(), 2u);
  for (const auto& [user, records] : groups) {
    for (std::size_t i = 1; i < records.size(); ++i)
      EXPECT_LT(records[i - 1].timestamp, records[i].timestamp);
  }
}

TEST(Filters, DevicesPerUser) {
  std::vector<LogRecord> trace;
  LogRecord a = MakeRecord(1, 1, Direction::kStore);
  a.device_id = 100;
  LogRecord b = MakeRecord(2, 1, Direction::kStore);
  b.device_id = 101;
  LogRecord c = MakeRecord(3, 1, Direction::kRetrieve,
                           RequestType::kChunkRequest, DeviceType::kPc);
  trace = {a, b, c};
  const auto per_user = DevicesPerUser(trace);
  ASSERT_EQ(per_user.size(), 1u);
  EXPECT_EQ(per_user.at(1).mobile_devices, 2u);
  EXPECT_TRUE(per_user.at(1).uses_pc);
}

TEST(Anonymizer, DeterministicAndKeyDependent) {
  const Anonymizer a("key-1");
  const Anonymizer b("key-2");
  EXPECT_EQ(a.MapId(42), a.MapId(42));
  EXPECT_NE(a.MapId(42), a.MapId(43));
  EXPECT_NE(a.MapId(42), b.MapId(42));
}

TEST(Anonymizer, PreservesJoins) {
  // Two records of the same user must map to the same pseudonym, so joins
  // across traces survive anonymization.
  const Anonymizer anon("secret");
  const LogRecord r1 = MakeRecord(1, 7, Direction::kStore);
  const LogRecord r2 = MakeRecord(2, 7, Direction::kRetrieve);
  const LogRecord a1 = anon.Apply(r1);
  const LogRecord a2 = anon.Apply(r2);
  EXPECT_EQ(a1.user_id, a2.user_id);
  EXPECT_NE(a1.user_id, r1.user_id);
  // Non-ID fields are untouched.
  EXPECT_EQ(a1.timestamp, r1.timestamp);
  EXPECT_EQ(a1.data_volume, r1.data_volume);
}

TEST(Timeutil, DayAndHourIndexing) {
  EXPECT_EQ(DayIndex(kTraceStart), 0);
  EXPECT_EQ(DayIndex(kTraceStart + 86399), 0);
  EXPECT_EQ(DayIndex(kTraceStart + 86400), 1);
  EXPECT_EQ(HourIndex(kTraceStart + 3600 * 30), 30);
  EXPECT_EQ(HourOfDay(kTraceStart + 3600 * 30), 6);
  EXPECT_EQ(DayLabel(0), "Mon");
  EXPECT_EQ(DayLabel(6), "Sun");
  EXPECT_EQ(DayLabel(7), "Mon");
  EXPECT_EQ(TimestampLabel(kTraceStart + kDay + 3661), "Tue 01:01:01");
}

// ------------------------------------------------------- PartitionedTrace

/// Deterministic emission spanning `days` calendar days with heavy
/// timestamp collisions, in generator order (user-major). data_volume is a
/// serial number so merge stability is observable on otherwise-equal keys.
std::vector<LogRecord> MakeEmission(std::size_t n, int days) {
  std::vector<LogRecord> all;
  Rng rng(99);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t user = i * 40 / n + 1;  // user-ordered chunks
    const auto ts = kTraceStart +
                    static_cast<UnixSeconds>(rng.UniformInt(
                        static_cast<std::uint64_t>(days) * kDay / 16)) *
                        16;
    LogRecord r = MakeRecord(ts, user, Direction::kStore);
    r.device_type = static_cast<DeviceType>(i % 3);
    r.device_id = user * 10 + i % 2;
    r.data_volume = i;
    all.push_back(r);
  }
  return all;
}

/// Split `all` into `spills` contiguous slices, stable-sort each, and
/// write them as a partitioned trace — exactly the generator's spill
/// discipline — with each slice's runs written on `pool`.
void WritePartitioned(const std::filesystem::path& dir,
                      std::vector<LogRecord> all, std::size_t spills,
                      ThreadPool* pool = nullptr) {
  std::filesystem::create_directories(dir);
  PartitionedTraceWriter writer(dir, kTraceStart);
  const std::size_t per = (all.size() + spills - 1) / spills;
  for (std::size_t s = 0; s < spills; ++s) {
    const std::size_t begin = std::min(s * per, all.size());
    const std::size_t end = std::min(begin + per, all.size());
    std::stable_sort(all.begin() + static_cast<std::ptrdiff_t>(begin),
                     all.begin() + static_cast<std::ptrdiff_t>(end),
                     LogRecordTimeOrder);
    RecordColumns slice;
    for (std::size_t i = begin; i < end; ++i) slice.Append(all[i]);
    writer.WriteSortedSlice(slice, pool);
  }
  writer.Finish();
}

/// Every row of group `g`, with original user ids, in read order. Checks
/// each block's day against its rows' timestamps on the way.
std::vector<LogRecord> ReadGroupRecords(const PartitionedTrace& trace,
                                        std::size_t g,
                                        std::size_t block_rows) {
  std::vector<LogRecord> rows;
  trace.ReadGroup(g, block_rows, [&](std::int64_t day, const TraceRowBlock& b) {
    EXPECT_LE(b.rows(), block_rows);
    for (std::size_t i = 0; i < b.rows(); ++i) {
      LogRecord r;
      r.timestamp = b.timestamps[i];
      r.device_type = static_cast<DeviceType>(b.device_types[i]);
      r.device_id = b.device_ids[i];
      EXPECT_GE(b.users[i], trace.groups()[g].user_begin);
      EXPECT_LT(b.users[i], trace.groups()[g].user_end);
      r.user_id = trace.user_ids()[b.users[i]];
      r.request_type = static_cast<RequestType>(b.request_types[i]);
      r.direction = static_cast<Direction>(b.directions[i]);
      r.data_volume = b.data_volumes[i];
      rows.push_back(r);
      EXPECT_EQ(day, DayIndex(r.timestamp));
    }
  });
  return rows;
}

TEST(PartitionedTrace, EachGroupIsOneSpillInTimeOrder) {
  const auto dir = TempPath("mcloud_part_roundtrip");
  std::filesystem::remove_all(dir);
  const std::vector<LogRecord> all = MakeEmission(18'000, 3);
  constexpr std::size_t kSpills = 4;
  WritePartitioned(dir, all, kSpills);

  const PartitionedTrace trace = PartitionedTrace::Open(dir);
  EXPECT_EQ(trace.rows(), all.size());
  EXPECT_GT(trace.run_count(), kSpills);  // every spill split across 3 days
  ASSERT_EQ(trace.groups().size(), kSpills);

  // Small blocks: several per run, and one buffer reused across runs of
  // different lengths, which must not change the rows. Each group is its
  // spill exactly as written, stable-sorted (the serial number in
  // data_volume proves ties kept emission order), and the groups'
  // concatenated user tables are the global one.
  const auto per = static_cast<std::ptrdiff_t>(all.size() / kSpills);
  std::size_t users = 0;
  for (std::size_t g = 0; g < kSpills; ++g) {
    const auto first = all.begin() + static_cast<std::ptrdiff_t>(g) * per;
    std::vector<LogRecord> spill(first, first + per);
    std::stable_sort(spill.begin(), spill.end(), LogRecordTimeOrder);
    for (LogRecord& r : spill) {  // the fields analysis does not read
      r.processing_time = r.server_time = r.avg_rtt = 0;
      r.proxied = false;
    }
    EXPECT_EQ(ReadGroupRecords(trace, g, 1'000), spill) << "group " << g;
    EXPECT_EQ(trace.groups()[g].user_begin, users);
    users = trace.groups()[g].user_end;
  }
  EXPECT_EQ(users, trace.users());
  const auto ids = trace.user_ids();
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end(), std::greater_equal<>()),
            ids.end());  // strictly ascending
  std::filesystem::remove_all(dir);
}

TEST(PartitionedTraceWriter, RejectsSlicesThatOverlapInUsers) {
  const auto dir = TempPath("mcloud_part_overlap");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto slice = [](std::uint64_t first_user, std::uint64_t last_user) {
    RecordColumns s;
    for (std::uint64_t u = first_user; u <= last_user; ++u)
      s.Append(MakeRecord(kTraceStart + static_cast<UnixSeconds>(u), u,
                          Direction::kStore));
    return s;
  };
  PartitionedTraceWriter writer(dir, kTraceStart);
  writer.WriteSortedSlice(slice(1, 5));
  writer.WriteSortedSlice(RecordColumns());  // empty: a no-op
  EXPECT_THROW(writer.WriteSortedSlice(slice(5, 9)), Error);   // shares 5
  EXPECT_THROW(writer.WriteSortedSlice(slice(2, 3)), Error);   // below
  EXPECT_EQ(writer.run_files(), 1u);  // a rejected slice writes nothing
  writer.WriteSortedSlice(slice(6, 9));
  writer.Finish();
  EXPECT_EQ(PartitionedTrace::Open(dir).groups().size(), 2u);
  std::filesystem::remove_all(dir);
}

/// Every file of `dir` by name, with its bytes.
std::map<std::string, std::string> DirBytes(const std::filesystem::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(e.path(), std::ios::binary);
    files[e.path().filename().string()].assign(
        std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  return files;
}

// A slice's day runs are pool tasks: inline, on a pool of one and on a pool
// of three, the same slices give the same run files and MANIFEST, byte for
// byte.
TEST(PartitionedTraceWriter, PoolSizeDoesNotMoveTheBytes) {
  const std::vector<LogRecord> all = MakeEmission(24'000, 4);
  const auto dir = TempPath("mcloud_part_pooled");
  std::filesystem::remove_all(dir);
  WritePartitioned(dir, all, 4);
  const auto inline_bytes = DirBytes(dir);
  EXPECT_EQ(inline_bytes.size(), 4 * 4 + 1u);  // 4 spills x 4 days + MANIFEST
  EXPECT_EQ(PartitionedTrace::Open(dir).groups().size(), 4u);
  for (const int threads : {1, 3}) {
    std::filesystem::remove_all(dir);
    ThreadPool pool(threads);
    WritePartitioned(dir, all, 4, &pool);
    EXPECT_EQ(DirBytes(dir), inline_bytes) << threads << " threads";
  }
  std::filesystem::remove_all(dir);
}

// Two of one slice's runs cannot be written (directories hold their
// names). At every pool size the writer throws the earlier run's error,
// records none of the slice's runs, and no MANIFEST appears.
TEST(PartitionedTraceWriter, EarliestFailedRunWinsAtEveryPoolSize) {
  std::vector<LogRecord> all = MakeEmission(8'000, 4);
  std::stable_sort(all.begin(), all.end(), LogRecordTimeOrder);
  RecordColumns slice;
  for (const LogRecord& r : all) slice.Append(r);
  const auto dir = TempPath("mcloud_part_failed_runs");
  std::string inline_error;
  for (const int threads : {0, 1, 3}) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir / "run-000001.v2");
    std::filesystem::create_directories(dir / "run-000003.v2");
    std::optional<ThreadPool> pool;
    if (threads > 0) pool.emplace(threads);
    PartitionedTraceWriter writer(dir, kTraceStart);
    std::string what;
    try {
      writer.WriteSortedSlice(slice, pool ? &*pool : nullptr);
    } catch (const Error& e) {
      what = e.what();
    }
    EXPECT_NE(what.find("run-000001.v2"), std::string::npos) << what;
    if (threads == 0)
      inline_error = what;
    else
      EXPECT_EQ(what, inline_error) << threads << " threads";
    EXPECT_EQ(writer.run_files(), 0u);
    EXPECT_EQ(writer.records(), 0u);
    EXPECT_FALSE(std::filesystem::exists(dir / "MANIFEST"));
  }
  std::filesystem::remove_all(dir);
}

std::filesystem::path FirstRunFile(const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> runs;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    if (e.path().extension() == ".v2") runs.push_back(e.path());
  std::sort(runs.begin(), runs.end());
  EXPECT_FALSE(runs.empty());
  return runs.front();
}

TEST(PartitionedTrace, OpenRejectsMissingRunFile) {
  const auto dir = TempPath("mcloud_part_missing");
  std::filesystem::remove_all(dir);
  WritePartitioned(dir, MakeEmission(2'000, 2), 2);
  std::filesystem::remove(FirstRunFile(dir));
  EXPECT_THROW((void)PartitionedTrace::Open(dir), ParseError);
  std::filesystem::remove_all(dir);
}

TEST(PartitionedTrace, OpenRejectsTruncatedRunFile) {
  const auto dir = TempPath("mcloud_part_truncated");
  std::filesystem::remove_all(dir);
  WritePartitioned(dir, MakeEmission(2'000, 2), 2);
  const auto run = FirstRunFile(dir);
  // Header and user table intact, column payload short: exactly the
  // failure mode a killed spill leaves behind.
  std::filesystem::resize_file(run, std::filesystem::file_size(run) - 9);
  EXPECT_THROW((void)PartitionedTrace::Open(dir), ParseError);
  std::filesystem::remove_all(dir);
}

TEST(PartitionedTrace, OpenRejectsManifestWithoutEndSentinel) {
  const auto dir = TempPath("mcloud_part_noend");
  std::filesystem::remove_all(dir);
  WritePartitioned(dir, MakeEmission(2'000, 2), 2);
  std::string manifest;
  {
    std::ifstream in(dir / "MANIFEST");
    std::string line;
    while (std::getline(in, line))
      if (line != "end") manifest += line + "\n";
  }
  std::ofstream(dir / "MANIFEST", std::ios::trunc) << manifest;
  EXPECT_THROW((void)PartitionedTrace::Open(dir), ParseError);

  // A run count the entries do not back: the list ends early, and nothing
  // is sized from the declared count.
  for (const char* runs : {"4000000000000000000", "100000000000"}) {
    std::string crafted;
    std::istringstream lines(manifest + "end\n");
    std::string line;
    while (std::getline(lines, line))
      crafted += (line.rfind("runs ", 0) == 0 ? "runs " + std::string(runs)
                                              : line) +
                 "\n";
    std::ofstream(dir / "MANIFEST", std::ios::trunc) << crafted;
    EXPECT_THROW((void)PartitionedTrace::Open(dir), ParseError) << runs;
  }
  std::filesystem::remove_all(dir);
}

TEST(PartitionedTrace, OpenRejectsUnsortedRunUserTable) {
  const auto dir = TempPath("mcloud_part_table");
  std::filesystem::remove_all(dir);
  WritePartitioned(dir, MakeEmission(2'000, 2), 2);
  // Swap the first two ids of a run's user table, which follows the
  // 40-byte header: each run's remap to global ids needs its table
  // ascending.
  {
    std::fstream f(FirstRunFile(dir),
                   std::ios::in | std::ios::out | std::ios::binary);
    std::uint64_t ids[2] = {};
    f.seekg(40);
    f.read(reinterpret_cast<char*>(ids), sizeof(ids));
    ASSERT_LT(ids[0], ids[1]);
    std::swap(ids[0], ids[1]);
    f.seekp(40);
    f.write(reinterpret_cast<const char*>(ids), sizeof(ids));
    ASSERT_TRUE(f);
  }
  EXPECT_THROW((void)PartitionedTrace::Open(dir), ParseError);
  std::filesystem::remove_all(dir);
}

TEST(PartitionedTrace, OpenRejectsRunRowCountMismatch) {
  const auto dir = TempPath("mcloud_part_rows");
  std::filesystem::remove_all(dir);
  WritePartitioned(dir, MakeEmission(2'000, 2), 2);
  std::string manifest;
  {
    std::ifstream in(dir / "MANIFEST");
    std::string line;
    bool bumped = false;
    while (std::getline(in, line)) {
      if (!bumped && line.rfind("run ", 0) == 0) {
        // Bump the row count of the first run entry.
        const auto last_space = line.find_last_of(' ');
        auto prev_space = line.find_last_of(' ', last_space - 1);
        const std::uint64_t rows =
            std::strtoull(line.c_str() + prev_space + 1, nullptr, 10);
        line = line.substr(0, prev_space + 1) + std::to_string(rows + 1) +
               line.substr(last_space);
        bumped = true;
      }
      manifest += line + "\n";
    }
    EXPECT_TRUE(bumped);
  }
  std::ofstream(dir / "MANIFEST", std::ios::trunc) << manifest;
  EXPECT_THROW((void)PartitionedTrace::Open(dir), ParseError);
  std::filesystem::remove_all(dir);
}

/// One MANIFEST run entry: day, rows and file name.
struct ManifestRun {
  std::int64_t day = 0;
  std::uint64_t rows = 0;
  std::string file;
};

/// A valid two-spill directory's run entries, cut into spills where the day
/// stops rising.
std::vector<std::vector<ManifestRun>> ReadSpills(
    const std::filesystem::path& dir) {
  std::vector<std::vector<ManifestRun>> spills;
  std::ifstream in(dir / "MANIFEST");
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string key;
    std::uint64_t seq = 0;
    ManifestRun r;
    if (!(ls >> key >> seq >> r.day >> r.rows >> r.file) || key != "run")
      continue;
    if (spills.empty() || r.day <= spills.back().back().day)
      spills.emplace_back();
    spills.back().push_back(r);
  }
  return spills;
}

/// Rewrite the MANIFEST to list `spills` in order, with fresh sequence
/// numbers and matching run and record counts: a well-formed MANIFEST
/// whose only fault is the order of its users.
void WriteManifest(const std::filesystem::path& dir,
                   const std::vector<std::vector<ManifestRun>>& spills) {
  std::string runs;
  std::size_t n = 0;
  std::uint64_t records = 0;
  for (const auto& spill : spills) {
    for (const ManifestRun& r : spill) {
      runs += "run " + std::to_string(n++) + " " + std::to_string(r.day) +
              " " + std::to_string(r.rows) + " " + r.file + "\n";
      records += r.rows;
    }
  }
  std::ofstream(dir / "MANIFEST", std::ios::trunc)
      << "MCLOUDPART v1\nday_base " << kTraceStart << "\nrecords " << records
      << "\nruns " << n << "\n"
      << runs << "end\n";
}

void ExpectOpenRejectsUserOrder(const std::filesystem::path& dir) {
  try {
    (void)PartitionedTrace::Open(dir);
    ADD_FAILURE() << "Open accepted groups that are not ascending in users";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("repeat or precede"),
              std::string::npos)
        << e.what();
  }
}

TEST(PartitionedTrace, OpenRejectsGroupsOutOfUserOrder) {
  const auto dir = TempPath("mcloud_part_order");
  std::filesystem::remove_all(dir);
  WritePartitioned(dir, MakeEmission(2'000, 2), 2);
  std::vector<std::vector<ManifestRun>> spills = ReadSpills(dir);
  ASSERT_EQ(spills.size(), 2u);
  WriteManifest(dir, spills);  // the rewrite alone is accepted
  EXPECT_EQ(PartitionedTrace::Open(dir).groups().size(), 2u);

  // The spills in descending user order.
  WriteManifest(dir, {spills[1], spills[0]});
  ExpectOpenRejectsUserOrder(dir);

  // The first spill's runs again under new sequence numbers: a third group
  // whose users the first already holds.
  WriteManifest(dir, {spills[0], spills[1], spills[0]});
  ExpectOpenRejectsUserOrder(dir);
  std::filesystem::remove_all(dir);
}

TEST(LogIo, V2FileInfoValidatesFullExpectedLength) {
  // Regression: a v2 file whose header and user table parse cleanly but
  // whose column payload is short must fail at ReadV2FileInfo — the
  // single truncation gate every partitioned-run open goes through.
  const auto path = TempPath("mcloud_v2_truncation.v2");
  std::vector<LogRecord> records;
  for (int i = 0; i < 500; ++i)
    records.push_back(MakeRecord(kTraceStart + i, 1 + i % 7,
                                 Direction::kStore));
  WriteColumnarTrace(path, TraceStore::FromRecords(records));

  const detail::V2FileInfo info = detail::ReadV2FileInfo(path);
  EXPECT_EQ(info.rows, 500u);

  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 1);
  EXPECT_THROW((void)detail::ReadV2FileInfo(path), ParseError);

  // A bare 40-byte header whose counts would wrap the expected length to
  // the header size: 2^61 users (x 8 bytes), then 2^61 rows (x 56 bytes
  // per all-columns row).
  for (const auto& [rows, users] :
       {std::pair<std::uint64_t, std::uint64_t>{0, std::uint64_t{1} << 61},
        {std::uint64_t{1} << 61, 0}}) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      const std::int64_t day_base = kTraceStart;
      const std::uint32_t mask = kAllColumns;
      const std::uint32_t reserved = 0;
      out.write("MCLOGv02", 8);
      out.write(reinterpret_cast<const char*>(&rows), sizeof(rows));
      out.write(reinterpret_cast<const char*>(&users), sizeof(users));
      out.write(reinterpret_cast<const char*>(&day_base), sizeof(day_base));
      out.write(reinterpret_cast<const char*>(&mask), sizeof(mask));
      out.write(reinterpret_cast<const char*>(&reserved), sizeof(reserved));
    }
    ASSERT_EQ(std::filesystem::file_size(path), 40u);
    EXPECT_THROW((void)detail::ReadV2FileInfo(path), ParseError);
    EXPECT_THROW((void)ReadColumnarTrace(path), ParseError);
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace mcloud
