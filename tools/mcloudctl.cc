// mcloudctl — command-line front door to the mcloud library.
//
//   mcloudctl generate  --users N [--pc N] [--seed S] [--threads N]
//                       [--anonymize KEY] [--faults] [--fail-rate R]
//                       [--loss-burst R] [--degraded R] [--hedge]
//                       [--out-of-core [--max-memory-mb M]] OUT
//   mcloudctl grow      --users N [--pc N] [--seed S] [--threads N]
//                       [--tau SECONDS] [--max-memory-mb M] OUT
//   mcloudctl analyze   TRACE [--tau SECONDS|auto] [--threads N]
//                       [--max-memory-mb M]
//   mcloudctl sessions  TRACE [--tau SECONDS] [--top N]
//   mcloudctl convert   IN OUT
//   mcloudctl anonymize IN OUT --key KEY
//   mcloudctl simulate  [--device android|ios|pc] [--direction store|retrieve]
//                       [--file-mb N] [--seed S] [--no-ssai] [--pace]
//   mcloudctl simulate  --fail-rate R [--loss-burst R] [--degraded R]
//                       [--hedge] [--no-retry] [--users N] [--seed S]
//                       [--threads N] [--shards K]
//   mcloudctl validate  [--users N] [--seed S] [--seeds K] [--threads N]
//                       [--flows N] [--shards K] [--json FILE]
//                       [--max-memory-mb M] [--spill-dir D]
//                       [--spec NAME] [--specs-dir D]
//   mcloudctl specs     [--specs-dir D]
//   mcloudctl conform   SPEC [--users N] [--seed S] [--threads N]
//                       [--max-memory-mb M] [--spill-dir D]
//                       [--specs-dir D] [--json FILE]
//   mcloudctl matrix    SPEC... [--grids A,B] [--connections A,B]
//                       [--chunks A,B] [--users N] [--seed S] [--threads N]
//                       [--shards K] [--json FILE]
//   mcloudctl help
//
// The scenario lab (DESIGN.md §13): `specs` lists the declarative workload
// specs shipped in specs/; `generate --spec` / `validate --spec` compile a
// spec into the generator instead of the default calibration; `conform`
// checks a spec against its own declared [targets]; `matrix` sweeps
// spec × fault grid × connection strategy × chunk policy through the
// sharded fleet and emits one JSON report whose per-cell fingerprints are
// byte-identical at every --threads.
//
// Trace files go through ReadTrace/WriteTrace (trace/log_io.h): every
// command writes CSV for a `.csv` name and the columnar v2 format for any
// other name, and reads v2 (by its magic), CSV (by `.csv`) or the legacy
// row-wise v1 format. `analyze` runs the full §3 pipeline and prints the
// findings report followed by its stage timings — on a columnar trace it
// loads only the analysis columns and never materializes row structs;
// `simulate` runs one chunked transfer through the TCP substrate and prints
// its per-chunk timeline, or — when any fault knob is given — a whole
// session fleet against the fault-injected service, printing the
// availability report.
//
// Out-of-core mode: `generate --out-of-core OUT` writes a *partitioned
// trace directory* (per-day sorted run files + MANIFEST, see
// trace/partitioned_trace.h) under a bounded emission buffer, and `analyze`
// streams such a directory through RunStreaming — same reports as the
// resident paths, at any --max-memory-mb.
//
// `grow OUT`, `validate` and `conform` walk each spill slice on the
// generator's pool as it seals (RunSlices) and read nothing back; grow
// writes the slices into OUT, validate and conform only into a given
// --spill-dir. Each command takes only its own flags (kCommands, parsed by
// tools::Parse); any other flag, or a value flag without its value, exits 2
// before any output.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/availability.h"
#include "analysis/sessionizer.h"
#include "cloud/fleet.h"
#include "cloud/storage_service.h"
#include "core/pipeline.h"
#include "trace/anonymizer.h"
#include "trace/log_io.h"
#include "trace/record_columns.h"
#include "scenario/conformance.h"
#include "scenario/matrix.h"
#include "scenario/workload_spec.h"
#include "trace/partitioned_trace.h"
#include "util/parallel.h"
#include "validate/paper_report.h"
#include "validate/validator.h"
#include "workload/generator.h"

#include "args.h"

namespace {

using namespace mcloud;
using tools::Args;
using tools::kMaxMiB;

/// Shared fault-flag parsing for `generate --faults` and fleet `simulate`.
mcloud::fault::FaultConfig FaultsFrom(const Args& args) {
  mcloud::fault::FaultConfig f;
  f.frontend_fail_rate = args.GetDouble("fail-rate", 0.0);
  f.loss_burst_rate = args.GetDouble("loss-burst", 0.0);
  f.degraded_rate = args.GetDouble("degraded", 0.0);
  f.seed = args.GetU64("fault-seed", f.seed);
  return f;
}

/// One command: what runs it, and the flags it takes.
struct Command {
  std::string_view name;
  int (*run)(const Args&);
  tools::FlagTable flags;
};

/// Comma-separated axis lists for `matrix` (e.g. --grids none,frontend-flaky).
std::vector<std::string> SplitList(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > start) out.push_back(csv.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

int Usage() {
  std::fputs(
      "usage: mcloudctl COMMAND ...\n"
      "  generate  --users N [--pc N] [--seed S] [--threads N]\n"
      "            [--spec NAME] [--specs-dir D]\n"
      "            [--anonymize KEY] [--faults] [--fail-rate R]\n"
      "            [--loss-burst R] [--degraded R] [--hedge]\n"
      "            [--out-of-core [--max-memory-mb M]] OUT\n"
      "  grow      --users N [--pc N] [--seed S] [--threads N]\n"
      "            [--tau SECONDS] [--max-memory-mb M] OUT\n"
      "  analyze   TRACE [--tau SECONDS|auto] [--threads N]\n"
      "            [--max-memory-mb M]\n"
      "  sessions  TRACE [--tau SECONDS] [--top N]\n"
      "  convert   IN OUT\n"
      "  anonymize IN OUT --key KEY\n"
      "  simulate  [--device android|ios|pc] [--direction store|retrieve]\n"
      "            [--file-mb N] [--seed S] [--no-ssai] [--pace]\n"
      "  simulate  --fail-rate R [--loss-burst R] [--degraded R] [--hedge]\n"
      "            [--no-retry] [--users N] [--seed S] [--threads N]\n"
      "            [--shards K]\n"
      "  validate  [--users N] [--seed S] [--seeds K] [--threads N]\n"
      "            [--flows N] [--shards K] [--json FILE]\n"
      "            [--max-memory-mb M] [--spill-dir D]\n"
      "            [--spec NAME] [--specs-dir D]\n"
      "  specs     [--specs-dir D]\n"
      "  conform   SPEC [--users N] [--seed S] [--threads N]\n"
      "            [--max-memory-mb M] [--spill-dir D]\n"
      "            [--specs-dir D] [--json FILE]\n"
      "  matrix    SPEC... [--grids A,B] [--connections A,B] [--chunks A,B]\n"
      "            [--users N] [--seed S] [--threads N] [--shards K]\n"
      "            [--specs-dir D] [--json FILE]\n"
      "Scenario lab: SPEC is a name resolved in the specs directory\n"
      "(--specs-dir, $MCLOUD_SPECS_DIR, or the shipped specs/) or a path to\n"
      "a .spec file. `conform` checks a spec against its own declared\n"
      "[targets] and exits non-zero when any check fails; `matrix` sweeps\n"
      "spec x fault grid x connection strategy x chunk policy through the\n"
      "sharded fleet and writes one JSON report whose fingerprints are\n"
      "byte-identical at every --threads.\n"
      "Trace format: every command writes CSV for a .csv name and the\n"
      "columnar v2 format for any other name; reads take v2, CSV or the\n"
      "row-wise v1 format. With --out-of-core, generate's OUT (and\n"
      "analyze's TRACE) is a partitioned trace *directory*;\n"
      "--max-memory-mb bounds the resident footprint. Only analyze reads\n"
      "a directory. grow writes a partitioned directory AND prints the\n"
      "findings report, walking each spill slice as it seals; validate and\n"
      "conform walk the same way and write the slices only into\n"
      "--spill-dir. analyze and grow print the stage timings with the\n"
      "sketch footprint. --threads 0 (the default) uses all hardware\n"
      "threads; output is identical for every thread count and memory\n"
      "budget. A flag the command does not take, or a value flag without\n"
      "its value, exits 2. validate prints the paper report: every figure\n"
      "and table of the paper with its checks.\n",
      stderr);
  return 2;
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Per-stage generation breakdown (the generator fast path's bench view).
/// plan/emit are CPU seconds summed over workers; sort/write are wall
/// seconds, and total is the wall clock of everything generation did.
void PrintGenTimings(const workload::GenTimings& gt) {
  std::fprintf(stderr,
               "gen timings: plan %.2fs emit %.2fs sort %.2fs write %.2fs "
               "(total %.2fs)\n",
               gt.plan_s, gt.emit_s, gt.sort_s, gt.write_s, gt.total_s);
#ifndef NDEBUG
  // Pooled-scratch health: steady-state generation should stop growing
  // after warm-up, so these stay near the session/record high-water marks.
  std::fprintf(stderr,
               "gen allocs: %zu plan slots, %zu record buffer growths\n",
               gt.plan_slot_allocs, gt.record_buffer_growths);
#endif
}

int CmdGenerate(const Args& args) {
  if (args.positional.size() != 1) return Usage();
  workload::WorkloadConfig cfg;
  if (args.Has("spec")) {
    // Compile a declarative scenario spec; --users/--pc still override the
    // spec's population (the model parameters come from the spec).
    const scenario::WorkloadSpec spec =
        scenario::LoadSpec(args.Get("spec"), args.Get("specs-dir"));
    cfg = scenario::Compile(spec, args.GetU64("seed", 42),
                            args.GetU64<int>("threads", 0));
    cfg.population.mobile_users =
        args.GetU64("users", cfg.population.mobile_users);
    cfg.population.pc_only_users =
        args.GetU64("pc", cfg.population.pc_only_users);
  } else {
    cfg.population.mobile_users = args.GetU64("users", 6000);
    cfg.population.pc_only_users =
        args.GetU64("pc", cfg.population.mobile_users / 3);
    cfg.seed = args.GetU64("seed", 42);
    cfg.threads = args.GetU64<int>("threads", 0);
  }

  std::fprintf(stderr,
               "generating: %zu mobile users, %zu PC-only, seed %llu...\n",
               cfg.population.mobile_users, cfg.population.pc_only_users,
               static_cast<unsigned long long>(cfg.seed));
  if (args.Has("out-of-core")) {
    if (args.Has("faults") || args.Has("anonymize")) {
      std::fprintf(stderr, "mcloudctl: --out-of-core cannot be combined "
                           "with --faults or --anonymize\n");
      return 2;
    }
    workload::SpillConfig spill;
    spill.dir = args.positional[0];
    spill.max_buffer_bytes = workload::SpillBufferBytes(
        args.GetU64<std::size_t>("max-memory-mb", 2048, kMaxMiB));
    std::filesystem::create_directories(spill.dir);
    workload::GenTimings gt;
    const workload::SpillSummary s =
        workload::WorkloadGenerator(cfg).GenerateToPartitions(spill, &gt);
    std::fprintf(stderr,
                 "wrote %llu records to %s (%zu spills, %zu run files)\n",
                 static_cast<unsigned long long>(s.records),
                 args.positional[0].c_str(), s.spills, s.run_files);
    PrintGenTimings(gt);
    return 0;
  }
  TraceStore store;
  workload::GenTimings gt;
  const bool timed = !args.Has("faults");
  if (!timed) {
    // Route the plans through the full storage service under fault
    // injection: the emitted trace is what the measurement pipeline would
    // have logged while front-ends crash and clients retry. Much slower
    // than the fast-path emitter (per-chunk TCP simulation).
    cloud::ServiceConfig svc;
    svc.faults = FaultsFrom(args);
    if (!svc.faults.Any()) svc.faults.frontend_fail_rate = 0.01;
    if (args.Has("hedge")) svc.retry.hedge = true;
    const workload::Workload w =
        workload::WorkloadGenerator(cfg).GeneratePlansOnly();
    cloud::StorageService service(svc);
    const auto result = service.Execute(w.sessions);
    std::fputs(
        analysis::RenderAvailability(analysis::Availability(result)).c_str(),
        stderr);
    store = TraceStore::FromRecords(result.logs);
  } else {
    store = workload::WorkloadGenerator(cfg).GenerateColumnar(&gt).trace;
  }
  if (args.Has("anonymize")) {
    store = TraceStore::FromRecords(
        Anonymizer(args.Get("anonymize")).Apply(store.ToRecords()));
  }
  // The fingerprint is one serial FNV chain that cannot be split, so it
  // runs beside the write rather than after it (inline, in this order, at
  // --threads 1).
  std::uint64_t fingerprint = 0;
  const auto w0 = std::chrono::steady_clock::now();
  {
    ThreadPool pool(cfg.threads);
    ParallelInvoke(pool, {[&] { WriteTrace(args.positional[0], store); },
                          [&] { fingerprint = TraceFingerprint(store); }});
  }
  if (timed) {
    gt.write_s = SecondsSince(w0);
    gt.total_s += gt.write_s;
    PrintGenTimings(gt);
  }
  std::fprintf(stderr, "wrote %zu records to %s\n", store.rows(),
               args.positional[0].c_str());
  // The fleet-determinism CI check diffs this line across thread counts.
  std::fprintf(stderr, "trace fingerprint: %016llx\n",
               static_cast<unsigned long long>(fingerprint));
  return 0;
}

/// Per-stage analysis breakdown. `read_s` is the wall time of reading or
/// opening the trace, which the pipeline's own total does not cover; the
/// printed total includes it.
void PrintStageTimings(const core::StageTimings& st,
                       const core::FullReport& report, double read_s) {
  std::fprintf(stderr,
               "timings: read %.2fs scan %.2fs sessionize %.2fs "
               "per-user %.2fs fits %.2fs (total %.2fs); sketches %.1f KiB\n",
               read_s, st.scan_s, st.sessionize_s, st.per_user_s, st.fits_s,
               read_s + st.total_s,
               static_cast<double>(report.sketches.MemoryBytes()) / 1024.0);
}

/// `CMD --tau` (default 3600): a positive, finite number of seconds that
/// fills the whole token, or, when `allow_auto`, "auto" (0, the
/// data-derived valley τ). Anything else prints an error and returns false.
bool ParseTau(const Args& args, const char* cmd, bool allow_auto,
              Seconds& tau) {
  const std::string text = args.Get("tau", "3600");
  if (allow_auto && text == "auto") {
    tau = 0;
    return true;
  }
  double v = 0;
  if (tools::ParseNumber(text, v) && v > 0) {
    tau = v;
    return true;
  }
  std::fprintf(stderr,
               "mcloudctl: %s --tau takes %sa positive number of seconds, "
               "not '%s'\n",
               cmd, allow_auto ? "auto or " : "", text.c_str());
  return false;
}

int CmdAnalyze(const Args& args) {
  if (args.positional.size() != 1) return Usage();
  core::PipelineOptions opts;
  if (!ParseTau(args, "analyze", /*allow_auto=*/true, opts.session_tau))
    return 2;
  opts.threads = args.GetU64<int>("threads", 0);
  opts.max_memory_mb =
      args.GetU64<std::size_t>("max-memory-mb", 0, kMaxMiB);
  const core::AnalysisPipeline pipeline(opts);

  const std::filesystem::path path = args.positional[0];
  core::FullReport report;
  core::StageTimings st;
  const auto r0 = std::chrono::steady_clock::now();
  double read_s = 0;
  if (std::filesystem::is_directory(path)) {
    // Partitioned trace directory: stream it under the requested budget.
    const PartitionedTrace trace = PartitionedTrace::Open(path);
    read_s = SecondsSince(r0);
    report = pipeline.RunStreaming(trace, &st);
  } else if (IsColumnarTrace(path)) {
    // Columnar fast path: load only the columns the pipeline touches, one
    // column per thread, and feed the store directly — no LogRecord vector
    // is ever built.
    TraceStore store;
    {
      ThreadPool pool(ClampThreadsToHardware(opts.threads));
      store = ReadColumnarTrace(path, kAnalysisColumns, &pool);
    }
    read_s = SecondsSince(r0);
    report = pipeline.Run(store, &st);
  } else {
    const std::vector<LogRecord> trace = ReadTrace(path);
    read_s = SecondsSince(r0);
    report = pipeline.Run(trace, &st);
  }
  std::fputs(core::RenderFindings(report).c_str(), stdout);
  PrintStageTimings(st, report, read_s);
  return 0;
}

/// Generate a partitioned trace directory AND produce its findings report:
/// each sealed spill slice is written, then walked on the generator's pool,
/// so the report is ready when the last slice is written, and nothing is
/// read back. The two timings lines count each second once: the walks are
/// in `timings`, not in `gen timings`.
int CmdGrow(const Args& args) {
  if (args.positional.size() != 1) return Usage();
  core::PipelineOptions popts;
  if (!ParseTau(args, "grow", /*allow_auto=*/false, popts.session_tau))
    return 2;
  workload::WorkloadConfig cfg;
  cfg.population.mobile_users = args.GetU64("users", 6000);
  cfg.population.pc_only_users =
      args.GetU64("pc", cfg.population.mobile_users / 3);
  cfg.seed = args.GetU64("seed", 42);
  cfg.threads = args.GetU64<int>("threads", 0);

  workload::SpillConfig spill;
  spill.dir = args.positional[0];
  spill.max_buffer_bytes = workload::SpillBufferBytes(
      args.GetU64<std::size_t>("max-memory-mb", 2048, kMaxMiB));
  std::filesystem::create_directories(spill.dir);

  popts.threads = cfg.threads;
  const workload::WorkloadGenerator generator(cfg);

  std::fprintf(stderr, "growing %s: %zu mobile users, %zu PC-only, seed %llu\n",
               args.positional[0].c_str(), cfg.population.mobile_users,
               cfg.population.pc_only_users,
               static_cast<unsigned long long>(cfg.seed));

  core::StageTimings st;
  workload::SpillSummary sum;
  workload::GenTimings gt;
  const core::FullReport report = core::AnalysisPipeline(popts).RunSlices(
      [&](const SliceVisitor& visit) {
        sum = generator.GenerateToPartitions(spill, visit, &gt);
      },
      &st);
  std::fprintf(stderr,
               "wrote %llu records to %s (%zu spills, %zu run files)\n",
               static_cast<unsigned long long>(sum.records),
               args.positional[0].c_str(), sum.spills, sum.run_files);
  std::fputs(core::RenderFindings(report).c_str(), stdout);
  PrintGenTimings(gt);
  PrintStageTimings(st, report, 0);
  return 0;
}

int CmdSessions(const Args& args) {
  if (args.positional.size() != 1) return Usage();
  Seconds tau = 0;
  if (!ParseTau(args, "sessions", /*allow_auto=*/false, tau)) return 2;
  const std::uint64_t top = args.GetU64("top", 20);
  const auto trace = ReadTrace(args.positional[0]);
  const auto sessions = analysis::Sessionizer(tau).Sessionize(trace);

  std::printf("%zu sessions (tau = %.0f s); largest %llu by volume:\n",
              sessions.size(), tau,
              static_cast<unsigned long long>(top));
  std::vector<const analysis::Session*> by_volume;
  by_volume.reserve(sessions.size());
  for (const auto& s : sessions) by_volume.push_back(&s);
  std::sort(by_volume.begin(), by_volume.end(),
            [](const auto* a, const auto* b) {
              return a->Volume() > b->Volume();
            });
  std::printf("%-12s %-10s %8s %8s %10s %10s %8s\n", "user", "type", "ops",
              "chunks", "volume MB", "length s", "oper s");
  for (std::uint64_t i = 0; i < top && i < by_volume.size(); ++i) {
    const auto& s = *by_volume[i];
    const char* type = s.SessionType() == analysis::Session::Type::kStoreOnly
                           ? "store"
                       : s.SessionType() ==
                               analysis::Session::Type::kRetrieveOnly
                           ? "retrieve"
                           : "mixed";
    std::printf("%-12llu %-10s %8zu %8zu %10.1f %10.0f %8.0f\n",
                static_cast<unsigned long long>(s.user_id), type, s.FileOps(),
                s.chunk_requests, ToMB(s.Volume()), s.Length(),
                s.OperatingTime());
  }
  return 0;
}

int CmdConvert(const Args& args) {
  if (args.positional.size() != 2) return Usage();
  const auto trace = ReadTrace(args.positional[0]);
  WriteTrace(args.positional[1], trace);
  std::fprintf(stderr, "converted %zu records: %s -> %s\n", trace.size(),
               args.positional[0].c_str(), args.positional[1].c_str());
  return 0;
}

int CmdAnonymize(const Args& args) {
  if (args.positional.size() != 2 || !args.Has("key")) return Usage();
  const auto trace = ReadTrace(args.positional[0]);
  const auto anonymized = Anonymizer(args.Get("key")).Apply(trace);
  WriteTrace(args.positional[1], anonymized);
  std::fprintf(stderr, "anonymized %zu records\n", anonymized.size());
  return 0;
}

/// Fleet simulation under fault injection: generate session plans for a
/// small population, execute them against the storage service with the
/// requested failure/loss/degradation rates, and print the availability
/// report.
int CmdSimulateFleet(const Args& args) {
  workload::WorkloadConfig wcfg;
  wcfg.population.mobile_users = args.GetU64("users", 400);
  wcfg.population.pc_only_users =
      args.GetU64("pc", wcfg.population.mobile_users / 3);
  wcfg.seed = args.GetU64("seed", 42);

  cloud::FleetConfig cfg;
  cfg.service.faults = FaultsFrom(args);
  if (args.Has("no-retry")) cfg.service.retry = fault::RetryPolicy::None();
  if (args.Has("hedge")) cfg.service.retry.hedge = true;
  cfg.shards = args.GetU64<std::uint32_t>("shards", cfg.shards);
  cfg.threads = args.GetU64<int>("threads", 0);
  const auto w = workload::WorkloadGenerator(wcfg).GeneratePlansOnly();

  std::fprintf(stderr,
               "simulating %zu sessions (%u shards): fail-rate %.3f, "
               "loss-burst %.3f, degraded %.3f, %s\n",
               w.sessions.size(), cfg.shards,
               cfg.service.faults.frontend_fail_rate,
               cfg.service.faults.loss_burst_rate,
               cfg.service.faults.degraded_rate,
               args.Has("no-retry")  ? "no retries"
               : cfg.service.retry.hedge ? "default retry policy + hedging"
                                         : "default retry policy");
  const auto result = cloud::ExecuteFleet(cfg, w.sessions).result;
  std::fputs(
      analysis::RenderAvailability(analysis::Availability(result)).c_str(),
      stdout);
  const auto by_device = analysis::SuccessRateByDevice(result);
  std::printf("  success by device   android %.4f  ios %.4f  pc %.4f\n",
              by_device[0], by_device[1], by_device[2]);
  return 0;
}

int CmdSimulate(const Args& args) {
  if (args.Has("fail-rate") || args.Has("loss-burst") ||
      args.Has("degraded") || args.Has("hedge") || args.Has("no-retry")) {
    return CmdSimulateFleet(args);
  }
  const std::string device = args.Get("device", "android");
  cloud::ServiceConfig cfg;
  cfg.ssai_enabled = !args.Has("no-ssai");
  cfg.pace_after_idle = args.Has("pace");
  const cloud::StorageService service(cfg);

  const DeviceType dev = device == "ios"  ? DeviceType::kIos
                         : device == "pc" ? DeviceType::kPc
                                          : DeviceType::kAndroid;
  const Direction dir = args.Get("direction", "store") == "retrieve"
                            ? Direction::kRetrieve
                            : Direction::kStore;
  const Bytes size = args.GetU64("file-mb", 8, kMaxMiB) * kMiB;
  const auto flow =
      service.SimulateFlow(dev, dir, size, args.GetU64("seed", 1));

  std::printf("%s %s of %.0f MB: %.2f s total, %llu slow-start restarts, "
              "%llu timeouts\n",
              device.c_str(),
              dir == Direction::kStore ? "upload" : "download", ToMB(size),
              flow.duration,
              static_cast<unsigned long long>(flow.restarts),
              static_cast<unsigned long long>(flow.timeouts));
  std::printf("%6s %10s %10s %10s %10s %9s\n", "chunk", "t_tran s",
              "T_srv s", "T_clt s", "idle s", "restart");
  for (std::size_t i = 0; i < flow.chunks.size(); ++i) {
    const auto& c = flow.chunks[i];
    std::printf("%6zu %10.2f %10.3f %10.3f %10.3f %9s\n", i + 1,
                c.transfer_time, c.server_time, c.client_time, c.idle_before,
                c.restarted ? "yes" : "");
  }
  return 0;
}

/// The --json writer of conform, matrix and validate (no flag: no file).
void WriteJsonFile(const std::string& path, const std::string& json) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", path.c_str());
}

/// List the specs visible in the resolved specs directory.
int CmdSpecs(const Args& args) {
  const std::string dir = args.Get("specs-dir");
  const auto names = scenario::ListSpecs(dir);
  if (names.empty()) {
    const std::string where =
        dir.empty() ? std::string(scenario::DefaultSpecsDir()) : dir;
    std::fprintf(stderr, "no specs found in %s\n", where.c_str());
    return 1;
  }
  for (const auto& name : names) {
    const scenario::WorkloadSpec spec = scenario::LoadSpec(name, dir);
    std::printf("%-24s %zu mobile + %zu PC users, %d days — %s\n",
                name.c_str(), spec.mobile_users, spec.pc_only_users,
                static_cast<int>(spec.days), spec.description.c_str());
  }
  return 0;
}

/// Self-conformance: run a spec's workload through the analysis pipeline
/// and gate its declared [targets] with the GoF tolerance machinery. Exit 0
/// iff every declared target passes.
int CmdConform(const Args& args) {
  if (args.positional.size() != 1) return Usage();
  const scenario::WorkloadSpec spec =
      scenario::LoadSpec(args.positional[0], args.Get("specs-dir"));
  scenario::ConformanceOptions opts;
  opts.seed = args.GetU64("seed", opts.seed);
  opts.threads = args.GetU64<int>("threads", 0);
  opts.users_override = args.GetU64("users", 0);
  opts.spill_dir = args.Get("spill-dir");
  opts.max_memory_mb =
      args.GetU64<std::size_t>("max-memory-mb", opts.max_memory_mb, kMaxMiB);
  const scenario::ConformanceRun run = scenario::RunConformance(spec, opts);
  std::fputs(scenario::RenderText(run).c_str(), stdout);
  WriteJsonFile(args.Get("json"), scenario::ToJson(run));
  return run.AllPassed() ? 0 : 1;
}

/// What-if matrix: sweep spec x fault grid x connection strategy x chunk
/// policy through the sharded fleet; one JSON report, byte-identical at
/// every --threads.
int CmdMatrix(const Args& args) {
  if (args.positional.empty()) return Usage();
  scenario::MatrixOptions opts;
  opts.specs = args.positional;
  if (args.Has("grids")) opts.faults = SplitList(args.Get("grids"));
  if (args.Has("connections"))
    opts.connections = SplitList(args.Get("connections"));
  if (args.Has("chunks")) opts.chunk_policies = SplitList(args.Get("chunks"));
  opts.users = args.GetU64("users", 0);
  opts.seed = args.GetU64("seed", opts.seed);
  opts.threads = args.GetU64<int>("threads", 0);
  opts.shards = args.GetU64<std::uint32_t>("shards", opts.shards);
  opts.specs_dir = args.Get("specs-dir");
  const scenario::MatrixReport report = scenario::RunMatrix(opts);
  std::fputs(scenario::RenderText(report).c_str(), stdout);
  WriteJsonFile(args.Get("json"), scenario::ToJson(report));
  return 0;
}

/// Paper-fidelity validation: generate → analyze → fleet-simulate → run
/// every FigureCheck, then print the paper report: every figure and table
/// from the inputs the checks read. Exit 0 iff all checks pass (single run)
/// or the run-level pass rate is >= 95% (--seeds sweep). --json writes the
/// machine-readable manifest CI archives.
int CmdValidate(const Args& args) {
  validate::ValidateOptions opts;
  if (args.Has("spec")) {
    // Validate against a scenario spec's model: the spec supplies the
    // population and parameters; --users still scales the population down
    // (PC-only users shrink proportionally, so paper2016 at --users 4000
    // fingerprints identically to the default 4000-user run).
    const scenario::WorkloadSpec spec =
        scenario::LoadSpec(args.Get("spec"), args.Get("specs-dir"));
    opts.users = args.GetU64("users", spec.mobile_users);
    opts.pc_users = spec.pc_only_users * opts.users / spec.mobile_users;
    opts.model = spec.model;
  } else {
    opts.users = args.GetU64("users", opts.users);
  }
  opts.seed = args.GetU64("seed", opts.seed);
  opts.threads = args.GetU64<int>("threads", 0);
  opts.fleet_flows = args.GetU64("flows", opts.fleet_flows);
  opts.fleet_shards = args.GetU64<std::uint32_t>("shards", opts.fleet_shards);
  opts.max_memory_mb =
      args.GetU64<std::size_t>("max-memory-mb", opts.max_memory_mb, kMaxMiB);
  opts.spill_dir = args.Get("spill-dir");
  const std::uint64_t seeds = args.GetU64("seeds", 1);

  if (seeds <= 1) {
    const validate::ValidationRun run = validate::RunValidation(opts);
    std::fputs(validate::RenderReport(run).c_str(), stdout);
    WriteJsonFile(args.Get("json"), validate::ToJson(run));
    return run.AllPassed() ? 0 : 1;
  }

  const validate::SeedSweep sweep = validate::RunSeedSweep(opts, seeds);
  for (const auto& run : sweep.runs) {
    std::printf("seed %-6llu %zu/%zu checks passed (%.1f s)\n",
                static_cast<unsigned long long>(run.options.seed),
                run.Passed(), run.outcomes.size(), run.total_s);
  }
  std::printf("sweep: %zu seeds, run pass rate %.2f "
              "(bootstrap 95%% CI [%.2f, %.2f])\n",
              sweep.runs.size(), sweep.run_pass_rate, sweep.pass_rate_ci.lo,
              sweep.pass_rate_ci.hi);
  for (const auto& [id, count] : sweep.failures_by_check)
    std::printf("  failing check: %-24s %zu/%zu seeds\n", id.c_str(), count,
                sweep.runs.size());
  WriteJsonFile(args.Get("json"), validate::ToJson(sweep));
  return sweep.run_pass_rate >= 0.95 ? 0 : 1;
}

/// Every command, the flags it takes and which of them take no value.
constexpr Command kCommands[] = {
    {"generate", CmdGenerate,
     {"users pc seed threads spec specs-dir anonymize fail-rate loss-burst "
      "degraded fault-seed max-memory-mb",
      "faults hedge out-of-core"}},
    {"grow", CmdGrow, {"users pc seed threads tau max-memory-mb", ""}},
    {"analyze", CmdAnalyze, {"tau threads max-memory-mb", ""}},
    {"sessions", CmdSessions, {"tau top", ""}},
    {"convert", CmdConvert, {"", ""}},
    {"anonymize", CmdAnonymize, {"key", ""}},
    {"simulate", CmdSimulate,
     {"device direction file-mb seed fail-rate loss-burst degraded "
      "fault-seed users pc threads shards",
      "no-ssai pace hedge no-retry"}},
    {"specs", CmdSpecs, {"specs-dir", ""}},
    {"conform", CmdConform,
     {"users seed threads max-memory-mb spill-dir specs-dir json", ""}},
    {"matrix", CmdMatrix,
     {"grids connections chunks users seed threads shards specs-dir json",
      ""}},
    {"validate", CmdValidate,
     {"users seed seeds threads flows shards json max-memory-mb spill-dir "
      "spec specs-dir",
      ""}},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string_view name = argv[1];
  if (name == "help" || name == "--help") {
    Usage();
    return 0;
  }
  for (const Command& cmd : kCommands) {
    if (cmd.name != name) continue;
    const Args args = tools::Parse("mcloudctl", cmd.name, cmd.flags, argc,
                                   argv, 2);
    try {
      return cmd.run(args);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "mcloudctl: %s\n", e.what());
      return 1;
    }
  }
  return Usage();
}
