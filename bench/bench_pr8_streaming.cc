// Two-phase vs analyze-while-generate comparison (PR "online analysis
// engine").
//
//   bench_pr8_streaming [--users N[,N...]] [--out FILE.json] [--tmp DIR]
//                       [--memory-mb M] [--fits-budget-s S]
//
// For each user-population size the parent re-executes itself once per
// configuration so every run's peak RSS is measured in a fresh address
// space:
//
//   * "twophase" (threads=1): GenerateToPartitions (spill budget
//     --memory-mb) → PartitionedTrace::Open → RunStreaming — generation
//     and analysis walk the data as two sequential phases.
//   * "concurrent" (threads=1 and 4): RunConcurrent — generation spills
//     sealed slices straight into the bounded queue and the streaming
//     passes consume them while the generator keeps producing; one
//     overlapped walk at the same memory budget.
//
// Each child prints one JSON object: records, FullReport fingerprint,
// phase wall times, the fit-stage time from StageTimings, the report's
// sketch bytes, and getrusage peak RSS. The parent asserts that every
// configuration of a given size produced a bit-identical report, that the
// overlapped walk beats the two-phase wall clock, that its peak RSS is no
// worse (5% tolerance for allocator noise), and that the sketch-backed
// fit stage stays under --fits-budget-s — half of the 0.423 s the PR 3
// raw-sample fit stage took at 20k users (BENCH_PR3.json) — then writes
// BENCH_PR8.json via EmitBenchJson.
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "trace/partitioned_trace.h"
#include "workload/generator.h"

namespace {

using namespace mcloud;
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string SelfExe(const char* argv0) {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return argv0;
}

workload::WorkloadConfig ConfigFor(std::size_t users, int threads) {
  workload::WorkloadConfig cfg;
  cfg.population.mobile_users = users;
  cfg.population.pc_only_users = users / 3;
  cfg.seed = 42;
  cfg.threads = threads;
  return cfg;
}

// ---- child: one (mode, threads, users) measurement ----

int RunChild(const std::string& mode, int threads, std::size_t users,
             std::size_t memory_mb, const std::string& tmp_dir) {
  const workload::WorkloadConfig cfg = ConfigFor(users, threads);
  const std::filesystem::path spill_dir =
      std::filesystem::path(tmp_dir) /
      ("bench_pr8_spill-" + std::to_string(::getpid()));
  std::filesystem::create_directories(spill_dir);
  workload::SpillConfig spill;
  spill.dir = spill_dir;
  // Concurrent keeps up to three slices in flight (producer buffer, queue
  // slot, consumer), so it gets a third of the two-phase slice size — both
  // modes then hold the same resident total at the same budget.
  spill.max_buffer_bytes = memory_mb * (1024 * 1024 / 3) /
                           (mode == "twophase" ? 1 : 3);

  core::PipelineOptions opts;
  opts.threads = threads;
  opts.max_memory_mb = memory_mb;
  core::FullReport report;
  core::StageTimings st;
  std::size_t records = 0;
  double generate_s = 0;
  double analyze_s = 0;
  double total_s = 0;

  if (mode == "twophase") {
    const auto t0 = Clock::now();
    const workload::SpillSummary summary =
        workload::WorkloadGenerator(cfg).GenerateToPartitions(spill);
    generate_s = Since(t0);
    records = summary.records;
    const auto t1 = Clock::now();
    const PartitionedTrace partitions = PartitionedTrace::Open(spill_dir);
    report = core::AnalysisPipeline(opts).RunStreaming(partitions, &st);
    analyze_s = Since(t1);
    total_s = Since(t0);
  } else {  // concurrent: one overlapped walk
    workload::SpillSummary summary;
    const auto t0 = Clock::now();
    report = core::AnalysisPipeline(opts).RunConcurrent(
        [&](const core::AnalysisPipeline::SliceConsumer& consume) {
          summary =
              workload::WorkloadGenerator(cfg).GenerateToPartitions(spill,
                                                                    consume);
        },
        &st);
    total_s = Since(t0);
    analyze_s = total_s;  // generation overlaps analysis
    records = summary.records;
  }
  std::error_code ec;
  std::filesystem::remove_all(spill_dir, ec);

  std::printf("{\"mode\": \"%s\", \"threads\": %d, \"users\": %zu, "
              "\"records\": %zu, \"fingerprint\": \"%016" PRIx64 "\", "
              "\"generate_s\": %.4f, \"analyze_s\": %.4f, "
              "\"total_s\": %.4f, \"fits_s\": %.4f, "
              "\"sketch_bytes\": %zu, \"max_rss_kb\": %llu}\n",
              mode.c_str(), threads, users, records,
              core::FingerprintReport(report), generate_s, analyze_s,
              total_s, st.fits_s, report.sketches.MemoryBytes(),
              static_cast<unsigned long long>(bench::PeakRssBytes() / 1024));
  return 0;
}

// ---- parent: sweep + JSON aggregation ----

struct Sample {
  std::string mode;
  int threads = 0;
  std::size_t users = 0;
  std::size_t records = 0;
  std::string fingerprint;
  double generate_s = 0;
  double analyze_s = 0;
  double total_s = 0;
  double fits_s = 0;
  std::size_t sketch_bytes = 0;
  std::uint64_t max_rss_kb = 0;
};

double JsonNum(const std::string& s, const char* key) {
  const std::string needle = std::string("\"") + key + "\": ";
  const auto pos = s.find(needle);
  if (pos == std::string::npos) return 0;
  return std::strtod(s.c_str() + pos + needle.size(), nullptr);
}

std::string JsonStr(const std::string& s, const char* key) {
  const std::string needle = std::string("\"") + key + "\": \"";
  const auto pos = s.find(needle);
  if (pos == std::string::npos) return "";
  const auto begin = pos + needle.size();
  return s.substr(begin, s.find('"', begin) - begin);
}

bool RunOne(const std::string& exe, const std::string& mode, int threads,
            std::size_t users, std::size_t memory_mb,
            const std::string& tmp_dir, Sample* out) {
  const std::string cmd = exe + " --child " + mode +
                          " --child-threads " + std::to_string(threads) +
                          " --child-users " + std::to_string(users) +
                          " --memory-mb " + std::to_string(memory_mb) +
                          " --tmp " + tmp_dir;
  std::FILE* p = popen(cmd.c_str(), "r");
  if (p == nullptr) return false;
  std::string output;
  char buf[512];
  while (std::fgets(buf, sizeof(buf), p) != nullptr) output += buf;
  if (pclose(p) != 0) {
    std::fprintf(stderr, "child failed: %s\n", cmd.c_str());
    return false;
  }
  out->mode = mode;
  out->threads = threads;
  out->users = users;
  out->records = static_cast<std::size_t>(JsonNum(output, "records"));
  out->fingerprint = JsonStr(output, "fingerprint");
  out->generate_s = JsonNum(output, "generate_s");
  out->analyze_s = JsonNum(output, "analyze_s");
  out->total_s = JsonNum(output, "total_s");
  out->fits_s = JsonNum(output, "fits_s");
  out->sketch_bytes = static_cast<std::size_t>(JsonNum(output, "sketch_bytes"));
  out->max_rss_kb = static_cast<std::uint64_t>(JsonNum(output, "max_rss_kb"));
  return !out->fingerprint.empty() && out->records > 0;
}

std::vector<std::size_t> ParseSizes(const char* arg) {
  std::vector<std::size_t> sizes;
  for (const char* p = arg; *p != '\0';) {
    char* end = nullptr;
    const std::size_t v = std::strtoull(p, &end, 10);
    if (end == p) break;
    if (v > 0) sizes.push_back(v);
    p = (*end == ',') ? end + 1 : end;
  }
  return sizes;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::size_t> sizes = {20'000};
  std::string out_path = "BENCH_PR8.json";
  std::string tmp_dir = ".";
  std::size_t memory_mb = 512;
  double fits_budget_s = 0.2115;  // half the PR 3 fit stage (0.423 s)
  std::string child_mode;
  int child_threads = 1;
  std::size_t child_users = 20'000;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--users") == 0) {
      sizes = ParseSizes(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--out") == 0) {
      out_path = argv[i + 1];
    } else if (std::strcmp(argv[i], "--tmp") == 0) {
      tmp_dir = argv[i + 1];
    } else if (std::strcmp(argv[i], "--memory-mb") == 0) {
      memory_mb = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--fits-budget-s") == 0) {
      fits_budget_s = std::strtod(argv[i + 1], nullptr);
    } else if (std::strcmp(argv[i], "--child") == 0) {
      child_mode = argv[i + 1];
    } else if (std::strcmp(argv[i], "--child-threads") == 0) {
      child_threads = std::atoi(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--child-users") == 0) {
      child_users = std::strtoull(argv[i + 1], nullptr, 10);
    }
  }
  if (!child_mode.empty())
    return RunChild(child_mode, child_threads, child_users, memory_mb,
                    tmp_dir);
  if (sizes.empty()) {
    std::fprintf(stderr, "no sizes given\n");
    return 1;
  }

  struct Config {
    const char* mode;
    int threads;
  };
  const Config kConfigs[] = {{"twophase", 1}, {"concurrent", 1},
                             {"concurrent", 4}};

  const std::string exe = SelfExe(argv[0]);
  std::vector<Sample> samples;
  bool ok = true;
  bool identical = true;
  bool overlapped_faster = true;
  bool rss_no_worse = true;
  bool fits_in_budget = true;
  for (const std::size_t users : sizes) {
    std::string size_fp;
    double twophase_total = 0;
    std::uint64_t twophase_rss_kb = 0;
    for (const Config& c : kConfigs) {
      std::fprintf(stderr, "running %s threads=%d users=%zu...\n", c.mode,
                   c.threads, users);
      Sample s;
      if (!RunOne(exe, c.mode, c.threads, users, memory_mb, tmp_dir, &s)) {
        ok = false;
        continue;
      }
      std::fprintf(stderr,
                   "%-10s threads=%d users=%-8zu records=%-10zu "
                   "total %.2fs  fits %.3fs  rss %llu MB  fp %s\n",
                   s.mode.c_str(), s.threads, s.users, s.records, s.total_s,
                   s.fits_s,
                   static_cast<unsigned long long>(s.max_rss_kb / 1024),
                   s.fingerprint.c_str());
      if (size_fp.empty())
        size_fp = s.fingerprint;
      else if (s.fingerprint != size_fp)
        identical = false;
      if (s.mode == "twophase") {
        twophase_total = s.total_s;
        twophase_rss_kb = s.max_rss_kb;
      } else if (s.threads == 1) {
        // The single-walk contract, judged at matched thread counts: the
        // overlapped run must beat the two sequential phases end to end,
        // at no additional resident cost (5% allocator-noise tolerance).
        if (s.total_s >= twophase_total) overlapped_faster = false;
        if (static_cast<double>(s.max_rss_kb) >
            static_cast<double>(twophase_rss_kb) * 1.05) {
          rss_no_worse = false;
        }
      }
      if (s.fits_s > fits_budget_s) fits_in_budget = false;
      samples.push_back(s);
    }
  }
  if (!ok || samples.empty()) {
    std::fprintf(stderr, "FAIL: child runs failed\n");
    return 1;
  }
  const bool pass =
      identical && overlapped_faster && rss_no_worse && fits_in_budget;

  std::string body;
  char buf[640];
  std::snprintf(buf, sizeof(buf),
                "  \"memory_budget_mb\": %zu,\n"
                "  \"fits_budget_s\": %.4f,\n"
                "  \"reports_bit_identical\": %s,\n"
                "  \"concurrent_beats_twophase\": %s,\n"
                "  \"concurrent_rss_no_worse\": %s,\n"
                "  \"fits_within_budget\": %s,\n"
                "  \"pass\": %s,\n",
                memory_mb, fits_budget_s, identical ? "true" : "false",
                overlapped_faster ? "true" : "false",
                rss_no_worse ? "true" : "false",
                fits_in_budget ? "true" : "false", pass ? "true" : "false");
  body += buf;
  body += "  \"samples\": [\n";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"mode\": \"%s\", \"threads\": %d, \"users\": %zu, "
        "\"records\": %zu, \"fingerprint\": \"%s\", "
        "\"generate_seconds\": %.2f, \"analyze_seconds\": %.2f, "
        "\"total_seconds\": %.2f, \"fit_stage_seconds\": %.4f, "
        "\"total_records_per_second\": %.0f, \"sketch_bytes\": %zu, "
        "\"peak_rss_kb\": %llu}%s\n",
        s.mode.c_str(), s.threads, s.users, s.records, s.fingerprint.c_str(),
        s.generate_s, s.analyze_s, s.total_s, s.fits_s,
        static_cast<double>(s.records) / s.total_s, s.sketch_bytes,
        static_cast<unsigned long long>(s.max_rss_kb),
        i + 1 < samples.size() ? "," : "");
    body += buf;
  }
  body += "  ]\n";
  bench::EmitBenchJson(out_path, "pr8_streaming", body);

  std::fprintf(stderr,
               "identical=%s overlapped_faster=%s rss_no_worse=%s "
               "fits<=%.3fs=%s -> %s\n",
               identical ? "yes" : "NO", overlapped_faster ? "yes" : "NO",
               rss_no_worse ? "yes" : "NO", fits_budget_s,
               fits_in_budget ? "yes" : "NO", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
