// Generator fast path A/B bench (PR "radix-ordered columnar emission").
//
//   bench_pr10_generator [--users N] [--repeats R] [--threads-list 1,4]
//                        [--min-speedup X] [--out FILE.json]
//
// Measures the generate stage old vs new at each thread count:
//
//   * "old": the pre-PR path, embedded below verbatim — allocating
//     PlanUser per user, scalar EmitSession into per-shard AoS runs,
//     per-shard std::stable_sort + stable k-way merge.
//   * "new": WorkloadGenerator::Generate — pooled PlanUserInto, batched
//     normals, columnar emission, one global stable radix sort.
//
// Every run's trace is folded into the representation-independent
// TraceFingerprint; the bench FAILS unless all old/new fingerprints are
// identical (the fast path's whole claim is byte-identity) and the best
// new time beats the best old time by --min-speedup at threads=1.
// Writes the committed BENCH_PR10.json.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "trace/record_columns.h"
#include "util/merge.h"
#include "util/parallel.h"
#include "workload/diurnal.h"
#include "workload/generator.h"
#include "workload/log_emitter.h"
#include "workload/session_model.h"
#include "workload/user_model.h"

namespace {

using namespace mcloud;
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- the pre-PR generate path, embedded verbatim ------------------------
// This is WorkloadGenerator's resident plan-and-emit loop + Generate as they
// were before the fast path (allocating per-user planning, scalar emission,
// per-shard stable_sort, stable k-way merge), with only the Workload
// bookkeeping the bench does not need removed.

bool SessionStartOrder(const workload::SessionPlan& a,
                       const workload::SessionPlan& b) {
  if (a.start != b.start) return a.start < b.start;
  return a.user_id < b.user_id;
}

std::vector<LogRecord> OldGenerate(const workload::WorkloadConfig& config) {
  ThreadPool pool(config.threads);
  Rng rng(config.seed);

  workload::PopulationBuilder population(config.population, config.model);
  const std::vector<workload::UserProfile> users =
      population.Build(rng, &pool);
  const std::uint64_t session_root = rng.NextU64();

  const workload::DiurnalPattern diurnal(config.model.hour_weights);
  workload::SessionModelConfig smc;
  smc.trace_start = config.trace_start;
  smc.days = config.population.days;
  smc.model = config.model;
  const workload::SessionModel session_model(smc, diurnal);
  const workload::FastLogEmitter emitter;

  const std::size_t shards = ShardCount(pool, users.size());
  std::vector<std::vector<LogRecord>> local_runs(shards);

  ParallelForShards(
      pool, users.size(),
      [&](std::size_t shard, std::size_t begin, std::size_t end) {
        std::vector<LogRecord>& trace = local_runs[shard];
        for (std::size_t i = begin; i < end; ++i) {
          const workload::UserProfile& user = users[i];
          Rng user_rng = Rng::ForStream(session_root, user.user_id);
          const std::vector<workload::SessionPlan> planned =
              session_model.PlanUser(user, user_rng);
          for (const workload::SessionPlan& s : planned)
            emitter.EmitSession(s, user_rng, trace);
          (void)SessionStartOrder;  // session merge order, kept for fidelity
        }
        std::stable_sort(trace.begin(), trace.end(), LogRecordTimeOrder);
      });

  return MergeSortedRuns(std::move(local_runs), LogRecordTimeOrder);
}

// -------------------------------------------------------------------------

struct Sample {
  std::string mode;
  int threads = 0;
  double seconds = 0;
  std::size_t records = 0;
  std::uint64_t fingerprint = 0;
  workload::GenTimings gt;  // new path only
};

workload::WorkloadConfig ConfigFor(std::size_t users, int threads) {
  workload::WorkloadConfig cfg;
  cfg.population.mobile_users = users;
  cfg.population.pc_only_users = users / 3;
  cfg.seed = 42;
  cfg.threads = threads;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t users = 20000;
  int repeats = 3;
  double min_speedup = 1.8;
  std::string out_path = "BENCH_PR10.json";
  std::vector<int> threads_list = {1, 4};
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--users") == 0) {
      users = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--repeats") == 0) {
      repeats = std::atoi(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--min-speedup") == 0) {
      min_speedup = std::strtod(argv[i + 1], nullptr);
    } else if (std::strcmp(argv[i], "--out") == 0) {
      out_path = argv[i + 1];
    } else if (std::strcmp(argv[i], "--threads-list") == 0) {
      threads_list.clear();
      for (const char* p = argv[i + 1]; *p != '\0';) {
        threads_list.push_back(std::atoi(p));
        while (*p != '\0' && *p != ',') ++p;
        if (*p == ',') ++p;
      }
    }
  }

  std::vector<Sample> samples;
  for (const int threads : threads_list) {
    const workload::WorkloadConfig cfg = ConfigFor(users, threads);
    for (int r = 0; r < repeats; ++r) {
      {
        Sample s;
        s.mode = "old";
        s.threads = threads;
        const auto t0 = Clock::now();
        const std::vector<LogRecord> trace = OldGenerate(cfg);
        s.seconds = Since(t0);
        s.records = trace.size();
        s.fingerprint = TraceFingerprint(std::span<const LogRecord>(trace));
        std::fprintf(stderr,
                     "old  threads=%d run=%d  %.2fs  %zu records  fp %016"
                     PRIx64 "\n",
                     threads, r, s.seconds, s.records, s.fingerprint);
        samples.push_back(s);
      }
      {
        Sample s;
        s.mode = "new";
        s.threads = threads;
        const auto t0 = Clock::now();
        const workload::Workload w =
            workload::WorkloadGenerator(cfg).Generate(&s.gt);
        s.seconds = Since(t0);
        s.records = w.trace.size();
        s.fingerprint = TraceFingerprint(std::span<const LogRecord>(w.trace));
        std::fprintf(stderr,
                     "new  threads=%d run=%d  %.2fs  %zu records  fp %016"
                     PRIx64 "  (plan %.2f emit %.2f sort %.2f)\n",
                     threads, r, s.seconds, s.records, s.fingerprint,
                     s.gt.plan_s, s.gt.emit_s, s.gt.sort_s);
        samples.push_back(s);
      }
    }
  }

  // Hard gate 1: every fingerprint identical — old, new, every thread
  // count, every repeat.
  bool identical = true;
  for (const Sample& s : samples)
    identical = identical && s.fingerprint == samples.front().fingerprint &&
                s.records == samples.front().records;

  // Hard gate 2: best-of-repeats speedup at each thread count.
  const auto best = [&](const char* mode, int threads) {
    double b = 1e300;
    for (const Sample& s : samples)
      if (s.mode == mode && s.threads == threads) b = std::min(b, s.seconds);
    return b;
  };
  std::string speedup_json;
  double speedup_t1 = 0;
  for (const int threads : threads_list) {
    const double ratio = best("old", threads) / best("new", threads);
    if (threads == threads_list.front()) speedup_t1 = ratio;
    char line[128];
    std::snprintf(line, sizeof(line),
                  "    {\"threads\": %d, \"old_best_seconds\": %.3f, "
                  "\"new_best_seconds\": %.3f, \"speedup\": %.2f}%s\n",
                  threads, best("old", threads), best("new", threads), ratio,
                  threads == threads_list.back() ? "" : ",");
    speedup_json += line;
    std::fprintf(stderr, "threads=%d: old %.2fs new %.2fs -> %.2fx\n",
                 threads, best("old", threads), best("new", threads), ratio);
  }
  const bool pass = identical && speedup_t1 >= min_speedup;

  std::string body;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "  \"mobile_users\": %zu,\n"
                "  \"trace_records\": %zu,\n"
                "  \"repeats\": %d,\n"
                "  \"fingerprint\": \"%016" PRIx64 "\",\n"
                "  \"fingerprints_identical\": %s,\n"
                "  \"speedup_threads_first\": %.2f,\n"
                "  \"min_speedup_required\": %.2f,\n"
                "  \"pass\": %s,\n"
                "  \"speedups\": [\n",
                users, samples.front().records, repeats,
                samples.front().fingerprint, identical ? "true" : "false",
                speedup_t1, min_speedup, pass ? "true" : "false");
  body += buf;
  body += speedup_json;
  body += "  ],\n  \"samples\": [\n";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"mode\": \"%s\", \"threads\": %d, \"seconds\": %.3f, "
        "\"records_per_second\": %.0f, \"plan_seconds\": %.3f, "
        "\"emit_seconds\": %.3f, \"sort_seconds\": %.3f}%s\n",
        s.mode.c_str(), s.threads, s.seconds,
        static_cast<double>(s.records) / s.seconds, s.gt.plan_s, s.gt.emit_s,
        s.gt.sort_s, i + 1 < samples.size() ? "," : "");
    body += buf;
  }
  body += "  ]\n";
  bench::EmitBenchJson(out_path, "pr10_generator_fast_path", body);

  std::fprintf(stderr, "identical=%s speedup=%.2fx (need %.2fx) -> %s\n",
               identical ? "yes" : "NO", speedup_t1, min_speedup,
               pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
