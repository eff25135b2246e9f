#include "validate/validator.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <utility>

#include "cloud/storage_service.h"
#include "core/pipeline.h"
#include "model/paper_params.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace mcloud::validate {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void AppendEscaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void Append(std::string& out, const char* fmt, auto... args) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  out += buf;
}

void AppendOutcome(std::string& out, const CheckOutcome& o) {
  Append(out, "    {\"id\": \"%s\", \"figure\": \"", o.id.c_str());
  AppendEscaped(out, o.figure);
  out += "\", \"what\": \"";
  AppendEscaped(out, o.what);
  Append(out, "\", \"metric\": \"%s\", \"statistic\": %.9g, "
              "\"threshold\": %.9g, \"p_value\": %.9g, \"n\": %zu, "
              "\"passed\": %s, \"wall_s\": %.6f, \"detail\": \"",
         o.result.metric.c_str(), o.result.statistic, o.result.threshold,
         o.result.p_value, o.result.n, o.passed ? "true" : "false",
         o.wall_s);
  AppendEscaped(out, o.result.detail);
  out += "\"}";
}

void AppendRun(std::string& out, const ValidationRun& r) {
  Append(out, "{\n  \"users\": %zu,\n  \"seed\": %llu,\n"
              "  \"fleet_flows\": %zu,\n  \"checks\": %zu,\n"
              "  \"passed\": %zu,\n  \"all_passed\": %s,\n"
              "  \"fingerprint\": \"%016llx\",\n"
              "  \"timings_s\": {\"generate\": %.3f, \"analyze\": %.3f, "
              "\"fleet\": %.3f, \"checks\": %.3f, \"total\": %.3f,\n"
              "    \"sketch_bytes\": %zu,\n"
              "    \"fleet_shards\": %zu, \"fleet_fingerprint\": \"%016llx\","
              " \"per_shard\": [",
         r.options.users, static_cast<unsigned long long>(r.options.seed),
         r.options.fleet_flows, r.outcomes.size(), r.Passed(),
         r.AllPassed() ? "true" : "false",
         static_cast<unsigned long long>(ManifestFingerprint(r)),
         r.generate_s, r.analyze_s, r.fleet_s, r.checks_s, r.total_s,
         r.sketch_bytes, r.fleet_shards.size(),
         static_cast<unsigned long long>(r.fleet_fingerprint));
  for (std::size_t i = 0; i < r.fleet_shards.size(); ++i) {
    const cloud::ShardTelemetry& t = r.fleet_shards[i];
    Append(out, "%s\n      {\"shard\": %u, \"sessions\": %llu, "
                "\"scheduled\": %llu, \"executed\": %llu, "
                "\"cancelled\": %llu, \"peak_pending\": %llu, "
                "\"wall_s\": %.6f}",
           i ? "," : "", t.shard,
           static_cast<unsigned long long>(t.sessions),
           static_cast<unsigned long long>(t.queue.scheduled),
           static_cast<unsigned long long>(t.queue.executed),
           static_cast<unsigned long long>(t.queue.cancelled),
           static_cast<unsigned long long>(t.queue.peak_pending), t.wall_s);
  }
  out += r.fleet_shards.empty() ? "]},\n  \"results\": [\n"
                                : "\n    ]},\n  \"results\": [\n";
  for (std::size_t i = 0; i < r.outcomes.size(); ++i) {
    AppendOutcome(out, r.outcomes[i]);
    out += i + 1 < r.outcomes.size() ? ",\n" : "\n";
  }
  out += "  ]\n}";
}

}  // namespace

std::size_t ValidationRun::Passed() const {
  std::size_t n = 0;
  for (const auto& o : outcomes)
    if (o.passed) ++n;
  return n;
}

// The one §4 recipe: the validate run, the paper report's §4 sections and
// bench_whatif_cache all execute these plans.
std::vector<workload::SessionPlan> FleetPlans(const ValidateOptions& o) {
  Rng rng(o.seed ^ 0x53454331u);  // independent of the workload streams
  std::vector<workload::SessionPlan> plans;
  plans.reserve(o.fleet_flows);
  for (std::size_t i = 0; i < o.fleet_flows; ++i) {
    workload::SessionPlan s;
    s.user_id = i + 1;
    s.device_id = i + 1;
    s.device_type = rng.Bernoulli(paper::kAndroidShare) ? DeviceType::kAndroid
                                                        : DeviceType::kIos;
    s.start = kTraceStart + static_cast<UnixSeconds>(i * 30);
    workload::FileOp op;
    if (rng.Bernoulli(0.6)) {
      op.direction = Direction::kStore;
      op.size = FromMB(1.0 + rng.ExponentialMean(4.0));
    } else {
      op.direction = Direction::kRetrieve;
      op.size = FromMB(2.0 + rng.ExponentialMean(20.0));
    }
    s.ops.push_back(op);
    plans.push_back(s);
  }
  return plans;
}

ValidationInputs BuildValidationInputs(const ValidateOptions& options,
                                       ValidationRun* timings) {
  ValidationInputs in;

  workload::WorkloadConfig cfg;
  cfg.seed = options.seed;
  cfg.population.mobile_users = options.users;
  cfg.population.pc_only_users = options.pc_users == ValidateOptions::kPcUsersAuto
                                     ? options.users / 3
                                     : options.pc_users;
  cfg.model = options.model;
  cfg.threads = options.threads;
  const workload::WorkloadGenerator generator(cfg);
  core::PipelineOptions popts;
  popts.threads = options.threads;
  // Each slice is walked as it seals, on the generator's pool; the
  // partitioned trace is written only into a given spill directory.
  workload::SpillConfig spill;
  if (!options.spill_dir.empty()) {
    spill.dir = options.spill_dir;
    std::filesystem::create_directories(spill.dir);
  }
  spill.max_buffer_bytes = workload::SpillBufferBytes(options.max_memory_mb);
  workload::GenTimings gt;
  core::StageTimings st;
  in.report = core::AnalysisPipeline(popts).RunSlices(
      [&](const SliceVisitor& visit) {
        (void)generator.GenerateToPartitions(spill, visit, &gt);
      },
      &st);
  if (timings) {
    timings->generate_s = gt.total_s;
    timings->analyze_s = st.total_s;
    timings->sketch_bytes = in.report.sketches.MemoryBytes();
  }

  const auto t0 = Clock::now();
  cloud::FleetConfig fleet_cfg;
  fleet_cfg.service.seed = options.seed;
  fleet_cfg.shards = options.fleet_shards;
  fleet_cfg.threads = options.threads;
  cloud::FleetResult fleet = cloud::ExecuteFleet(fleet_cfg, FleetPlans(options));
  if (timings) {
    timings->fleet_fingerprint = cloud::FingerprintServiceResult(fleet.result);
    timings->fleet_shards = std::move(fleet.shards);
  }
  in.fleet_perf = std::move(fleet.result.chunk_perf);
  in.fleet_logs = std::move(fleet.result.logs);
  // Fig 13: one store flow per platform at the paper's median RTT so the
  // timeline comparison isolates the platform asymmetry.
  cloud::ServiceConfig service_cfg;
  service_cfg.seed = options.seed;
  const cloud::StorageService service(service_cfg);
  in.android_flow =
      service.SimulateFlow(DeviceType::kAndroid, Direction::kStore,
                           options.flow_file_size, options.seed,
                           paper::kMedianRtt);
  in.ios_flow =
      service.SimulateFlow(DeviceType::kIos, Direction::kStore,
                           options.flow_file_size, options.seed,
                           paper::kMedianRtt);
  if (timings) timings->fleet_s = Since(t0);
  return in;
}

ValidationRun RunValidation(const ValidateOptions& options) {
  const auto t_total = Clock::now();
  ValidationRun run;
  run.options = options;
  run.inputs = std::make_shared<const ValidationInputs>(
      BuildValidationInputs(options, &run));
  const auto t0 = Clock::now();
  run.outcomes = EvaluateChecks(*run.inputs);
  run.checks_s = Since(t0);
  run.total_s = Since(t_total);
  return run;
}

SeedSweep RunSeedSweep(const ValidateOptions& options, std::size_t seeds) {
  SeedSweep sweep;
  sweep.runs.reserve(seeds);
  std::map<std::string, std::size_t> failures;
  std::vector<double> pass_indicator;
  pass_indicator.reserve(seeds);
  for (std::size_t i = 0; i < seeds; ++i) {
    ValidateOptions o = options;
    o.seed = options.seed + i;
    ValidationRun run = RunValidation(o);
    run.inputs.reset();
    pass_indicator.push_back(run.AllPassed() ? 1.0 : 0.0);
    for (const auto& c : run.outcomes)
      if (!c.passed) ++failures[c.id];
    sweep.runs.push_back(std::move(run));
  }
  sweep.run_pass_rate =
      std::count(pass_indicator.begin(), pass_indicator.end(), 1.0) /
      static_cast<double>(pass_indicator.size());
  const std::vector<BootstrapCi> ci = BootstrapPercentileCi(
      pass_indicator,
      [](std::span<const double> xs) {
        double sum = 0;
        for (const double x : xs) sum += x;
        return std::vector<double>{sum / static_cast<double>(xs.size())};
      },
      1000, 0.95, options.seed);
  sweep.pass_rate_ci = ci.front();
  for (const auto& [id, count] : failures)
    sweep.failures_by_check.emplace_back(id, count);
  return sweep;
}

std::uint64_t ManifestFingerprint(const ValidationRun& run) {
  // FNV-1a, byte-wise, matching the constants in cloud/fleet.cc. Everything
  // here is a pure function of (options minus threads, build); no wall
  // clocks, so --threads 1 and --threads N runs fingerprint identically.
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix_u64 = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  const auto mix_double = [&mix_u64](double d) {
    mix_u64(std::bit_cast<std::uint64_t>(d));
  };
  const auto mix_str = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    h ^= 0xFF;  // length delimiter
    h *= 1099511628211ULL;
  };

  mix_u64(run.options.users);
  mix_u64(run.options.seed);
  mix_u64(run.options.fleet_flows);
  mix_u64(run.options.flow_file_size);
  mix_u64(run.options.fleet_shards);
  mix_u64(run.fleet_fingerprint);
  mix_u64(run.outcomes.size());
  for (const CheckOutcome& o : run.outcomes) {
    mix_str(o.id);
    mix_double(o.result.statistic);
    mix_double(o.result.threshold);
    mix_double(o.result.p_value);
    mix_u64(o.result.n);
    mix_u64(o.passed ? 1 : 0);
  }
  mix_u64(run.fleet_shards.size());
  for (const cloud::ShardTelemetry& t : run.fleet_shards) {
    mix_u64(t.shard);
    mix_u64(t.sessions);
    mix_u64(t.queue.scheduled);
    mix_u64(t.queue.executed);
    mix_u64(t.queue.cancelled);
    mix_u64(t.queue.peak_pending);
  }
  return h;
}

std::string ToJson(const ValidationRun& run) {
  std::string out;
  AppendRun(out, run);
  out += "\n";
  return out;
}

std::string ToJson(const SeedSweep& sweep) {
  std::string out;
  Append(out, "{\n  \"seeds\": %zu,\n  \"run_pass_rate\": %.4f,\n"
              "  \"pass_rate_ci95\": [%.4f, %.4f],\n"
              "  \"failures_by_check\": {",
         sweep.runs.size(), sweep.run_pass_rate, sweep.pass_rate_ci.lo,
         sweep.pass_rate_ci.hi);
  for (std::size_t i = 0; i < sweep.failures_by_check.size(); ++i) {
    const auto& [id, count] = sweep.failures_by_check[i];
    Append(out, "%s\"%s\": %zu", i ? ", " : "", id.c_str(), count);
  }
  out += "},\n  \"runs\": [\n";
  for (std::size_t i = 0; i < sweep.runs.size(); ++i) {
    std::string run_json;
    AppendRun(run_json, sweep.runs[i]);
    // Indent the nested run objects two spaces for readability.
    out += "  ";
    for (const char c : run_json) {
      out += c;
      if (c == '\n') out += "  ";
    }
    out += i + 1 < sweep.runs.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace mcloud::validate
