#include "scenario/conformance.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "core/report.h"
#include "stats/tdigest.h"
#include "validate/gof.h"
#include "validate/tolerance.h"
#include "workload/generator.h"

namespace mcloud::scenario {

namespace {

std::string Fmt(const char* fmt, auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return std::string(buf);
}

/// (bin mean, bin count) pairs of a sketch's occupied bins — same shape the
/// validate layer feeds its grouped GoF statistics.
struct SketchGroups {
  std::vector<double> values;
  std::vector<std::uint64_t> counts;
};

SketchGroups GroupsOf(const LogBins& sketch) {
  SketchGroups g;
  for (std::size_t b = 0; b < sketch.bins(); ++b) {
    if (sketch.Count(b) == 0) continue;
    g.values.push_back(sketch.Mean(b));
    g.counts.push_back(sketch.Count(b));
  }
  return g;
}

MixtureExponential MixtureOf(const paper::MixtureExpParams& p) {
  std::vector<MixtureExponential::Component> cs;
  cs.reserve(p.weights.size());
  for (std::size_t i = 0; i < p.weights.size(); ++i)
    cs.push_back({p.weights[i], p.means_mb[i]});
  return MixtureExponential(std::move(cs));
}

validate::CheckOutcome MakeOutcome(std::string id, std::string what,
                                   validate::CheckResult result) {
  validate::CheckOutcome o;
  o.id = std::move(id);
  o.figure = "spec";
  o.what = std::move(what);
  o.passed = result.statistic <= result.threshold;
  o.result = std::move(result);
  return o;
}

/// |measured - declared| share gate with the sample-size-aware band.
validate::CheckOutcome ShareCheck(const std::string& id,
                                  const std::string& what, double measured,
                                  double declared, double slack,
                                  std::size_t n) {
  validate::CheckResult r;
  r.metric = "|d share|";
  r.statistic = std::abs(measured - declared);
  r.threshold = validate::SharePolicy{slack}.Band(declared, n);
  r.n = n;
  r.detail = Fmt("measured %.4f vs declared %.4f (n=%zu)", measured, declared,
                 n);
  return MakeOutcome(id, what, std::move(r));
}

int CircularHourDistance(int a, int b) {
  const int d = std::abs(a - b) % 24;
  return d > 12 ? 24 - d : d;
}

}  // namespace

ConformanceRun RunConformance(const WorkloadSpec& spec,
                              const ConformanceOptions& options) {
  workload::WorkloadConfig cfg = Compile(spec, options.seed, options.threads);
  if (options.users_override > 0) {
    // Keep the spec's PC:mobile ratio when scaling the population down.
    cfg.population.pc_only_users =
        spec.mobile_users
            ? spec.pc_only_users * options.users_override / spec.mobile_users
            : spec.pc_only_users;
    cfg.population.mobile_users = options.users_override;
  }

  core::PipelineOptions po;
  po.trace_start = cfg.trace_start;
  po.days = cfg.population.days;
  po.session_tau = kHour;
  po.threads = options.threads;

  const workload::WorkloadGenerator gen(cfg);
  const core::AnalysisPipeline pipeline(po);
  workload::SpillConfig spill;
  if (!options.spill_dir.empty()) {
    spill.dir = options.spill_dir;
    std::filesystem::create_directories(spill.dir);
  }
  spill.max_buffer_bytes = workload::SpillBufferBytes(options.max_memory_mb);
  const core::FullReport report =
      pipeline.RunSlices([&](const SliceVisitor& visit) {
        (void)gen.GenerateToPartitions(spill, visit);
      });

  ConformanceRun run;
  run.spec_name = spec.name;
  run.users = cfg.population.mobile_users + cfg.population.pc_only_users;
  run.sessions = report.session_split.total;
  run.report_fingerprint = core::FingerprintReport(report);

  const SpecTargets& t = spec.targets;
  const analysis::SessionTypeSplit& split = report.session_split;

  if (t.store_share) {
    run.outcomes.push_back(ShareCheck(
        "target_store_share", "store-only session share", split.StoreShare(),
        *t.store_share, t.session_share_slack, split.total));
  }
  if (t.retrieve_share) {
    run.outcomes.push_back(
        ShareCheck("target_retrieve_share", "retrieve-only session share",
                   split.RetrieveShare(), *t.retrieve_share,
                   t.session_share_slack, split.total));
  }
  if (t.mixed_share) {
    run.outcomes.push_back(ShareCheck(
        "target_mixed_share", "mixed session share", split.MixedShare(),
        *t.mixed_share, t.mixed_share_slack, split.total));
  }
  if (t.single_op_share) {
    const double measured =
        split.total ? static_cast<double>(report.sketches.single_op_sessions) /
                          static_cast<double>(split.total)
                    : 0.0;
    run.outcomes.push_back(
        ShareCheck("target_single_op_share", "single-operation session share",
                   measured, *t.single_op_share, t.single_op_slack,
                   split.total));
  }
  if (t.peak_hour) {
    const int measured = report.timeseries.PeakHourOfDay();
    validate::CheckResult r;
    r.metric = "|d hour|";
    r.statistic = CircularHourDistance(measured, *t.peak_hour);
    r.threshold = t.peak_hour_tolerance;
    r.n = report.records;
    r.detail = Fmt("peak hour %d vs declared %d", measured, *t.peak_hour);
    run.outcomes.push_back(
        MakeOutcome("target_peak_hour", "diurnal peak hour", std::move(r)));
  }
  if (t.android_share) {
    run.outcomes.push_back(ShareCheck(
        "target_android_share", "Android share of mobile accesses",
        report.android_access_share, *t.android_share, t.android_share_slack,
        report.records));
  }
  if (t.store_size_ks_slack) {
    const SketchGroups g = GroupsOf(report.sketches.store_avg_mb);
    const MixtureExponential model = MixtureOf(spec.model.store_file_size);
    const validate::GofResult ks = validate::KsGrouped(
        g.values, g.counts, [&](double x) { return model.Cdf(x); });
    validate::CheckResult r;
    r.metric = "KS D";
    r.statistic = ks.statistic;
    r.threshold = validate::KsBand(*t.store_size_ks_slack, ks.n);
    r.p_value = ks.p_value;
    r.n = ks.n;
    r.detail = Fmt("per-session avg store MB vs declared mixture (D=%.4f)",
                   ks.statistic);
    run.outcomes.push_back(MakeOutcome(
        "target_store_size_ks", "store avg-file-size mixture", std::move(r)));
  }
  if (t.retrieve_size_ks_slack) {
    const SketchGroups g = GroupsOf(report.sketches.retrieve_avg_mb);
    const MixtureExponential model = MixtureOf(spec.model.retrieve_file_size);
    const validate::GofResult ks = validate::KsGrouped(
        g.values, g.counts, [&](double x) { return model.Cdf(x); });
    validate::CheckResult r;
    r.metric = "KS D";
    r.statistic = ks.statistic;
    r.threshold = validate::KsBand(*t.retrieve_size_ks_slack, ks.n);
    r.p_value = ks.p_value;
    r.n = ks.n;
    r.detail = Fmt("per-session avg retrieve MB vs declared mixture (D=%.4f)",
                   ks.statistic);
    run.outcomes.push_back(MakeOutcome("target_retrieve_size_ks",
                                       "retrieve avg-file-size mixture",
                                       std::move(r)));
  }
  return run;
}

std::string RenderText(const ConformanceRun& run) {
  std::string out;
  out += Fmt("spec %s: %zu users, %zu sessions, report fingerprint %016llx\n",
             run.spec_name.c_str(), run.users, run.sessions,
             static_cast<unsigned long long>(run.report_fingerprint));
  for (const auto& o : run.outcomes) {
    out += Fmt("  [%s] %-26s %-10s %.4f <= %.4f  %s\n",
               o.passed ? "PASS" : "FAIL", o.id.c_str(),
               o.result.metric.c_str(), o.result.statistic,
               o.result.threshold, o.result.detail.c_str());
  }
  std::size_t passed = 0;
  for (const auto& o : run.outcomes) passed += o.passed ? 1 : 0;
  out += Fmt("%zu/%zu declared targets met\n", passed, run.outcomes.size());
  return out;
}

std::string ToJson(const ConformanceRun& run) {
  std::string out = "{\n";
  out += Fmt("  \"spec\": \"%s\",\n", run.spec_name.c_str());
  out += Fmt("  \"users\": %zu,\n", run.users);
  out += Fmt("  \"sessions\": %zu,\n", run.sessions);
  out += Fmt("  \"report_fingerprint\": \"%016llx\",\n",
             static_cast<unsigned long long>(run.report_fingerprint));
  out += Fmt("  \"passed\": %s,\n", run.AllPassed() ? "true" : "false");
  out += "  \"checks\": [\n";
  for (std::size_t i = 0; i < run.outcomes.size(); ++i) {
    const auto& o = run.outcomes[i];
    out += Fmt(
        "    {\"id\": \"%s\", \"metric\": \"%s\", \"statistic\": %.17g, "
        "\"threshold\": %.17g, \"n\": %zu, \"passed\": %s}%s\n",
        o.id.c_str(), o.result.metric.c_str(), o.result.statistic,
        o.result.threshold, o.result.n, o.passed ? "true" : "false",
        i + 1 < run.outcomes.size() ? "," : "");
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace mcloud::scenario
