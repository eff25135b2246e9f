// perfbench_trace — the traced pass of the mcloud benchmark.
//
//   perfbench_trace WORKLOAD --seed S --threads T --dir D --spans FILE
//                   [--users N] [--max-memory-mb M] [--fail-rate R]
//                   [--loss-burst R] [--trace PATH --connections C
//                   --max-chunk-kb K --qps Q,Q...]
//   perfbench_trace live-input --users N --seed S --threads T
//                   --requests R --out PATH
//
// Calls the same public library functions the user-facing commands call
// (`mcloudctl generate|analyze|grow|simulate`, `mcloudload` against
// `mcloudd`) with a span around each call. Spans stay in memory and are
// written to FILE as JSON at exit; the per-layer metrics derived from them
// and from the structs the calls return are printed on stdout as one JSON
// object. The end-to-end numbers come from untraced runs of the commands
// themselves (perfbench/run.py); this binary only explains where that time
// went.
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "analysis/availability.h"
#include "cloud/fleet.h"
#include "core/pipeline.h"
#include "net/epoll_server.h"
#include "net/live_service.h"
#include "net/replay.h"
#include "trace/log_io.h"
#include "trace/partitioned_trace.h"
#include "trace/record_columns.h"
#include "workload/generator.h"

namespace {

using namespace mcloud;
using Clock = std::chrono::steady_clock;

/// In-memory span store. Spans are appended from the calling thread (and,
/// for the live workload, the server thread); the mutex guards the vector.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0;
    double end_s = 0;
    int parent = -1;
  };

  explicit Tracer(std::string workload) : workload_(std::move(workload)) {}

  int Begin(std::string name, int parent) {
    const double now = Now();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), now, now, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  double End(int id) {
    const double now = Now();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_s = now;
    return now - spans_[static_cast<std::size_t>(id)].start_s;
  }

  /// Run `fn` inside a top-level (or `parent`-owned) span; returns its
  /// result and stores the span's duration in `seconds`.
  template <class Fn>
  auto Time(const std::string& name, double& seconds, Fn&& fn,
            int parent = -1) {
    const int id = Begin(name, parent);
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      seconds = End(id);
    } else {
      auto result = fn();
      seconds = End(id);
      return result;
    }
  }

  /// Σ durations of the spans without a parent: the time the traced pass
  /// can attribute to library calls.
  [[nodiscard]] double TopLevelSeconds() const {
    double sum = 0;
    for (const auto& s : spans_)
      if (s.parent < 0) sum += s.end_s - s.start_s;
    return sum;
  }

  void Write(const std::string& path, std::uint64_t seed) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) throw Error("perfbench_trace: cannot write " + path);
    std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"spans\": [",
                 workload_.c_str(), static_cast<unsigned long long>(seed));
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                   "\"workload\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f}",
                   i ? "," : "", i, s.name.c_str(), s.parent,
                   workload_.c_str(), s.start_s, s.end_s);
    }
    std::fputs("\n]}\n", f);
    std::fclose(f);
  }

 private:
  [[nodiscard]] double Now() const {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }

  std::string workload_;
  Clock::time_point t0_ = Clock::now();
  std::mutex mu_;
  std::vector<Span> spans_;
};

struct Args {
  std::string workload;
  std::map<std::string, std::string> flags;

  [[nodiscard]] std::string Get(const std::string& key) const {
    const auto it = flags.find(key);
    if (it == flags.end()) throw Error("perfbench_trace: missing --" + key);
    return it->second;
  }
  [[nodiscard]] std::uint64_t U64(const std::string& key) const {
    return std::strtoull(Get(key).c_str(), nullptr, 10);
  }
};

using Metrics = std::map<std::string, double>;

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1))];
}

void AddGenTimings(Metrics& m, const workload::GenTimings& gt) {
  m["workload.plan_cpu_s"] = gt.plan_s;
  m["workload.emit_cpu_s"] = gt.emit_s;
  m["workload.sort_s"] = gt.sort_s;
}

void AddStageTimings(Metrics& m, const core::StageTimings& st,
                     const core::FullReport& report) {
  m["analysis.scan_s"] = st.scan_s;
  m["analysis.sessionize_s"] = st.sessionize_s;
  m["analysis.per_user_s"] = st.per_user_s;
  m["analysis.fits_s"] = st.fits_s;
  m["analysis.sketch_bytes"] =
      static_cast<double>(report.sketches.MemoryBytes());
}

workload::WorkloadConfig PopulationConfig(const Args& args,
                                          std::size_t pc_users) {
  workload::WorkloadConfig cfg;
  cfg.population.mobile_users = args.U64("users");
  cfg.population.pc_only_users = pc_users;
  cfg.seed = args.U64("seed");
  cfg.threads = static_cast<int>(args.U64("threads"));
  return cfg;
}

/// `mcloudctl generate --users N --threads T OUT.v2` then
/// `mcloudctl analyze OUT.v2 --threads T`.
Metrics BatchResident(const Args& args, Tracer& tr) {
  Metrics m;
  const auto cfg = PopulationConfig(args, args.U64("users") / 3);
  const std::filesystem::path path =
      std::filesystem::path(args.Get("dir")) / "trace.v2";
  std::size_t records = 0;
  {
    workload::GenTimings gt;
    const workload::Workload w = tr.Time("workload.Generate",
        m["workload.generate_s"],
        [&] { return workload::WorkloadGenerator(cfg).Generate(&gt); });
    AddGenTimings(m, gt);
    records = w.trace.size();
    const TraceStore store = tr.Time("trace.TraceStore::FromRecords",
        m["trace.to_store_s"], [&] { return TraceStore::FromRecords(w.trace); });
    tr.Time("trace.WriteColumnarTrace", m["trace.write_s"],
            [&] { WriteColumnarTrace(path, store); });
    double fp_s = 0;
    tr.Time("trace.TraceFingerprint", fp_s, [&] {
      return TraceFingerprint(std::span<const LogRecord>(w.trace));
    });
  }
  m["trace.bytes_per_record"] =
      static_cast<double>(std::filesystem::file_size(path)) /
      static_cast<double>(records);

  core::PipelineOptions opts;
  opts.threads = cfg.threads;
  const core::AnalysisPipeline pipeline(opts);
  const TraceStore store = tr.Time("trace.ReadColumnarTrace", m["trace.read_s"],
      [&] { return ReadColumnarTrace(path, kAnalysisColumns); });
  core::StageTimings st;
  const core::FullReport report = tr.Time("analysis.AnalysisPipeline::Run",
      m["analysis.run_s"], [&] { return pipeline.Run(store, &st); });
  AddStageTimings(m, st, report);
  double render_s = 0;
  tr.Time("core.RenderFindings", render_s,
          [&] { return core::RenderFindings(report); });
  return m;
}

/// `mcloudctl grow --users N --threads T --max-memory-mb M DIR` (two-phase).
Metrics GrowBounded(const Args& args, Tracer& tr) {
  Metrics m;
  const auto cfg = PopulationConfig(args, args.U64("users") / 3);
  const std::uint64_t budget_mb = args.U64("max-memory-mb");
  workload::SpillConfig spill;
  spill.dir = std::filesystem::path(args.Get("dir")) / "parts";
  std::filesystem::create_directories(spill.dir);
  spill.max_buffer_bytes = budget_mb * (1024 * 1024 / 3);
  core::PipelineOptions popts;
  popts.threads = cfg.threads;
  popts.max_memory_mb = static_cast<std::size_t>(budget_mb);
  const core::AnalysisPipeline pipeline(popts);

  workload::GenTimings gt;
  const workload::SpillSummary sum = tr.Time(
      "workload.GenerateToPartitions", m["workload.generate_s"], [&] {
        return workload::WorkloadGenerator(cfg).GenerateToPartitions(spill,
                                                                     &gt);
      });
  AddGenTimings(m, gt);
  m["trace.spill_write_s"] = gt.write_s;
  m["trace.spills"] = static_cast<double>(sum.spills);
  m["trace.run_files"] = static_cast<double>(sum.run_files);
  const PartitionedTrace part = tr.Time("trace.PartitionedTrace::Open",
      m["trace.open_s"], [&] { return PartitionedTrace::Open(spill.dir); });
  core::StageTimings st;
  const core::FullReport report = tr.Time(
      "analysis.AnalysisPipeline::RunStreaming", m["analysis.stream_s"],
      [&] { return pipeline.RunStreaming(part, &st); });
  AddStageTimings(m, st, report);
  double render_s = 0;
  tr.Time("core.RenderFindings", render_s,
          [&] { return core::RenderFindings(report); });
  return m;
}

std::size_t ResultBytes(const cloud::ServiceResult& r) {
  return r.logs.capacity() * sizeof(LogRecord) +
         r.retrievals.capacity() * sizeof(cloud::RetrievalEvent) +
         r.chunk_perf.capacity() * sizeof(cloud::ChunkPerf) +
         r.session_outcomes.capacity() * sizeof(cloud::SessionOutcome);
}

/// `mcloudctl simulate --fail-rate R --loss-burst R --users N --pc P
/// --threads T`.
Metrics FleetFaults(const Args& args, Tracer& tr) {
  Metrics m;
  workload::WorkloadConfig wcfg = PopulationConfig(args, args.U64("pc"));
  wcfg.threads = 0;  // the command leaves generation at its default
  const workload::Workload w = tr.Time("workload.GeneratePlansOnly",
      m["workload.plans_s"],
      [&] { return workload::WorkloadGenerator(wcfg).GeneratePlansOnly(); });

  cloud::FleetConfig cfg;
  cfg.service.faults.frontend_fail_rate = std::strtod(
      args.Get("fail-rate").c_str(), nullptr);
  cfg.service.faults.loss_burst_rate = std::strtod(
      args.Get("loss-burst").c_str(), nullptr);
  cfg.threads = static_cast<int>(args.U64("threads"));
  const cloud::FleetResult fleet = tr.Time("fleet.ExecuteFleet",
      m["fleet.execute_s"], [&] { return cloud::ExecuteFleet(cfg, w.sessions); });

  double max_wall = 0, sum_wall = 0;
  double scheduled = 0, executed = 0, cancelled = 0, peak_pending = 0;
  for (const auto& s : fleet.shards) {
    max_wall = std::max(max_wall, s.wall_s);
    sum_wall += s.wall_s;
    scheduled += static_cast<double>(s.queue.scheduled);
    executed += static_cast<double>(s.queue.executed);
    cancelled += static_cast<double>(s.queue.cancelled);
    peak_pending = std::max(peak_pending,
                            static_cast<double>(s.queue.peak_pending));
  }
  const double shards = static_cast<double>(fleet.shards.size());
  m["fleet.merge_s"] = m["fleet.execute_s"] - max_wall;
  m["fleet.shard_imbalance"] = sum_wall > 0 ? max_wall / (sum_wall / shards) : 0;
  m["fleet.result_mb"] = static_cast<double>(ResultBytes(fleet.result)) / kMiB;
  m["sim.events"] = executed;
  m["sim.events_per_s"] = sum_wall > 0 ? executed / sum_wall : 0;
  m["sim.cancel_ratio"] = scheduled > 0 ? cancelled / scheduled : 0;
  m["sim.peak_pending"] = peak_pending;

  const analysis::AvailabilityReport report = tr.Time(
      "analysis.Availability", m["analysis.availability_s"],
      [&] { return analysis::Availability(fleet.result); });
  double render_s = 0;
  tr.Time("analysis.RenderAvailability", render_s, [&] {
    return analysis::RenderAvailability(report) +
           std::to_string(
               analysis::SuccessRateByDevice(fleet.result).size());
  });
  const auto& r = fleet.result;
  m["tcp.restarts_per_flow"] =
      r.flows ? static_cast<double>(r.slow_start_restarts) /
                    static_cast<double>(r.flows)
              : 0;
  m["fault.retry_amplification"] = report.retry_amplification;
  m["fault.goodput_fraction"] = report.goodput_fraction;
  return m;
}

/// One `mcloudload --trace PATH --spawn mcloudd` invocation, with the server
/// in-process so its handler can be wrapped in a span.
struct LivePhase {
  net::ReplayReport report;
  std::vector<double> handle_s;
  std::vector<double> recv_s;
  double offered_qps = 0;
  Seconds duration = 0;
  bool log_ok = false;
};

LivePhase ReplayOnce(const Args& args, Tracer& tr,
                     const std::vector<LogRecord>& trace, double qps,
                     Metrics& m) {
  LivePhase phase;
  phase.offered_qps = qps;
  net::ReplayPlanOptions popts;
  popts.max_chunk_bytes = args.U64("max-chunk-kb") * kKiB;
  popts.target_qps = qps;
  const net::ReplayPlan plan = tr.Time("replay.BuildReplayPlan",
      m["replay.plan_s"], [&] { return net::BuildReplayPlan(trace, popts); });
  phase.duration = plan.duration;

  net::LiveService service(net::LiveServiceConfig{});
  const int replay_span = tr.Begin("replay.ExecuteReplay", -1);
  net::EpollServer server(
      net::ServerConfig{},
      [&](const net::HttpRequest& req, const net::RequestContext& ctx) {
        const int id = tr.Begin("net.LiveService::Handle", replay_span);
        net::HttpResponse resp = service.Handle(req, ctx);
        phase.handle_s.push_back(tr.End(id));
        phase.recv_s.push_back(ctx.recv_seconds);
        return resp;
      });
  net::ReplayOptions ropts;
  ropts.port = server.Start();
  ropts.connections = static_cast<int>(args.U64("connections"));
  std::exception_ptr server_error;
  std::thread loop([&] {
    try {
      server.Run();
    } catch (...) {
      server_error = std::current_exception();
    }
  });
  try {
    phase.report = net::ExecuteReplay(plan, ropts);
  } catch (...) {
    server.RequestStop();
    loop.join();
    throw;
  }
  server.RequestStop();
  loop.join();
  tr.End(replay_span);
  if (server_error) std::rethrow_exception(server_error);

  double check_s = 0;
  tr.Time("net.LiveLogMatchesTrace", check_s, [&] {
    std::vector<LogRecord> live = service.TakeLog();
    std::stable_sort(live.begin(), live.end(), LogRecordTimeOrder);
    phase.log_ok = !net::LiveLogMatchesTrace(trace, live).has_value();
  });
  return phase;
}

/// `mcloudload --trace PATH --spawn mcloudd` once per offered rate: the
/// first is the overload rate, the last the latency rate.
Metrics LiveReplay(const Args& args, Tracer& tr) {
  Metrics m;
  const std::vector<LogRecord> trace = tr.Time("trace.LoadTraceForReplay",
      m["trace.read_s"], [&] { return net::LoadTraceForReplay(args.Get("trace")); });

  std::vector<double> rates;
  const std::string qps = args.Get("qps");
  for (const char* p = qps.c_str(); *p;) {
    char* end = nullptr;
    rates.push_back(std::strtod(p, &end));
    if (end == p) throw Error("perfbench_trace: bad --qps " + qps);
    p = *end == ',' ? end + 1 : end;
  }
  if (rates.empty()) throw Error("perfbench_trace: --qps needs a rate");

  bool all_ok = true;
  double failures = 0;
  LivePhase first, last;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    LivePhase phase = ReplayOnce(args, tr, trace, rates[i], m);
    const auto& r = phase.report;
    all_ok = all_ok && phase.log_ok;
    failures += static_cast<double>(r.http_errors + r.transport_errors +
                                    r.verify_failures + (r.sent - r.ok));
    if (i + 1 == rates.size()) last = phase;  // a copy: it may be first too
    if (i == 0) first = std::move(phase);
  }
  // Server-side cost per request is taken at the overload rate, where the
  // loop is never idle; generator lateness at the latency rate, where an
  // open loop should keep up.
  double busy = 0;
  for (double s : first.handle_s) busy += s;
  m["net.handle_us_p50"] = Quantile(first.handle_s, 0.50) * 1e6;
  m["net.handle_us_p99"] = Quantile(first.handle_s, 0.99) * 1e6;
  m["net.recv_us_p50"] = Quantile(first.recv_s, 0.50) * 1e6;
  m["net.server_busy"] =
      first.report.wall_seconds > 0 ? busy / first.report.wall_seconds : 0;
  const double gets = static_cast<double>(first.report.index_serves +
                                          first.report.replica_serves);
  m["net.index_serve_ratio"] =
      gets > 0 ? static_cast<double>(first.report.index_serves) / gets : 0;
  m["replay.overrun_s"] = last.report.wall_seconds - last.duration;
  m["replay.achieved_over_offered"] =
      last.report.achieved_qps / last.offered_qps;
  m["live.requests"] = static_cast<double>(trace.size());
  m["live.failures"] = failures + (all_ok ? 0 : 1);
  return m;
}

/// The live-replay input: the first --requests records, in trace time
/// order, of a generated mobile-only population, written as the v1 trace
/// `mcloudload --trace` reads. Every input has the same number of requests,
/// so the fixed cost of a replay weighs the same on each.
int LiveInput(const Args& args) {
  const workload::Workload w =
      workload::WorkloadGenerator(PopulationConfig(args, 0)).Generate();
  const std::size_t n = args.U64("requests");
  if (w.trace.size() < n) {
    throw Error("perfbench_trace: population yields only " +
                std::to_string(w.trace.size()) + " records");
  }
  WriteBinaryTrace(args.Get("out"),
                   std::span<const LogRecord>(w.trace.data(), n));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fputs("usage: perfbench_trace WORKLOAD --seed S --threads T --dir D "
               "--spans FILE [workload flags]\n", stderr);
    return 2;
  }
  Args args;
  args.workload = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "perfbench_trace: bad argument %s\n", key.c_str());
      return 2;
    }
    args.flags[key.substr(2)] = argv[i + 1];
  }
  // As in mcloudd: a peer that hangs up must not kill the process.
  std::signal(SIGPIPE, SIG_IGN);
  try {
    if (args.workload == "live-input") return LiveInput(args);
    Tracer tracer(args.workload);
    const auto t0 = Clock::now();
    Metrics m;
    if (args.workload == "batch-resident") {
      m = BatchResident(args, tracer);
    } else if (args.workload == "grow-bounded") {
      m = GrowBounded(args, tracer);
    } else if (args.workload == "fleet-faults") {
      m = FleetFaults(args, tracer);
    } else if (args.workload == "live-replay") {
      m = LiveReplay(args, tracer);
    } else {
      std::fprintf(stderr, "perfbench_trace: unknown workload %s\n",
                   args.workload.c_str());
      return 2;
    }
    m["traced.wall_s"] =
        std::chrono::duration<double>(Clock::now() - t0).count();
    m["traced.top_level_s"] = tracer.TopLevelSeconds();
#ifdef NDEBUG
    m["build.ndebug"] = 1;
#else
    m["build.ndebug"] = 0;
#endif
    tracer.Write(args.Get("spans"), args.U64("seed"));
    std::string out = "{";
    for (const auto& [name, value] : m) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "%s\"%s\": %.9g", out.size() > 1 ? ", " : "",
                    name.c_str(), value);
      out += buf;
    }
    std::printf("%s}\n", out.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_trace: %s\n", e.what());
    return 1;
  }
  return 0;
}
