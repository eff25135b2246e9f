// Trace analytics — the "bring your own logs" path.
//
// Demonstrates the trace toolchain end to end: generate a week of logs,
// anonymize them (as the paper's released dataset was), write them to CSV
// and to the compact columnar v2 format, read them back, and run the full
// analysis pipeline on the reloaded trace. Point the reader at FromCsvLine /
// ReadCsvTrace to run the pipeline on real front-end logs instead.
//
//   ./trace_analytics [mobile_users] [output_dir]
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "core/pipeline.h"
#include "trace/anonymizer.h"
#include "trace/log_io.h"
#include "workload/generator.h"

int main(int argc, char** argv) {
  using namespace mcloud;

  workload::WorkloadConfig config;
  config.population.mobile_users =
      argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 2000;
  config.population.pc_only_users = config.population.mobile_users / 4;
  const std::filesystem::path dir =
      argc > 2 ? argv[2] : std::filesystem::temp_directory_path();

  std::printf("Generating logs for %zu mobile users...\n",
              config.population.mobile_users);
  const auto w = workload::WorkloadGenerator(config).Generate();

  // Anonymize user and device IDs, exactly as the released dataset does.
  const Anonymizer anonymizer("example-release-key");
  const auto anonymized = anonymizer.Apply(w.trace);

  const auto csv_path = dir / "mcloud_trace.csv";
  const auto bin_path = dir / "mcloud_trace.v2";
  WriteTrace(csv_path, anonymized);
  WriteTrace(bin_path, anonymized);
  std::printf("Wrote %zu records:\n  CSV %s (%.1f MB)\n  v2  %s "
              "(%.1f MB)\n",
              anonymized.size(), csv_path.c_str(),
              ToMB(std::filesystem::file_size(csv_path)),
              bin_path.c_str(),
              ToMB(std::filesystem::file_size(bin_path)));

  // Reload from disk and analyze, as an external consumer would.
  const auto reloaded = ReadTrace(bin_path);
  std::printf("\nReloaded %zu records; running the analysis pipeline...\n\n",
              reloaded.size());
  const core::FullReport report = core::AnalysisPipeline().Run(reloaded);
  std::fputs(core::RenderFindings(report).c_str(), stdout);

  std::filesystem::remove(csv_path);
  std::filesystem::remove(bin_path);
  return 0;
}
