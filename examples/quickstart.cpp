// Quickstart: generate a synthetic week of mobile cloud storage logs,
// run the full analysis pipeline, and print the findings summary.
//
//   ./quickstart [mobile_users] [seed]
//
// This is the 60-second tour of the library: WorkloadGenerator stands in for
// the paper's proprietary dataset, AnalysisPipeline is the paper's §3
// methodology, and RenderFindings prints measured values next to the
// paper's published ones.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/pipeline.h"
#include "workload/generator.h"

int main(int argc, char** argv) {
  using namespace mcloud;

  workload::WorkloadConfig config;
  config.population.mobile_users = argc > 1 ? std::strtoul(argv[1], nullptr, 10)
                                            : 8000;
  config.population.pc_only_users = config.population.mobile_users / 3;
  config.seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 42;

  std::printf("Generating one week of logs for %zu mobile users "
              "(+%zu PC-only), seed %llu...\n",
              config.population.mobile_users,
              config.population.pc_only_users,
              static_cast<unsigned long long>(config.seed));

  const workload::WorkloadGenerator generator(config);
  const workload::Workload w = generator.Generate();
  std::printf("  users=%zu log records=%zu\n\n", w.users.size(),
              w.trace.size());

  const core::AnalysisPipeline pipeline;
  const core::FullReport report = pipeline.Run(w.trace);
  std::fputs(core::RenderFindings(report).c_str(), stdout);
  return 0;
}
