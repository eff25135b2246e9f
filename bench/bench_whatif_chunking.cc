// §4.3 what-ifs — the transmission optimizations the paper proposes,
// quantified by re-running the TCP substrate with each lever pulled:
// larger chunks (512 KB → 1.5-2 MB), batched chunk requests, server-side
// window scaling, and disabled slow-start-after-idle.
#include "bench_util.h"

#include "core/whatif.h"

namespace {

void PrintOutcomes(std::span<const mcloud::core::WhatIfOutcome> outcomes) {
  std::printf("  %-44s %9s %9s %8s %9s %9s %7s\n", "scenario", "median s",
              "mean s", "chunk s", "restarts", "timeouts", "Mbps");
  for (const auto& o : outcomes) {
    std::printf("  %-44s %9.2f %9.2f %8.2f %8.0f%% %9.2f %7.2f\n",
                o.name.c_str(), o.median_file_time, o.mean_file_time,
                o.median_chunk_ttran, 100 * o.restart_share,
                o.timeouts_per_flow, o.goodput_mbps);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mcloud;
  const tools::Args args =
      tools::Parse("bench_whatif_chunking", "bench_whatif_chunking",
                   {"file-mb flows threads", "", false}, argc, argv, 1);
  core::WhatIfConfig cfg;
  cfg.file_size = args.GetU64("file-mb", 8, tools::kMaxMiB) * kMiB;
  cfg.flows = args.GetU64("flows", 300);
  cfg.threads = args.GetU64<int>("threads", 0);

  bench::Header("§4.3 what-ifs", "transmission optimizations on the TCP sim");
  std::printf("# uploading a %.0f MB file, %zu flows per scenario\n\n",
              ToMB(cfg.file_size), cfg.flows);

  for (auto device : {DeviceType::kAndroid, DeviceType::kIos}) {
    cfg.device = device;
    std::printf("%s uploads:\n",
                device == DeviceType::kAndroid ? "Android" : "iOS");
    PrintOutcomes(core::RunWhatIf(cfg, core::StandardScenarios()));
    std::printf("\n");
  }

  std::printf("chunk-size sweep (Android uploads), §4.3's 'increase the "
              "chunk size to 1.5~2MB':\n");
  cfg.device = DeviceType::kAndroid;
  PrintOutcomes(core::RunWhatIf(cfg, core::ChunkSizeSweep()));

  std::printf("\nExpected shape (paper §4.3): larger chunks and batching "
              "shrink the number of\ninter-chunk idles and their slow-start "
              "restarts; window scaling lifts the 64KB\ncap; disabling SSAI "
              "removes restarts but risks post-idle bursts (not modeled\n"
              "here: the paper advises pacing instead).\n");
  return 0;
}
