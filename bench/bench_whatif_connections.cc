// §2.1 ablation — one TCP connection per file vs one reused connection per
// batch: the service allows both ("TCP connections can also carry HTTP
// requests from more than one file"). A reused connection saves handshakes
// and keeps ssthresh across files, but the user's inter-file think time sits
// on it as TCP idle and triggers slow-start restart — the same §4 mechanism
// that penalizes inter-chunk idles.
#include "bench_util.h"

#include "core/whatif.h"

int main(int argc, char** argv) {
  using namespace mcloud;
  const tools::Args args =
      tools::Parse("bench_whatif_connections", "bench_whatif_connections",
                   {"files threads", "", false}, argc, argv, 1);
  core::ConnectionStrategyConfig cfg;
  cfg.files = args.GetU64("files", 8);
  cfg.file_size = 2 * kMiB;
  cfg.trials = 150;
  cfg.threads = args.GetU64<int>("threads", 0);

  bench::Header("§2.1 what-if",
                "connection per file vs reused connection per batch");

  std::printf("# batch of %zu files x %.0f MB, varying inter-file gap\n\n",
              cfg.files, ToMB(cfg.file_size));
  std::printf("%-10s %-9s %14s %14s %11s %11s\n", "device", "gap s",
              "per-file s", "reused s", "pf restarts", "re restarts");
  for (auto device : {DeviceType::kAndroid, DeviceType::kIos}) {
    cfg.device = device;
    for (Seconds gap : {0.5, 2.0, 10.0, 60.0}) {
      cfg.inter_file_gap = gap;
      const auto out = core::CompareConnectionStrategies(cfg);
      std::printf("%-10s %-9.1f %14.1f %14.1f %11.1f %11.1f\n",
                  device == DeviceType::kAndroid ? "android" : "ios", gap,
                  out.per_file_median, out.reused_median,
                  out.per_file_restarts, out.reused_restarts);
    }
  }

  std::printf("\nMechanistic reading: with the server's 64 KB window cap, a "
              "warm connection is\nworth little — the ramp back to 64 KB "
              "takes only a few RTTs — so the handshake\nsavings of reuse "
              "are offset by the slow-start restarts its inter-file idles\n"
              "incur (the same mechanism behind Fig 16), and the strategies "
              "are a near-wash.\nThis is why the paper pushes on the idle "
              "times themselves (larger chunks,\nbatching) rather than on "
              "connection management.\n");
  return 0;
}
