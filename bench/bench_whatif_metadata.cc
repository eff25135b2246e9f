// §3.1.2 implication — "decouple the metadata management and the data
// storage management": because users issue all file operations in a burst at
// the session start, the metadata tier sees short, sharp load spikes. This
// ablation compares the metadata request rate under the paper's design
// (metadata touched only by file operations) against a coupled strawman
// where every chunk request also consults the metadata tier.
#include "bench_util.h"

#include <map>
#include <vector>

#include "util/summary.h"

int main(int argc, char** argv) {
  using namespace mcloud;
  const workload::WorkloadConfig cfg = bench::WorkloadFrom(
      tools::Parse("bench_whatif_metadata", "bench_whatif_metadata",
                   {"users seed threads", "", false}, argc, argv, 1));
  bench::Header("§3.1.2 what-if",
                "metadata tier load: decoupled vs coupled design");
  const auto w = bench::StandardWorkload(cfg);

  // Per-second request counts at the metadata tier under both designs.
  std::map<UnixSeconds, std::uint32_t> decoupled;  // file operations only
  std::map<UnixSeconds, std::uint32_t> coupled;    // every request
  std::uint64_t ops = 0;
  std::uint64_t chunks = 0;
  for (const auto& r : w.trace) {
    coupled[r.timestamp]++;
    if (r.request_type == RequestType::kFileOperation) {
      decoupled[r.timestamp]++;
      ++ops;
    } else {
      ++chunks;
    }
  }

  const auto summarize = [](const std::map<UnixSeconds, std::uint32_t>& m) {
    std::vector<double> rates;
    rates.reserve(m.size());
    for (const auto& [t, c] : m) rates.push_back(c);
    struct {
      double peak, p99, mean;
    } s{};
    s.peak = Percentile(rates, 100);
    s.p99 = Percentile(rates, 99);
    double sum = 0;
    for (double v : rates) sum += v;
    // Mean over active seconds (idle seconds carry no entry).
    s.mean = sum / static_cast<double>(rates.size());
    return s;
  };

  const auto d = summarize(decoupled);
  const auto c = summarize(coupled);

  std::printf("\nrequests reaching the metadata tier:\n");
  std::printf("  %-34s %14s %14s\n", "", "decoupled", "coupled");
  std::printf("  %-34s %14llu %14llu\n", "total requests",
              static_cast<unsigned long long>(ops),
              static_cast<unsigned long long>(ops + chunks));
  std::printf("  %-34s %14.0f %14.0f\n", "peak req/s", d.peak, c.peak);
  std::printf("  %-34s %14.0f %14.0f\n", "p99 req/s (active seconds)",
              d.p99, c.p99);
  std::printf("  %-34s %14.1f %14.1f\n", "mean req/s (active seconds)",
              d.mean, c.mean);

  std::printf("\nHeadline observations:\n");
  std::printf("  request-volume amplification of a coupled design: %.1fx\n",
              static_cast<double>(ops + chunks) / static_cast<double>(ops));
  std::printf("  decoupled tier peak-to-mean ratio: %.1fx (bursty: ops "
              "cluster at session starts)\n",
              d.peak / d.mean);
  std::printf("  coupled tier peak-to-mean ratio:   %.1fx\n",
              c.peak / c.mean);
  std::printf("\nThe paper's point (§3.1.2): metadata is only needed at the "
              "bursty session\nstarts, so a decoupled metadata tier handles "
              "~%.0fx fewer requests in total;\ncoupling it to the chunk "
              "path would buy nothing except that amplification.\n",
              static_cast<double>(ops + chunks) / static_cast<double>(ops));
  return 0;
}
