// §3.1.4 implication — "web cache proxies can reduce server workload":
// replay the retrieval stream of a simulated week through an LRU front-end
// cache across capacities, and report object/byte hit ratios and the egress
// the storage servers are spared. The locality comes from Zipf-popular
// shared content (URL downloads), exactly the regime the paper flags.
#include "bench_util.h"

#include "cloud/cache.h"
#include "cloud/fleet.h"
#include "validate/validator.h"

int main(int argc, char** argv) {
  using namespace mcloud;
  // The §4 fleet of `mcloudctl validate` (FleetPlans; --flows, --seed),
  // with shared-content-heavy retrievals: the paper's 28% ~150 MB objects
  // are URL-shared videos.
  const tools::Args args =
      tools::Parse("bench_whatif_cache", "bench_whatif_cache",
                   {"flows seed threads", "", false}, argc, argv, 1);
  validate::ValidateOptions opts;
  opts.fleet_flows = args.GetU64("flows", opts.fleet_flows);
  opts.seed = args.GetU64("seed", opts.seed);
  cloud::FleetConfig fleet;
  fleet.service.seed = opts.seed;
  fleet.service.shared_content_prob = 0.6;
  fleet.shards = opts.fleet_shards;
  fleet.threads = args.GetU64<int>("threads", 0);

  bench::Header("§3.1.4 what-if", "front-end LRU cache for retrievals");
  std::printf("# the validate fleet: %zu flows, seed %llu\n",
              opts.fleet_flows, static_cast<unsigned long long>(opts.seed));
  const auto result =
      cloud::ExecuteFleet(fleet, validate::FleetPlans(opts)).result;

  Bytes total = 0;
  Bytes shared = 0;
  for (const auto& r : result.retrievals) {
    total += r.size;
    if (r.shared) shared += r.size;
  }
  std::printf("\nretrieval stream: %zu fetches, %.1f GB total, %.0f%% of "
              "bytes from shared URLs\n",
              result.retrievals.size(), static_cast<double>(total) / 1e9,
              total ? 100.0 * static_cast<double>(shared) /
                          static_cast<double>(total)
                    : 0.0);

  std::printf("\n%12s %10s %12s %12s %12s %10s\n", "cache", "hit ratio",
              "byte hits", "egress GB", "saved GB", "objects");
  for (Bytes capacity_gb : {1, 2, 4, 8, 16, 32, 64}) {
    cloud::LruByteCache cache(capacity_gb * 1000 * kMiB);
    for (const auto& r : result.retrievals) cache.Access(r.file_md5, r.size);
    const auto& s = cache.stats();
    std::printf("%9llu GB %9.1f%% %11.1f%% %12.2f %12.2f %10zu\n",
                static_cast<unsigned long long>(capacity_gb),
                100 * s.HitRatio(), 100 * s.ByteHitRatio(),
                static_cast<double>(s.bytes_requested - s.bytes_hit) / 1e9,
                static_cast<double>(s.bytes_hit) / 1e9,
                cache.ObjectCount());
  }

  std::printf("\nExpected shape: hit ratios climb steeply while the cache "
              "is smaller than the\nZipf head of shared content, then "
              "flatten — personal (unshared) retrievals are\none-touch and "
              "never benefit. This bounds how much a proxy tier can save.\n");
  return 0;
}
