#include "analysis/file_size_model.h"

#include <algorithm>

#include "util/error.h"
#include "util/summary.h"

namespace mcloud::analysis {

FileSizeModel FitFileSizeModel(const LogBins& sketch, const TDigest& digest,
                               const FileSizeModelOptions& options,
                               ThreadPool* pool) {
  MCLOUD_REQUIRE(sketch.Total() > 0, "no sizes to fit");
  MCLOUD_REQUIRE(sketch.Total() == digest.Count(),
                 "size sketch and digest disagree on sample count");

  FileSizeModel out;
  // Occupied (exact bin mean, count) pairs drive the weighted EM.
  std::vector<double> values;
  std::vector<double> counts;
  values.reserve(sketch.bins());
  counts.reserve(sketch.bins());
  for (std::size_t b = 0; b < sketch.bins(); ++b) {
    if (sketch.Count(b) == 0) continue;
    values.push_back(sketch.Mean(b));
    counts.push_back(static_cast<double>(sketch.Count(b)));
  }
  out.selection = SelectMixtureExponentialWeighted(
      values, counts, options.max_components, options.weight_floor, {}, pool);

  const MixtureExponential& mixture = out.selection.fit.mixture;
  const std::size_t n_params = 2 * mixture.size() - 1;  // α's + µ's, Σα = 1

  const auto cdf = [&mixture](double x) { return mixture.Cdf(x); };
  const double hi = sketch.Max();
  const auto quantile = [&](double q) {
    return InvertCdf(cdf, q, 0.0, std::max(hi * 4.0, 1.0));
  };
  // Grouped chi-square over an equal-probability partition, each occupied
  // bin's count assigned to the model-quantile interval containing its
  // mean. Below ~50 samples per partition (>= 5 expected per bin) or ~10
  // usable bins the test carries no power and is skipped.
  const std::size_t n = sketch.Total();
  const std::size_t bins =
      std::min<std::size_t>(options.chi_square_bins, n / 50);
  if (bins > n_params + 1 && bins >= 10) {
    std::vector<double> edges(bins - 1);
    for (std::size_t i = 0; i + 1 < bins; ++i) {
      edges[i] =
          quantile(static_cast<double>(i + 1) / static_cast<double>(bins));
    }
    std::vector<std::uint64_t> observed(bins, 0);
    for (std::size_t i = 0; i < values.size(); ++i) {
      const auto it =
          std::upper_bound(edges.begin(), edges.end(), values[i]);
      observed[static_cast<std::size_t>(it - edges.begin())] +=
          static_cast<std::uint64_t>(counts[i]);
    }
    const std::vector<double> probs(bins, 1.0 / static_cast<double>(bins));
    out.chi_square = ChiSquareCounts(observed, probs, n_params);
    out.chi_square_valid = true;
  }

  // Fig 6 series: the empirical CCDF comes from the t-digest.
  const double lo = std::max(sketch.Min(), 1e-3);
  out.grid_mb = LogGrid(lo, hi, options.grid_points);
  out.empirical_ccdf.reserve(out.grid_mb.size());
  out.model_ccdf.reserve(out.grid_mb.size());
  for (double x : out.grid_mb) {
    out.empirical_ccdf.push_back(1.0 - digest.Cdf(x));
    out.model_ccdf.push_back(mixture.Ccdf(x));
  }
  return out;
}

}  // namespace mcloud::analysis
