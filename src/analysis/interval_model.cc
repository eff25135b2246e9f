#include "analysis/interval_model.h"

#include <cmath>

#include "util/error.h"

namespace mcloud::analysis {

double MixtureCrossover(const GaussianMixture& mixture) {
  MCLOUD_REQUIRE(mixture.size() == 2, "crossover needs exactly 2 components");
  const auto& lo = mixture.components()[0];
  const auto& hi = mixture.components()[1];
  MCLOUD_REQUIRE(lo.mean < hi.mean, "components must be ordered by mean");

  // Bisection on the responsibility of component 0 between the two means.
  double a = lo.mean;
  double b = hi.mean;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (a + b);
    if (mixture.Responsibility(0, mid) > 0.5) {
      a = mid;
    } else {
      b = mid;
    }
  }
  return 0.5 * (a + b);
}

IntervalModel FitIntervalModel(const LogBins& sketch,
                               const IntervalModelOptions& options) {
  if (sketch.Total() < 10)
    throw FitError("too few positive intervals for the Fig 3 pipeline");

  IntervalModel model{
      Histogram(options.log10_min, options.log10_max,
                options.histogram_bins),
      {}, 0, 0, 0, 0};

  // Reconstruct the coarse histogram and collect the weighted GMM sample in
  // one pass. The fine geometry nests inside the coarse one, so every fine
  // center maps to exactly one coarse bin (or to underflow below log10_min).
  std::vector<double> centers;
  std::vector<double> weights;
  centers.reserve(sketch.bins());
  weights.reserve(sketch.bins());
  for (std::size_t i = 0; i < sketch.bins(); ++i) {
    const std::uint64_t c = sketch.Count(i);
    if (c == 0) continue;
    const double center = sketch.Log10Center(i);
    model.log10_histogram.Add(center, c);
    centers.push_back(center);
    weights.push_back(static_cast<double>(c));
  }

  const std::size_t valley = model.log10_histogram.DeepestValley();
  if (valley < model.log10_histogram.bins()) {
    model.valley_tau =
        std::pow(10.0, model.log10_histogram.BinCenter(valley));
  }

  model.gmm = FitGaussianMixtureWeighted(centers, weights, 2);
  const auto& comps = model.gmm.mixture.components();
  model.intra_mean_seconds = std::pow(10.0, comps[0].mean);
  model.inter_mean_seconds = std::pow(10.0, comps[1].mean);
  model.gmm_tau = std::pow(10.0, MixtureCrossover(model.gmm.mixture));
  return model;
}

}  // namespace mcloud::analysis
