#include "analysis/file_size_model.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"
#include "util/summary.h"

namespace mcloud::analysis {
namespace {

/// Collapse a large positive sample into log-spaced (bin mean, bin count)
/// pairs for the weighted EM. Returns false — meaning the caller should fit
/// the raw sample — when the sample contains non-positive values (the
/// unbinned path owns that error), spans no range, or occupies too few bins
/// for the quantile-schedule initialization to be meaningful.
bool BinLogSpaced(std::span<const double> data, std::size_t bins,
                  std::vector<double>& values, std::vector<double>& counts) {
  double lo = data.front();
  double hi = data.front();
  for (double x : data) {
    if (!(x > 0) || !std::isfinite(x)) return false;
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  if (!(hi > lo) || bins < 2) return false;

  const double llo = std::log(lo);
  const double scale = static_cast<double>(bins) / (std::log(hi) - llo);
  std::vector<double> sum(bins, 0.0);
  std::vector<double> cnt(bins, 0.0);
  for (double x : data) {
    auto b = static_cast<std::size_t>((std::log(x) - llo) * scale);
    b = std::min(b, bins - 1);
    sum[b] += x;
    cnt[b] += 1.0;
  }

  values.clear();
  counts.clear();
  std::size_t occupied = 0;
  for (std::size_t b = 0; b < bins; ++b) {
    if (cnt[b] == 0) continue;
    ++occupied;
    values.push_back(sum[b] / cnt[b]);
    counts.push_back(cnt[b]);
  }
  // With few occupied bins the collapsed sample is not meaningfully cheaper
  // and the binning error is relatively largest; fit the raw data instead.
  return occupied >= 64;
}

}  // namespace

FileSizeModel FitFileSizeModel(std::span<const double> avg_sizes_mb,
                               const FileSizeModelOptions& options,
                               ThreadPool* pool) {
  MCLOUD_REQUIRE(!avg_sizes_mb.empty(), "no sizes to fit");

  FileSizeModel out;
  // EM iterations dominate the pipeline's fit cost on large traces; collapse
  // the sample into per-bin (mean, count) pairs so each iteration is
  // O(fit_bins) while chi-square and the CCDF series below keep full
  // resolution.
  std::vector<double> binned_values;
  std::vector<double> binned_counts;
  if (options.binned_fit_threshold > 0 &&
      avg_sizes_mb.size() >= options.binned_fit_threshold &&
      BinLogSpaced(avg_sizes_mb, options.fit_bins, binned_values,
                   binned_counts)) {
    out.selection = SelectMixtureExponentialWeighted(
        binned_values, binned_counts, options.max_components,
        options.weight_floor, {}, pool);
  } else {
    out.selection = SelectMixtureExponential(
        avg_sizes_mb, options.max_components, options.weight_floor, {}, pool);
  }

  const MixtureExponential& mixture = out.selection.fit.mixture;
  const std::size_t n_params = 2 * mixture.size() - 1;  // α's + µ's, Σα = 1

  const auto cdf = [&mixture](double x) { return mixture.Cdf(x); };
  double hi = *std::max_element(avg_sizes_mb.begin(), avg_sizes_mb.end());
  const auto quantile = [&](double q) {
    return InvertCdf(cdf, q, 0.0, std::max(hi * 4.0, 1.0));
  };
  // Scale the bin count down for small samples (>= 5 expected per bin);
  // below ~10 usable bins the test carries no power and is skipped.
  const std::size_t bins =
      std::min<std::size_t>(options.chi_square_bins, avg_sizes_mb.size() / 50);
  if (bins > n_params + 1 && bins >= 10) {
    out.chi_square =
        ChiSquareGoodnessOfFit(avg_sizes_mb, cdf, quantile, bins, n_params);
    out.chi_square_valid = true;
  }

  // Fig 6 series: empirical vs model CCDF on a log grid.
  const Ecdf ecdf(std::vector<double>(avg_sizes_mb.begin(),
                                      avg_sizes_mb.end()));
  const double lo = std::max(ecdf.sorted().front(), 1e-3);
  out.grid_mb = LogGrid(lo, hi, options.grid_points);
  out.empirical_ccdf.reserve(out.grid_mb.size());
  out.model_ccdf.reserve(out.grid_mb.size());
  for (double x : out.grid_mb) {
    out.empirical_ccdf.push_back(ecdf.Ccdf(x));
    out.model_ccdf.push_back(mixture.Ccdf(x));
  }
  return out;
}

FileSizeModel FitFileSizeModel(const LogBins& sketch, const TDigest& digest,
                               const FileSizeModelOptions& options,
                               ThreadPool* pool) {
  MCLOUD_REQUIRE(sketch.Total() > 0, "no sizes to fit");
  MCLOUD_REQUIRE(sketch.Total() == digest.Count(),
                 "size sketch and digest disagree on sample count");

  FileSizeModel out;
  // Occupied (exact bin mean, count) pairs drive the weighted EM — the same
  // moments the binned raw path feeds it, but from O(bins) state.
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
  // Grouped chi-square: the same equal-probability partition as the raw
  // path, with each occupied bin's count assigned to the model-quantile
  // interval containing its mean. Same power gates as the raw path.
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
