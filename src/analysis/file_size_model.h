// Average-file-size modeling (§3.1.4, Fig 6, Table 2): fit mixture-
// exponential models to the per-session average file size of store-only and
// retrieve-only sessions, with the paper's model-selection loop and
// chi-square validation.
#pragma once

#include <vector>

#include "stats/chi_square.h"
#include "stats/em_exponential.h"
#include "stats/tdigest.h"

namespace mcloud::analysis {

struct FileSizeModel {
  MixtureSelection selection;     ///< EM fit with the selected n
  ChiSquareResult chi_square;     ///< GoF of the selected model
  bool chi_square_valid = false;  ///< false when the sample is too small
  /// CCDF of the fitted model on a log grid, paired with the empirical CCDF
  /// (the two series of Fig 6).
  std::vector<double> grid_mb;
  std::vector<double> empirical_ccdf;
  std::vector<double> model_ccdf;
};

struct FileSizeModelOptions {
  std::size_t max_components = 6;
  /// Stop threshold for added-component weight. The paper uses α < 0.001;
  /// 0.002 additionally absorbs the boundary-weight phantom component the
  /// synthetic data sometimes admits.
  double weight_floor = 2e-3;
  std::size_t chi_square_bins = 40;
  std::size_t grid_points = 48;
};

/// Fixed geometry of the size sketch: 96 log10 bins per decade over
/// [1e-4 MB, 1e5 MB); out-of-range sizes clamp into the edge bins, whose
/// exact per-bin means keep the EM moments unbiased. EM time is linear in
/// occupied bins, so the resolution is the fit-stage budget knob: 96/decade
/// keeps the grouped KS/AD statistics far inside the check slacks while
/// halving the fit cost of the 192/decade geometry.
[[nodiscard]] inline LogBins MakeSizeSketch() {
  return LogBins(-4.0, 5.0, 9 * 96);
}

/// Fit the Fig 6 pipeline to per-session average file sizes (MB), held in
/// a size sketch and a t-digest of the same sample: the weighted EM
/// consumes the sketch's exact per-bin (mean, count) moments, goodness of
/// fit is a grouped chi-square over the same bins (each bin's count
/// assigned to the model-quantile interval containing its mean), and the
/// empirical CCDF series is read off the t-digest. Memory and fit time are
/// O(bins), not O(sessions). The EM candidates run on `pool` (see
/// SelectMixtureExponential); the model is the same for every pool.
[[nodiscard]] FileSizeModel FitFileSizeModel(
    const LogBins& sketch, const TDigest& digest,
    const FileSizeModelOptions& options = {}, ThreadPool* pool = nullptr);

}  // namespace mcloud::analysis
