// Expectation–maximization fitting of mixtures of exponentials.
//
// §3.1.4 / Table 2 of the paper fits mixture-exponential models to the
// average file size of store-only and retrieve-only sessions; the number of
// components n is chosen iteratively: n is increased until an added component
// receives negligible weight (α < 0.001). SelectMixtureExponential implements
// exactly that procedure.
#pragma once

#include <span>

#include "stats/em_gaussian.h"  // EmOptions
#include "util/distributions.h"

namespace mcloud {

class ThreadPool;

struct MixtureExponentialFit {
  MixtureExponential mixture;
  double log_likelihood = 0;
  int iterations = 0;
  bool converged = false;
};

/// Fit a k-component mixture of exponentials to non-negative `data` by EM.
/// Initialization spreads component means geometrically across the data
/// quantiles. Throws FitError on degenerate input.
[[nodiscard]] MixtureExponentialFit FitMixtureExponential(
    std::span<const double> data, std::size_t k, const EmOptions& opts = {});

/// Weighted variant: sample i carries multiplicity `weights[i]` > 0 (e.g. a
/// histogram-bin count), so a large sample collapsed into per-bin (mean,
/// count) pairs fits in O(bins) per EM iteration instead of O(n). All sums
/// (likelihood, responsibilities, component updates) are weighted;
/// `weights` must match `data` in length.
[[nodiscard]] MixtureExponentialFit FitMixtureExponentialWeighted(
    std::span<const double> data, std::span<const double> weights,
    std::size_t k, const EmOptions& opts = {});

struct MixtureSelection {
  MixtureExponentialFit fit;    ///< the selected model (n components)
  std::size_t selected_n = 0;
  double rejected_weight = 0;   ///< smallest α of the (n+1)-component model
};

/// The paper's model-selection loop: fit with n = 1, 2, ... components until
/// adding a component yields a weight below `weight_floor` (default 0.001),
/// then return the previous model. Every candidate EM run — one per
/// (n, restart) pair — is one task on `pool` (inline when null); the
/// selected model and any FitError are the same for every pool.
[[nodiscard]] MixtureSelection SelectMixtureExponential(
    std::span<const double> data, std::size_t max_components = 6,
    double weight_floor = 1e-3, const EmOptions& opts = {},
    ThreadPool* pool = nullptr);

/// Weighted variant of the selection loop (see
/// FitMixtureExponentialWeighted); every candidate fit is weighted.
[[nodiscard]] MixtureSelection SelectMixtureExponentialWeighted(
    std::span<const double> data, std::span<const double> weights,
    std::size_t max_components = 6, double weight_floor = 1e-3,
    const EmOptions& opts = {}, ThreadPool* pool = nullptr);

/// Log-likelihood under a mixture-exponential model.
[[nodiscard]] double MixtureExponentialLogLikelihood(
    const MixtureExponential& mixture, std::span<const double> data);

}  // namespace mcloud
