#include "stats/em_exponential.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <functional>
#include <limits>
#include <numeric>

#include "util/error.h"
#include "util/parallel.h"

namespace mcloud {
namespace {

double LogExpPdf(double x, double mean) {
  return -std::log(mean) - x / mean;
}

double LogSumExp(std::span<const double> v) {
  const double m = *std::max_element(v.begin(), v.end());
  double s = 0;
  for (double x : v) s += std::exp(x - m);
  return m + std::log(s);
}

}  // namespace

double MixtureExponentialLogLikelihood(const MixtureExponential& mixture,
                                       std::span<const double> data) {
  double ll = 0;
  std::vector<double> lp(mixture.size());
  for (double x : data) {
    for (std::size_t k = 0; k < mixture.size(); ++k) {
      const auto& c = mixture.components()[k];
      lp[k] = std::log(std::max(c.weight, 1e-300)) + LogExpPdf(x, c.mean);
    }
    ll += LogSumExp(lp);
  }
  return ll;
}

namespace {

/// One EM run from the given initial components; `weights` empty means every
/// sample counts once. Shared by the restart loop of both fit entry points.
MixtureExponentialFit RunEmFrom(
    std::vector<MixtureExponential::Component> comps,
    std::span<const double> data, std::span<const double> weights,
    const EmOptions& opts) {
  const std::size_t k = comps.size();
  const std::size_t n = data.size();
  const bool weighted = !weights.empty();
  // Total sample mass W replaces n in every place the unweighted algorithm
  // counted samples (weight floor, mixture-weight normalization).
  double total = static_cast<double>(n);
  if (weighted) total = std::accumulate(weights.begin(), weights.end(), 0.0);

  std::vector<double> lp(k);
  std::vector<double> r(k);
  std::vector<double> nk(k);
  std::vector<double> sum(k);
  // Per-iteration constants: log α_j + log(1/µ_j) and 1/µ_j. Hoisting them
  // out of the sample loop removes two log() calls per sample per component;
  // with the single-exp E step below each sample costs k exp() calls and one
  // log() total.
  std::vector<double> lw(k);
  std::vector<double> inv(k);
  // exp() underflows to exactly +0.0 below this argument, so skipping the
  // call is bit-identical — and on heavy-tailed data with well-separated
  // means most (sample, component) pairs land here, past the subnormal
  // range where exp() is slowest.
  constexpr double kExpUnderflow = -746.0;

  MixtureExponentialFit fit;
  double prev_ll = -std::numeric_limits<double>::infinity();

  for (int iter = 1; iter <= opts.max_iterations; ++iter) {
    for (std::size_t j = 0; j < k; ++j) {
      lw[j] = std::log(std::max(comps[j].weight, 1e-300)) -
              std::log(comps[j].mean);
      inv[j] = 1.0 / comps[j].mean;
      nk[j] = 0;
      sum[j] = 0;
    }

    // Fused E+M sweep: lp_j = log α_j + log f_j(x) = lw_j - x/µ_j;
    // responsibilities are softmax(lp) scaled by the sample's weight and
    // folded into the M-step accumulators immediately (the additions run in
    // the same ascending-i order a separate M pass would use, so fusing is
    // bit-identical and the n×k responsibility matrix never materializes).
    double ll = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double x = data[i];
      double m = -std::numeric_limits<double>::infinity();
      for (std::size_t j = 0; j < k; ++j) {
        lp[j] = lw[j] - x * inv[j];
        if (lp[j] > m) m = lp[j];
      }
      double s = 0;
      for (std::size_t j = 0; j < k; ++j) {
        const double d = lp[j] - m;
        r[j] = d < kExpUnderflow ? 0.0 : std::exp(d);
        s += r[j];
      }
      const double wi = weighted ? weights[i] : 1.0;
      ll += wi * (m + std::log(s));
      const double norm = wi / s;
      for (std::size_t j = 0; j < k; ++j) {
        const double rj = r[j] * norm;
        nk[j] += rj;
        sum[j] += rj * x;
      }
    }

    // M step: weight_j = responsibility mass / W, mean_j = weighted mean of x.
    for (std::size_t j = 0; j < k; ++j) {
      const double mass = std::max(nk[j], opts.min_weight * total);
      comps[j].weight = mass / total;
      comps[j].mean = std::max(sum[j] / mass, 1e-12);
    }
    double wsum = 0;
    for (const auto& c : comps) wsum += c.weight;
    for (auto& c : comps) c.weight /= wsum;

    fit.iterations = iter;
    fit.log_likelihood = ll;
    // prev_ll is -inf on the first iteration; the relative-change test is
    // only meaningful once two finite likelihoods exist.
    if (std::isfinite(prev_ll) &&
        std::abs(ll - prev_ll) <=
            opts.tolerance * (std::abs(prev_ll) + 1.0)) {
      fit.converged = true;
      break;
    }
    prev_ll = ll;
  }

  // Sort by ascending mean: component 1 = typical photo size, component 3 =
  // heavy tail, matching Table 2's ordering.
  std::sort(comps.begin(), comps.end(),
            [](const auto& a, const auto& b) { return a.mean < b.mean; });
  fit.mixture = MixtureExponential(std::move(comps));
  return fit;
}

/// FitImpl's input checks for a k-component fit, in its order.
void CheckInput(std::span<const double> data, std::span<const double> weights,
                std::size_t k) {
  MCLOUD_REQUIRE(k >= 1, "need at least one component");
  if (data.size() < 2 * k)
    throw FitError("too few data points for exponential mixture EM");
  for (double x : data) {
    if (!(x > 0))
      throw FitError("mixture-exponential EM needs strictly positive data");
  }
  if (!weights.empty()) {
    MCLOUD_REQUIRE(weights.size() == data.size(),
                   "weights must match data in length");
    for (double w : weights) {
      if (!(w > 0))
        throw FitError("mixture-exponential EM needs positive weights");
    }
  }
}

/// Sorted (value, weight) pairs for quantile-based initialization. The
/// unweighted quantile keeps the historical index formula; the weighted one
/// finds the first value whose cumulative mass reaches q·W. Needs a
/// non-empty sample.
class SampleQuantiles {
 public:
  SampleQuantiles(std::span<const double> data,
                  std::span<const double> weights)
      : data_(data), order_(data.size()) {
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
      return data[a] < data[b];
    });
    if (!weights.empty()) {
      cum_.reserve(order_.size());
      for (std::size_t idx : order_) {
        total_w_ += weights[idx];
        cum_.push_back(total_w_);
      }
    }
  }

  double operator()(double q) const {
    if (cum_.empty()) {
      const auto idx = static_cast<std::size_t>(
          q * static_cast<double>(order_.size() - 1));
      return data_[order_[idx]];
    }
    const auto it = std::lower_bound(cum_.begin(), cum_.end(), q * total_w_);
    const std::size_t pos = std::min<std::size_t>(
        static_cast<std::size_t>(it - cum_.begin()), order_.size() - 1);
    return data_[order_[pos]];
  }

 private:
  std::span<const double> data_;
  std::vector<std::size_t> order_;
  std::vector<double> cum_;
  double total_w_ = 0;
};

// Deterministic multi-restart: exponential-mixture EM is riddled with local
// optima (split-the-bulk, merged-tail). Each restart places the initial
// means at a different quantile schedule — strongly tail-biased (0.5, 0.95,
// 0.995…), mildly tail-biased, and evenly spread — and the run with the
// best likelihood wins (the first such run, in restart order).
constexpr std::size_t kRestarts = 3;

/// Initial components of restart `restart` of a k-component fit.
std::vector<MixtureExponential::Component> StartingPoint(
    const SampleQuantiles& quantile, std::size_t k, std::size_t restart) {
  std::vector<MixtureExponential::Component> comps(k);
  for (std::size_t j = 0; j < k; ++j) {
    const double jd = static_cast<double>(j);
    const double q = restart == 0   ? 1.0 - 0.5 * std::pow(0.1, jd)
                     : restart == 1 ? 1.0 - 0.5 * std::pow(0.3, jd)
                                    : (jd + 0.5) / static_cast<double>(k);
    comps[j].mean = std::max(quantile(q), 1e-9);
    comps[j].weight = 1.0 / static_cast<double>(k);
  }
  for (std::size_t j = 1; j < k; ++j) {
    if (comps[j].mean <= comps[j - 1].mean)
      comps[j].mean = comps[j - 1].mean * 2.0;
  }
  return comps;
}

MixtureExponentialFit FitImpl(std::span<const double> data,
                              std::span<const double> weights, std::size_t k,
                              const EmOptions& opts) {
  CheckInput(data, weights, k);
  const SampleQuantiles quantile(data, weights);
  MixtureExponentialFit best;
  for (std::size_t r = 0; r < kRestarts; ++r) {
    MixtureExponentialFit fit =
        RunEmFrom(StartingPoint(quantile, k, r), data, weights, opts);
    if (r == 0 || fit.log_likelihood > best.log_likelihood)
      best = std::move(fit);
  }
  return best;
}

/// The paper's selection loop over the candidate fits fit_k(1), fit_k(2),
/// ... fit_k(max_components), asked for in that order.
MixtureSelection SelectFrom(
    std::size_t max_components, double weight_floor,
    const std::function<MixtureExponentialFit(std::size_t)>& fit_k) {
  MixtureSelection out;
  out.fit = fit_k(1);
  out.selected_n = 1;
  out.rejected_weight = 1.0;

  // Exponential mixtures are only identifiable when component means are
  // well separated; a candidate whose adjacent means nearly coincide has
  // split one true component in two and carries no additional structure.
  constexpr double kMinMeanRatio = 2.0;

  // The paper's procedure: grow n until an added component is negligible
  // (α < 0.001). EM occasionally parks a negligible *phantom* component on
  // a handful of extreme outliers while real structure appears only at a
  // larger k, so negligible components are pruned from a candidate rather
  // than condemning it; selection stops when the count of *meaningful*
  // components stops growing.
  for (std::size_t k = 2; k <= max_components; ++k) {
    MixtureExponentialFit candidate = fit_k(k);

    std::vector<MixtureExponential::Component> meaningful;
    double min_weight = 1.0;
    double pruned_weight = 1.0;
    for (const auto& c : candidate.mixture.components()) {
      min_weight = std::min(min_weight, c.weight);
      if (c.weight >= weight_floor) {
        meaningful.push_back(c);
      } else {
        pruned_weight = std::min(pruned_weight, c.weight);
      }
    }
    bool overlapping = false;
    for (std::size_t j = 1; j < meaningful.size(); ++j) {
      if (meaningful[j].mean < kMinMeanRatio * meaningful[j - 1].mean)
        overlapping = true;
    }

    out.rejected_weight = min_weight;
    // Keep probing larger k even when this candidate adds nothing: real
    // structure sometimes only separates once more components are allowed
    // (a phantom can absorb outliers at k, freeing the tail at k+1).
    if (overlapping || meaningful.size() <= out.selected_n) continue;

    if (meaningful.size() < candidate.mixture.size()) {
      // Renormalize the surviving weights after pruning phantoms.
      double total = 0;
      for (const auto& c : meaningful) total += c.weight;
      for (auto& c : meaningful) c.weight /= total;
      candidate.mixture = MixtureExponential(std::move(meaningful));
    }
    out.selected_n = candidate.mixture.size();
    out.fit = std::move(candidate);
  }
  return out;
}

/// Every candidate the selection loop can ask for — one EM run per
/// (k, restart) pair — as one task each on `pool`, then the loop itself.
/// The serial order is k = 1, 2, ... with each k's input checked first and
/// its restarts run in order, stopping at the first throw; the loop asks
/// for the candidates in that order and each rethrows its own error, so
/// the selection and any error are the serial ones at every pool size.
MixtureSelection SelectImpl(std::span<const double> data,
                            std::span<const double> weights,
                            std::size_t max_components, double weight_floor,
                            const EmOptions& opts, ThreadPool* pool) {
  MCLOUD_REQUIRE(max_components >= 1, "need at least one component");
  // Only the k before the first one whose input is rejected can run.
  std::size_t runnable = 0;
  std::exception_ptr input_error;
  for (std::size_t k = 1; k <= max_components; ++k) {
    try {
      CheckInput(data, weights, k);
    } catch (...) {
      input_error = std::current_exception();
      break;
    }
    runnable = k;
  }

  struct Run {
    MixtureExponentialFit fit;
    std::exception_ptr error;
  };
  // Run (k, r) lives at (k - 1) * kRestarts + r. Tasks are claimed in
  // index order, so task t takes the run from the top: the largest k, the
  // longest runs, go first and the small ones fill in behind them.
  std::vector<Run> runs(runnable * kRestarts);
  if (runnable > 0) {
    const SampleQuantiles quantile(data, weights);
    RunTasks(pool, runs.size(), [&](std::size_t t) {
      const std::size_t i = runs.size() - 1 - t;
      try {
        runs[i].fit = RunEmFrom(
            StartingPoint(quantile, i / kRestarts + 1, i % kRestarts), data,
            weights, opts);
      } catch (...) {
        runs[i].error = std::current_exception();
      }
    });
  }

  return SelectFrom(max_components, weight_floor, [&](std::size_t k) {
    if (k > runnable) std::rethrow_exception(input_error);
    MixtureExponentialFit best;
    for (std::size_t r = 0; r < kRestarts; ++r) {
      Run& run = runs[(k - 1) * kRestarts + r];
      if (run.error) std::rethrow_exception(run.error);
      if (r == 0 || run.fit.log_likelihood > best.log_likelihood)
        best = std::move(run.fit);
    }
    return best;
  });
}

}  // namespace

MixtureExponentialFit FitMixtureExponential(std::span<const double> data,
                                            std::size_t k,
                                            const EmOptions& opts) {
  return FitImpl(data, {}, k, opts);
}

MixtureExponentialFit FitMixtureExponentialWeighted(
    std::span<const double> data, std::span<const double> weights,
    std::size_t k, const EmOptions& opts) {
  return FitImpl(data, weights, k, opts);
}

MixtureSelection SelectMixtureExponential(std::span<const double> data,
                                          std::size_t max_components,
                                          double weight_floor,
                                          const EmOptions& opts,
                                          ThreadPool* pool) {
  return SelectImpl(data, {}, max_components, weight_floor, opts, pool);
}

MixtureSelection SelectMixtureExponentialWeighted(
    std::span<const double> data, std::span<const double> weights,
    std::size_t max_components, double weight_floor, const EmOptions& opts,
    ThreadPool* pool) {
  return SelectImpl(data, weights, max_components, weight_floor, opts, pool);
}

}  // namespace mcloud
