// Tests for the EM fitters (Gaussian and exponential mixtures) and the
// stretched-exponential rank fit — the statistical core behind Fig 3,
// Fig 6/Table 2, and Fig 10.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "stats/em_exponential.h"
#include "stats/em_gaussian.h"
#include "stats/stretched_exponential.h"
#include "util/error.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace mcloud {
namespace {

TEST(EmGaussian, RecoversTwoComponents) {
  Rng rng(1);
  const GaussianMixture truth({{0.7, 1.0, 0.6}, {0.3, 5.0, 0.8}});
  std::vector<double> xs;
  for (int i = 0; i < 30000; ++i) xs.push_back(truth.Sample(rng));

  const auto fit = FitGaussianMixture(xs, 2);
  EXPECT_TRUE(fit.converged);
  const auto& c = fit.mixture.components();
  ASSERT_EQ(c.size(), 2u);
  // Components are reported sorted by mean.
  EXPECT_NEAR(c[0].mean, 1.0, 0.05);
  EXPECT_NEAR(c[1].mean, 5.0, 0.1);
  EXPECT_NEAR(c[0].weight, 0.7, 0.02);
  EXPECT_NEAR(c[0].stddev, 0.6, 0.08);
  EXPECT_NEAR(c[1].stddev, 0.8, 0.1);
}

TEST(EmGaussian, UnbalancedMixture) {
  // The Fig 3 regime: a small, distant second mode.
  Rng rng(2);
  const GaussianMixture truth({{0.93, 0.5, 0.5}, {0.07, 4.9, 0.5}});
  std::vector<double> xs;
  for (int i = 0; i < 50000; ++i) xs.push_back(truth.Sample(rng));
  const auto fit = FitGaussianMixture(xs, 2);
  const auto& c = fit.mixture.components();
  EXPECT_NEAR(c[1].mean, 4.9, 0.2);
  EXPECT_NEAR(c[1].weight, 0.07, 0.02);
}

TEST(EmGaussian, LikelihoodNeverDecreasesAcrossRefit) {
  Rng rng(3);
  std::vector<double> xs;
  for (int i = 0; i < 5000; ++i) xs.push_back(rng.Normal(0, 1));
  const auto one = FitGaussianMixture(xs, 1);
  const auto two = FitGaussianMixture(xs, 2);
  // More components can only raise the maximized likelihood (up to the
  // local-optimum slack inherent in EM).
  EXPECT_GE(two.log_likelihood, one.log_likelihood - 10.0);
}

TEST(EmGaussian, DegenerateInputs) {
  EXPECT_THROW((void)FitGaussianMixture(std::vector<double>{1.0}, 2),
               FitError);
  const std::vector<double> constant(100, 3.0);
  EXPECT_THROW((void)FitGaussianMixture(constant, 2), FitError);
}

TEST(EmExponential, RecoversTable2StoreMixture) {
  Rng rng(4);
  const MixtureExponential truth({{0.91, 1.5}, {0.07, 13.1}, {0.02, 77.4}});
  std::vector<double> xs;
  for (int i = 0; i < 120000; ++i) xs.push_back(truth.Sample(rng));

  const auto fit = FitMixtureExponential(xs, 3);
  const auto& c = fit.mixture.components();
  ASSERT_EQ(c.size(), 3u);
  EXPECT_NEAR(c[0].mean, 1.5, 0.25);
  EXPECT_NEAR(c[0].weight, 0.91, 0.05);
  EXPECT_NEAR(c[1].mean, 13.1, 5.0);
  EXPECT_NEAR(c[2].mean, 77.4, 15.0);
}

TEST(EmExponential, RequiresPositiveData) {
  const std::vector<double> bad = {1.0, 2.0, 0.0, 3.0};
  EXPECT_THROW((void)FitMixtureExponential(bad, 2), FitError);
}

TEST(EmExponential, SelectionStopsAtNegligibleComponent) {
  Rng rng(5);
  // A clean single exponential: the second component should be judged
  // unnecessary or nearly so.
  std::vector<double> xs;
  for (int i = 0; i < 30000; ++i) xs.push_back(rng.ExponentialMean(2.0));
  const auto sel = SelectMixtureExponential(xs, 4, 0.02);
  EXPECT_LE(sel.selected_n, 2u);
  EXPECT_NEAR(sel.fit.mixture.Mean(), 2.0, 0.1);
}

TEST(EmExponential, SelectionFindsMultipleRealComponents) {
  Rng rng(6);
  const MixtureExponential truth({{0.6, 1.0}, {0.4, 30.0}});
  std::vector<double> xs;
  for (int i = 0; i < 60000; ++i) xs.push_back(truth.Sample(rng));
  const auto sel = SelectMixtureExponential(xs, 5, 1e-3);
  EXPECT_GE(sel.selected_n, 2u);
}

/// The selection inline and on `pool`, as the pipeline's sketch path calls
/// it: every field of the result must be bit-identical.
void ExpectSameSelection(std::span<const double> values,
                         std::span<const double> weights, ThreadPool& pool) {
  const MixtureSelection inline_sel =
      SelectMixtureExponentialWeighted(values, weights, 6, 2e-3);
  const MixtureSelection pooled =
      SelectMixtureExponentialWeighted(values, weights, 6, 2e-3, {}, &pool);
  EXPECT_EQ(pooled.selected_n, inline_sel.selected_n);
  EXPECT_EQ(pooled.rejected_weight, inline_sel.rejected_weight);
  EXPECT_EQ(pooled.fit.log_likelihood, inline_sel.fit.log_likelihood);
  EXPECT_EQ(pooled.fit.iterations, inline_sel.fit.iterations);
  EXPECT_EQ(pooled.fit.converged, inline_sel.fit.converged);
  const auto& a = pooled.fit.mixture.components();
  const auto& b = inline_sel.fit.mixture.components();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t j = 0; j < a.size(); ++j) {
    EXPECT_EQ(a[j].weight, b[j].weight) << j;
    EXPECT_EQ(a[j].mean, b[j].mean) << j;
  }
}

/// The FitError message of the selection, or "" when it succeeds.
std::string SelectionError(std::span<const double> values,
                           std::span<const double> weights,
                           ThreadPool* pool) {
  try {
    (void)SelectMixtureExponentialWeighted(values, weights, 6, 2e-3, {},
                                           pool);
  } catch (const FitError& e) {
    return e.what();
  }
  return "";
}

TEST(EmExponential, WeightedSelectionOnAPoolIsBitIdentical) {
  // Per-bin (mean, count) pairs of a Table 2-like sample, the input the
  // sketch-backed file-size fit hands the selection.
  Rng rng(8);
  const MixtureExponential truth({{0.91, 1.5}, {0.07, 13.1}, {0.02, 77.4}});
  std::vector<double> sums(400, 0.0);
  std::vector<double> counts(400, 0.0);
  for (int i = 0; i < 50000; ++i) {
    const double x = truth.Sample(rng);
    const auto b = static_cast<std::size_t>(
        std::clamp(std::log10(x) * 80.0 + 200.0, 0.0, 399.0));
    sums[b] += x;
    counts[b] += 1.0;
  }
  std::vector<double> values;
  std::vector<double> weights;
  for (std::size_t b = 0; b < sums.size(); ++b) {
    if (counts[b] == 0) continue;
    values.push_back(sums[b] / counts[b]);
    weights.push_back(counts[b]);
  }
  ThreadPool pool(3);
  ExpectSameSelection(values, weights, pool);

  // The serial loop's first error wins at every pool size: too few points
  // for k = 4 after k = 1..3 fit, and a bad weight at k = 1.
  const std::vector<double> few = {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0};
  const std::vector<double> few_w(few.size(), 1.0);
  EXPECT_EQ(SelectionError(few, few_w, &pool),
            "too few data points for exponential mixture EM");
  EXPECT_EQ(SelectionError(few, few_w, &pool),
            SelectionError(few, few_w, nullptr));
  std::vector<double> bad_w = few_w;
  bad_w[3] = 0.0;
  EXPECT_EQ(SelectionError(few, bad_w, &pool),
            "mixture-exponential EM needs positive weights");
  EXPECT_EQ(SelectionError(few, bad_w, &pool),
            SelectionError(few, bad_w, nullptr));
}

TEST(StretchedExponentialFit, RecoversContinuousLaw) {
  Rng rng(7);
  const StretchedExponential truth(0.018, 0.2);
  std::vector<double> xs;
  for (int i = 0; i < 30000; ++i) {
    // Conditioned on >= 1, as user activity is.
    const double cap = truth.Ccdf(1.0);
    double u = rng.Uniform() * cap;
    while (u <= 0) u = rng.Uniform() * cap;
    xs.push_back(truth.Quantile(u));
  }
  const auto fit = FitStretchedExponentialRank(xs);
  EXPECT_NEAR(fit.c, 0.2, 0.03);
  EXPECT_NEAR(fit.a, 0.448, 0.08);
  EXPECT_GT(fit.r_squared, 0.995);
}

TEST(StretchedExponentialFit, RobustToIntegerFlooring) {
  Rng rng(8);
  const StretchedExponential truth(0.018, 0.2);
  std::vector<double> xs;
  for (int i = 0; i < 30000; ++i) {
    const double cap = truth.Ccdf(1.0);
    double u = rng.Uniform() * cap;
    while (u <= 0) u = rng.Uniform() * cap;
    xs.push_back(std::max(1.0, std::floor(truth.Quantile(u))));
  }
  const auto fit = FitStretchedExponentialRank(xs);
  EXPECT_NEAR(fit.c, 0.2, 0.035);
  EXPECT_NEAR(fit.a, 0.448, 0.09);
}

TEST(StretchedExponentialFit, BeatsPowerLawOnSeData) {
  Rng rng(9);
  const StretchedExponential truth(0.5, 0.3);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(truth.Sample(rng));
  const auto se = FitStretchedExponentialRank(xs);
  const auto pl = FitPowerLawRank(xs);
  EXPECT_GT(se.r_squared, pl.r_squared);
}

TEST(StretchedExponentialFit, PredictedRankValues) {
  StretchedExponentialFit fit;
  fit.c = 0.2;
  fit.a = 0.448;
  fit.b = 7.239;  // the paper's store-activity parameters
  // Top rank: y = b^(1/c) = 7.239^5.
  EXPECT_NEAR(StretchedExponentialRankValue(fit, 1), std::pow(7.239, 5.0),
              1.0);
  // Values decrease with rank, hitting 0 once a ln(rank) exceeds b.
  EXPECT_GT(StretchedExponentialRankValue(fit, 10),
            StretchedExponentialRankValue(fit, 1000));
  EXPECT_DOUBLE_EQ(
      StretchedExponentialRankValue(fit, 100000000000ULL), 0.0);
}

TEST(StretchedExponentialFit, Errors) {
  EXPECT_THROW((void)FitStretchedExponentialRank(std::vector<double>{1, 2}),
               FitError);
  // Increasing "rank data" (all equal) cannot be fit.
  const std::vector<double> flat(100, 5.0);
  EXPECT_THROW((void)FitStretchedExponentialRank(flat), FitError);
}

// Parameterized recovery sweep across the SE parameter space.
class SeRecoverySweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(SeRecoverySweep, GridSearchRecoversStretchFactor) {
  const auto [x0, c_true] = GetParam();
  Rng rng(static_cast<std::uint64_t>(x0 * 1e6) + 17);
  const StretchedExponential truth(x0, c_true);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(truth.Sample(rng));
  const auto fit = FitStretchedExponentialRank(xs, 0.05, 1.0, 0.01);
  EXPECT_NEAR(fit.c, c_true, 0.05);
  EXPECT_GT(fit.r_squared, 0.99);
}

INSTANTIATE_TEST_SUITE_P(
    Params, SeRecoverySweep,
    ::testing::Values(std::make_tuple(0.018, 0.2),
                      std::make_tuple(5.24e-4, 0.15),
                      std::make_tuple(1.0, 0.5),
                      std::make_tuple(10.0, 0.8)));

}  // namespace
}  // namespace mcloud
