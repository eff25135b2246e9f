// Tests for summary statistics, percentiles, ECDF, and grids.
#include "util/summary.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/rng.h"

namespace mcloud {
namespace {

TEST(RunningStats, MatchesDirectComputation) {
  RunningStats s;
  const std::vector<double> xs = {3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0};
  double sum = 0;
  for (double x : xs) {
    s.Add(x);
    sum += x;
  }
  const double mean = sum / xs.size();
  double var = 0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= (xs.size() - 1);

  EXPECT_EQ(s.Count(), xs.size());
  EXPECT_NEAR(s.Mean(), mean, 1e-12);
  EXPECT_NEAR(s.Variance(), var, 1e-12);
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
  EXPECT_DOUBLE_EQ(s.Max(), 9.0);
  EXPECT_NEAR(s.Sum(), sum, 1e-12);
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats s;
  EXPECT_EQ(s.Count(), 0u);
  EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
  EXPECT_THROW((void)s.Min(), Error);
  s.Add(5.0);
  EXPECT_DOUBLE_EQ(s.Mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.Variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.Min(), 5.0);
}

TEST(Percentile, KnownValues) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 25), 2.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 12.5), 1.5);  // interpolation
}

TEST(Percentile, Errors) {
  EXPECT_THROW((void)Percentile({}, 50), Error);
  const std::vector<double> xs = {1.0};
  EXPECT_THROW((void)Percentile(xs, -1), Error);
  EXPECT_THROW((void)Percentile(xs, 101), Error);
}

TEST(Percentiles, ManyCutsSingleSort) {
  const std::vector<double> xs = {5, 1, 4, 2, 3};
  const std::vector<double> ps = {0, 50, 100};
  const auto out = Percentiles(xs, ps);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0], 1.0);
  EXPECT_DOUBLE_EQ(out[1], 3.0);
  EXPECT_DOUBLE_EQ(out[2], 5.0);
}

/// Sort-based reference for Percentile(s): the type-7 quantile over a
/// fully sorted copy, computed as the library computes it.
double ReferencePercentile(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  if (n == 1) return xs[0];
  const double h = p / 100.0 * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(h);
  const std::size_t hi = std::min(lo + 1, n - 1);
  return xs[lo] + (h - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

TEST(Percentiles, EqualSortBasedReferenceBitForBit) {
  // Cuts at both ends, repeated and out of order; samples of one and two
  // elements, and samples full of ties.
  const std::vector<double> cuts = {99,  50, 0,   100, 50,   12.5, 99.9,
                                    0.1, 25, 100, 75,  33.3, 0,    66.7};
  Rng rng(2718);
  for (const std::size_t n : {1, 2, 3, 7, 10, 101, 1000, 4096}) {
    for (const bool ties : {false, true}) {
      std::vector<double> xs(n);
      for (double& x : xs)
        x = ties ? std::floor(rng.Uniform() * 5) : rng.Uniform(-3, 40);
      const std::vector<double> got = Percentiles(xs, cuts);
      ASSERT_EQ(got.size(), cuts.size());
      for (std::size_t i = 0; i < cuts.size(); ++i) {
        const double want = ReferencePercentile(xs, cuts[i]);
        EXPECT_EQ(got[i], want) << "n=" << n << " p=" << cuts[i];
        EXPECT_EQ(Percentile(xs, cuts[i]), want) << "n=" << n
                                                 << " p=" << cuts[i];
      }
    }
  }
  EXPECT_TRUE(Percentiles(std::vector<double>{1.0}, {}).empty());
}

TEST(Percentiles, TwoElementsInterpolate) {
  const std::vector<double> xs = {9.0, -1.0};
  const std::vector<double> ps = {100, 0, 50, 25, 50};
  EXPECT_EQ(Percentiles(xs, ps),
            (std::vector<double>{9.0, -1.0, 4.0, 1.5, 4.0}));
}

TEST(Percentiles, Errors) {
  const std::vector<double> xs = {1.0, 2.0};
  EXPECT_THROW((void)Percentiles({}, std::vector<double>{50}), Error);
  EXPECT_THROW((void)Percentiles(xs, std::vector<double>{50, 100.5}), Error);
  EXPECT_THROW((void)Percentiles(xs, std::vector<double>{-0.5}), Error);
}

TEST(Ecdf, EvaluateAndQuantile) {
  const Ecdf e({4.0, 1.0, 3.0, 2.0});
  EXPECT_DOUBLE_EQ(e.Evaluate(0.5), 0.0);
  EXPECT_DOUBLE_EQ(e.Evaluate(1.0), 0.25);
  EXPECT_DOUBLE_EQ(e.Evaluate(2.5), 0.5);
  EXPECT_DOUBLE_EQ(e.Evaluate(10.0), 1.0);
  EXPECT_DOUBLE_EQ(e.Ccdf(2.5), 0.5);
  EXPECT_DOUBLE_EQ(e.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(e.Quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(e.Median(), 2.5);
}

TEST(Ecdf, RejectsEmpty) {
  EXPECT_THROW(Ecdf({}), Error);
}

TEST(Ecdf, OnGridMonotone) {
  Rng rng(2);
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) xs.push_back(rng.Normal());
  const Ecdf e(std::move(xs));
  const auto grid = LinGrid(-4, 4, 33);
  const auto cdf = e.OnGrid(grid);
  for (std::size_t i = 1; i < cdf.size(); ++i) EXPECT_GE(cdf[i], cdf[i - 1]);
}

TEST(Ecdf, KsDistanceSmallForTrueModel) {
  Rng rng(3);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.ExponentialMean(2.0));
  const Ecdf e(std::move(xs));
  const double d =
      e.KsDistance([](double x) { return 1.0 - std::exp(-x / 2.0); });
  EXPECT_LT(d, 0.02);
  // A badly wrong model has a large distance.
  const double d_wrong =
      e.KsDistance([](double x) { return 1.0 - std::exp(-x / 20.0); });
  EXPECT_GT(d_wrong, 0.3);
}

TEST(Grids, LogGridProperties) {
  const auto g = LogGrid(1.0, 1000.0, 4);
  ASSERT_EQ(g.size(), 4u);
  EXPECT_NEAR(g[0], 1.0, 1e-12);
  EXPECT_NEAR(g[1], 10.0, 1e-9);
  EXPECT_NEAR(g[3], 1000.0, 1e-9);
  EXPECT_THROW((void)LogGrid(0.0, 1.0, 4), Error);
  EXPECT_THROW((void)LogGrid(1.0, 1.0, 4), Error);
}

TEST(Grids, LinGridProperties) {
  const auto g = LinGrid(0.0, 1.0, 5);
  ASSERT_EQ(g.size(), 5u);
  EXPECT_DOUBLE_EQ(g[2], 0.5);
  EXPECT_THROW((void)LinGrid(1.0, 0.0, 5), Error);
}

}  // namespace
}  // namespace mcloud
