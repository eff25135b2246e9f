// Summary statistics: running moments, percentiles, empirical CDF/CCDF.
//
// Every figure in the paper is a CDF, CCDF, histogram, or percentile series;
// these helpers are the shared vocabulary of analysis/ and the paper report.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "util/error.h"

namespace mcloud {

/// Streaming mean / variance / min / max (Welford's algorithm).
class RunningStats {
 public:
  void Add(double x);

  [[nodiscard]] std::size_t Count() const { return n_; }
  [[nodiscard]] double Mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double Variance() const;  ///< sample variance (n-1)
  [[nodiscard]] double StdDev() const;
  [[nodiscard]] double Min() const;
  [[nodiscard]] double Max() const;
  [[nodiscard]] double Sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Percentile of a sample using linear interpolation between order
/// statistics (type-7 quantile, matching numpy/Matlab defaults). `p` in
/// [0, 100]. Selects the two order statistics it needs in a copy
/// (nth_element) instead of sorting it; use Percentiles() for many cuts.
[[nodiscard]] double Percentile(std::span<const double> xs, double p);

/// Percentiles of a sample for several cut points, in any order, repeats
/// allowed: one copy, and only the order statistics the cuts need, each
/// selected in the part of the copy above the previous one. The values
/// equal a full sort's, bit for bit.
[[nodiscard]] std::vector<double> Percentiles(std::span<const double> xs,
                                              std::span<const double> ps);

/// Empirical CDF over a sample: Evaluate(x) = fraction of samples <= x.
class Ecdf {
 public:
  explicit Ecdf(std::vector<double> samples);

  [[nodiscard]] std::size_t Count() const { return sorted_.size(); }
  [[nodiscard]] double Evaluate(double x) const;
  [[nodiscard]] double Ccdf(double x) const { return 1.0 - Evaluate(x); }
  /// Inverse CDF (quantile), q in [0, 1].
  [[nodiscard]] double Quantile(double q) const;
  [[nodiscard]] double Median() const { return Quantile(0.5); }
  [[nodiscard]] const std::vector<double>& sorted() const { return sorted_; }

  /// Evaluate the CDF on a grid of points — the series plotted in a figure.
  [[nodiscard]] std::vector<double> OnGrid(std::span<const double> grid) const;

  /// Kolmogorov–Smirnov distance to a model CDF.
  template <typename ModelCdf>
  [[nodiscard]] double KsDistance(ModelCdf&& model) const {
    double d = 0;
    const auto n = static_cast<double>(sorted_.size());
    for (std::size_t i = 0; i < sorted_.size(); ++i) {
      const double m = model(sorted_[i]);
      const double lo = static_cast<double>(i) / n;
      const double hi = static_cast<double>(i + 1) / n;
      d = std::max({d, std::abs(m - lo), std::abs(m - hi)});
    }
    return d;
  }

 private:
  std::vector<double> sorted_;
};

/// Geometrically spaced grid [lo, hi] with `points` entries (for log-x CDFs).
[[nodiscard]] std::vector<double> LogGrid(double lo, double hi,
                                          std::size_t points);
/// Linearly spaced grid [lo, hi] with `points` entries.
[[nodiscard]] std::vector<double> LinGrid(double lo, double hi,
                                          std::size_t points);

}  // namespace mcloud
