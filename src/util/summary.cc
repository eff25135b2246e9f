#include "util/summary.h"

#include <algorithm>
#include <cmath>

namespace mcloud {

void RunningStats::Add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::Variance() const {
  if (n_ < 2) return 0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::StdDev() const { return std::sqrt(Variance()); }

double RunningStats::Min() const {
  MCLOUD_REQUIRE(n_ > 0, "Min of empty sample");
  return min_;
}

double RunningStats::Max() const {
  MCLOUD_REQUIRE(n_ > 0, "Max of empty sample");
  return max_;
}

namespace {
/// Type-7 quantile `q` of a sample whose order statistics of ranks lo and
/// hi (the two it interpolates between) sit at their sorted positions; it
/// reads no other element.
double SortedQuantile(std::span<const double> sorted, double q) {
  const std::size_t n = sorted.size();
  if (n == 1) return sorted[0];
  const double h = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(h);
  const std::size_t hi = std::min(lo + 1, n - 1);
  const double frac = h - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}
}  // namespace

double Percentile(std::span<const double> xs, double p) {
  return Percentiles(xs, std::span<const double>(&p, 1)).front();
}

// Places only the order statistics the cuts interpolate between, smallest
// rank first, each with nth_element on the range above the one before, so
// the doubles equal SortedQuantile over a full sort.
std::vector<double> Percentiles(std::span<const double> xs,
                                std::span<const double> ps) {
  MCLOUD_REQUIRE(!xs.empty(), "Percentile of empty sample");
  for (const double p : ps)
    MCLOUD_REQUIRE(p >= 0 && p <= 100, "percentile must be in [0,100]");
  std::vector<double> work(xs.begin(), xs.end());
  const std::size_t n = work.size();
  std::vector<std::size_t> ranks;
  ranks.reserve(2 * ps.size());
  for (const double p : ps) {
    const auto lo = static_cast<std::size_t>(p / 100.0 *
                                             static_cast<double>(n - 1));
    ranks.push_back(lo);
    ranks.push_back(std::min(lo + 1, n - 1));
  }
  std::sort(ranks.begin(), ranks.end());
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
  auto from = work.begin();
  for (const std::size_t k : ranks) {
    const auto nth = work.begin() + static_cast<std::ptrdiff_t>(k);
    std::nth_element(from, nth, work.end());
    from = nth + 1;
  }
  std::vector<double> out;
  out.reserve(ps.size());
  for (const double p : ps) out.push_back(SortedQuantile(work, p / 100.0));
  return out;
}

Ecdf::Ecdf(std::vector<double> samples) : sorted_(std::move(samples)) {
  MCLOUD_REQUIRE(!sorted_.empty(), "Ecdf of empty sample");
  std::sort(sorted_.begin(), sorted_.end());
}

double Ecdf::Evaluate(double x) const {
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double Ecdf::Quantile(double q) const {
  MCLOUD_REQUIRE(q >= 0 && q <= 1, "quantile must be in [0,1]");
  return SortedQuantile(sorted_, q);
}

std::vector<double> Ecdf::OnGrid(std::span<const double> grid) const {
  std::vector<double> out;
  out.reserve(grid.size());
  for (double x : grid) out.push_back(Evaluate(x));
  return out;
}

std::vector<double> LogGrid(double lo, double hi, std::size_t points) {
  MCLOUD_REQUIRE(lo > 0 && hi > lo, "LogGrid needs 0 < lo < hi");
  MCLOUD_REQUIRE(points >= 2, "LogGrid needs >= 2 points");
  std::vector<double> out;
  out.reserve(points);
  const double step =
      std::log(hi / lo) / static_cast<double>(points - 1);
  for (std::size_t i = 0; i < points; ++i)
    out.push_back(lo * std::exp(step * static_cast<double>(i)));
  return out;
}

std::vector<double> LinGrid(double lo, double hi, std::size_t points) {
  MCLOUD_REQUIRE(hi > lo, "LinGrid needs lo < hi");
  MCLOUD_REQUIRE(points >= 2, "LinGrid needs >= 2 points");
  std::vector<double> out;
  out.reserve(points);
  const double step = (hi - lo) / static_cast<double>(points - 1);
  for (std::size_t i = 0; i < points; ++i)
    out.push_back(lo + step * static_cast<double>(i));
  return out;
}

}  // namespace mcloud
