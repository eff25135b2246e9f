#include "stats/special_functions.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.h"

namespace mcloud {
namespace {

constexpr int kMaxIterations = 500;
constexpr double kEpsilon = 1e-14;

/// ln Γ(a) through the reentrant glibc routine: std::lgamma writes the
/// global `signgam`, a data race when two fits run concurrently. Same
/// routine, same values.
double LogGamma(double a) {
  int sign = 0;
  return ::lgamma_r(a, &sign);
}

// Series expansion of P(a, x), accurate for x < a + 1.
double GammaPSeries(double a, double x) {
  double term = 1.0 / a;
  double sum = term;
  double ap = a;
  for (int i = 0; i < kMaxIterations; ++i) {
    ap += 1.0;
    term *= x / ap;
    sum += term;
    if (std::abs(term) < std::abs(sum) * kEpsilon) break;
  }
  return sum * std::exp(-x + a * std::log(x) - LogGamma(a));
}

// Lentz continued fraction for Q(a, x), accurate for x >= a + 1.
double GammaQContinuedFraction(double a, double x) {
  const double tiny = std::numeric_limits<double>::min() / kEpsilon;
  double b = x + 1.0 - a;
  double c = 1.0 / tiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kMaxIterations; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < tiny) d = tiny;
    c = b + an / c;
    if (std::abs(c) < tiny) c = tiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::abs(delta - 1.0) < kEpsilon) break;
  }
  return h * std::exp(-x + a * std::log(x) - LogGamma(a));
}

}  // namespace

double RegularizedGammaP(double a, double x) {
  MCLOUD_REQUIRE(a > 0, "gamma P needs a > 0");
  MCLOUD_REQUIRE(x >= 0, "gamma P needs x >= 0");
  if (x == 0) return 0;
  if (x < a + 1.0) return GammaPSeries(a, x);
  return 1.0 - GammaQContinuedFraction(a, x);
}

double RegularizedGammaQ(double a, double x) {
  MCLOUD_REQUIRE(a > 0, "gamma Q needs a > 0");
  MCLOUD_REQUIRE(x >= 0, "gamma Q needs x >= 0");
  if (x == 0) return 1;
  if (x < a + 1.0) return 1.0 - GammaPSeries(a, x);
  return GammaQContinuedFraction(a, x);
}

double ChiSquareSurvival(double x, double dof) {
  MCLOUD_REQUIRE(dof > 0, "chi-square needs dof > 0");
  if (x <= 0) return 1;
  return RegularizedGammaQ(dof / 2.0, x / 2.0);
}

double KolmogorovSurvival(double t) {
  if (t <= 0) return 1.0;
  if (t < 1.18) {
    // Dual (Jacobi theta) series: P(K <= t) = sqrt(2π)/t Σ exp(-(2k-1)²π²/8t²)
    // converges in a couple of terms for small t where the alternating
    // series needs many.
    const double f = std::exp(-1.23370055013616983 / (t * t));  // π²/8
    const double cdf = 2.50662827463100050 / t *                 // sqrt(2π)
                       (f + std::pow(f, 9.0) + std::pow(f, 25.0) +
                        std::pow(f, 49.0));
    return 1.0 - cdf;
  }
  // Alternating series; terms shrink so fast past t >= 1.18 that four
  // suffice for full double precision.
  const double e = std::exp(-2.0 * t * t);
  double sum = 0;
  double sign = 1;
  for (int k = 1; k <= 8; ++k) {
    const double term = std::pow(e, static_cast<double>(k) * k);
    sum += sign * term;
    if (term < 1e-18) break;
    sign = -sign;
  }
  return std::clamp(2.0 * sum, 0.0, 1.0);
}

double AndersonDarlingSurvival(double z) {
  if (z <= 0) return 1.0;
  // Marsaglia & Marsaglia (2004), "Evaluating the Anderson-Darling
  // Distribution": adinf(z) approximates the limiting CDF.
  double cdf;
  if (z < 2.0) {
    cdf = std::pow(z, -0.5) * std::exp(-1.2337141 / z) *
          (2.00012 +
           (0.247105 -
            (0.0649821 - (0.0347962 - (0.011672 - 0.00168691 * z) * z) * z) *
                z) *
               z);
  } else {
    cdf = std::exp(
        -std::exp(1.0776 -
                  (2.30695 -
                   (0.43424 - (0.082433 - (0.008056 - 0.0003146 * z) * z) * z) *
                       z) *
                      z));
  }
  return std::clamp(1.0 - cdf, 0.0, 1.0);
}

}  // namespace mcloud
