// Inter-operation interval modeling (§3.1.1, Fig 3).
//
// The paper histograms the log10 of inter-file-operation times, finds a
// valley near the 1-hour mark, fits a two-component Gaussian mixture (one
// intra-session, one inter-session component), and sets τ = 1 h. This module
// packages that pipeline: histogram → valley → GMM fit → τ.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "stats/em_gaussian.h"
#include "stats/tdigest.h"
#include "util/histogram.h"
#include "util/units.h"

namespace mcloud::analysis {

struct IntervalModel {
  Histogram log10_histogram;       ///< Fig 3's bars
  GaussianMixtureFit gmm;          ///< two components over log10 seconds
  Seconds valley_tau = 0;          ///< τ from the histogram valley
  Seconds gmm_tau = 0;             ///< τ where both components are equally
                                   ///< likely (crossover point)
  /// Component means converted back to seconds (geometric means).
  Seconds intra_mean_seconds = 0;
  Seconds inter_mean_seconds = 0;
};

struct IntervalModelOptions {
  std::size_t histogram_bins = 60;
  double log10_min = 0.0;   ///< 1 second
  double log10_max = 6.0;   ///< ~11.6 days
};

// --- Streaming interval sketch ---------------------------------------------
//
// The engine keeps the intervals in a LogBins sketch, not a vector. Log timestamps are quantized to one second (Table 1), so intervals
// are de-quantized with uniform jitter before binning — without it, log bins
// that contain no integer stay empty and fake histogram valleys appear. The
// jitter is a *stateless hash* of (user_id, timestamp): every engine and
// every slice of the trace computes the identical jitter for a given gap
// regardless of processing order, which is what makes the sketch mergeable
// and byte-identical across --threads. The bin index uses the jittered
// value, while the bin sum accumulates the raw integer gap so per-bin sums
// stay exactly representable (order-independent FP addition).

/// Fine-bin geometry: 1016 log10 bins of width 0.00625 over [-0.35, 6.0).
/// 0.0 is a bin edge and each Fig 3 coarse bin (width 0.1) is exactly 16
/// fine bins, so the 60-bin histogram is reconstructed without loss; the
/// jittered minimum 0.5 s (log10 ≈ -0.301) stays in range.
inline constexpr double kIntervalSketchLog10Lo = -0.35;
inline constexpr double kIntervalSketchLog10Hi = 6.0;
inline constexpr std::size_t kIntervalSketchBins = 1016;

[[nodiscard]] inline LogBins MakeIntervalSketch() {
  return LogBins(kIntervalSketchLog10Lo, kIntervalSketchLog10Hi,
                 kIntervalSketchBins);
}

/// Deterministic dequantization jitter in [-0.5, 0.5): SplitMix64 finalizer
/// over the (user, timestamp) pair that ends the gap.
[[nodiscard]] inline double IntervalJitter(std::uint64_t user_id,
                                           std::uint64_t timestamp) {
  std::uint64_t z = user_id * 0x9E3779B97F4A7C15ull ^
                    timestamp * 0xD1B54A32D192ED03ull;
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-53 - 0.5;
}

/// Add one positive inter-op gap (integer seconds, ended by `user_id`'s file
/// operation at `timestamp`) to the sketch.
inline void AddIntervalToSketch(LogBins& sketch, std::uint64_t user_id,
                                std::uint64_t timestamp,
                                double gap_seconds) {
  const double dequantized =
      gap_seconds >= 1.0
          ? std::max(0.5, gap_seconds + IntervalJitter(user_id, timestamp))
          : gap_seconds;
  sketch.Add(dequantized, gap_seconds, 1);
}

/// Fit the Fig 3 pipeline from the interval sketch: the coarse histogram is
/// reconstructed exactly from fine-bin counts (fine centers below
/// `log10_min`, the sub-second jittered gaps, land in underflow) and the
/// GMM is fit to the weighted (fine-bin log10 center, count) pairs.
[[nodiscard]] IntervalModel FitIntervalModel(
    const LogBins& sketch, const IntervalModelOptions& options = {});

/// Crossover point of a two-component mixture: the x where the weighted
/// densities of the two components are equal (between their means). This is
/// the paper's argument that the 1-hour mark "is equally likely to be within
/// the two components".
[[nodiscard]] double MixtureCrossover(const GaussianMixture& mixture);

}  // namespace mcloud::analysis
