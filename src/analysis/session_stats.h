// Session-level statistics (§3.1.1, §3.1.3, §3.1.4): type split, size
// distributions versus file-operation count, and per-session average file
// size samples for the Table 2 mixture fits.
#pragma once

#include <span>
#include <vector>

#include "analysis/sessionizer.h"

namespace mcloud::analysis {

struct SessionTypeSplit {
  std::size_t total = 0;
  std::size_t store_only = 0;
  std::size_t retrieve_only = 0;
  std::size_t mixed = 0;

  [[nodiscard]] double StoreShare() const {
    return total ? static_cast<double>(store_only) / total : 0;
  }
  [[nodiscard]] double RetrieveShare() const {
    return total ? static_cast<double>(retrieve_only) / total : 0;
  }
  [[nodiscard]] double MixedShare() const {
    return total ? static_cast<double>(mixed) / total : 0;
  }
};

[[nodiscard]] SessionTypeSplit ClassifySessions(
    std::span<const Session> sessions);

/// One bin of Fig 5b/5c: sessions grouped by file-operation count.
struct SessionSizeBin {
  std::size_t file_ops = 0;     ///< the bin key
  std::size_t sessions = 0;
  double avg_mb = 0;
  double median_mb = 0;
  double p25_mb = 0;
  double p75_mb = 0;

  bool operator==(const SessionSizeBin&) const = default;
};

/// Volume-vs-op-count bins for sessions of one type, up to `max_ops` file
/// operations (the paper plots 1..100); their session counts are also
/// Fig 5a's CDF.
[[nodiscard]] std::vector<SessionSizeBin> SessionSizeByOpCount(
    std::span<const Session> sessions, Session::Type type,
    std::size_t max_ops = 100);

/// Per-session average file size (MB) for sessions of one type — the sample
/// that Table 2's mixture-exponential models describe. Sessions with zero
/// transferred volume are skipped.
[[nodiscard]] std::vector<double> AvgFileSizeSample(
    std::span<const Session> sessions, Session::Type type);

}  // namespace mcloud::analysis
