// Temporal workload pattern (§2.4, Fig 1): hourly data volume and file
// counts per direction, plus the diurnal summary the paper discusses
// (evening surge, retrieval volume above storage volume, stored-file count
// about twice the retrieved-file count).
#pragma once

#include <span>
#include <vector>

#include "trace/log_record.h"
#include "util/timeutil.h"

namespace mcloud::analysis {

struct HourBin {
  int hour = 0;  ///< hour since trace start
  // Volumes are kept as exact integer bytes: integer addition is
  // associative, so partial bins merged across trace slices and user
  // ranges (the walk's tasks) sum to exactly the same totals as one
  // resident pass. Figures read the decimal-GB accessors.
  std::uint64_t store_volume_bytes = 0;  ///< chunk payload volume
  std::uint64_t retrieve_volume_bytes = 0;
  std::uint64_t stored_files = 0;      ///< file storage operations
  std::uint64_t retrieved_files = 0;   ///< file retrieval operations

  [[nodiscard]] double StoreVolumeGb() const {
    return static_cast<double>(store_volume_bytes) / 1e9;
  }
  [[nodiscard]] double RetrieveVolumeGb() const {
    return static_cast<double>(retrieve_volume_bytes) / 1e9;
  }
};

struct WorkloadTimeseries {
  std::vector<HourBin> hours;

  [[nodiscard]] double TotalStoreGb() const;
  [[nodiscard]] double TotalRetrieveGb() const;
  [[nodiscard]] std::uint64_t TotalStoredFiles() const;
  [[nodiscard]] std::uint64_t TotalRetrievedFiles() const;
  /// Hour-of-day (0..23) with the largest average total volume — the
  /// paper's ~11 PM surge.
  [[nodiscard]] int PeakHourOfDay() const;
};

/// Build the hourly series of a trace over `days` days from `trace_start`.
[[nodiscard]] WorkloadTimeseries BuildTimeseries(
    std::span<const LogRecord> trace, UnixSeconds trace_start = kTraceStart,
    int days = 7);

}  // namespace mcloud::analysis
