#include "analysis/workload_timeseries.h"

#include <array>

#include "util/error.h"

namespace mcloud::analysis {

double WorkloadTimeseries::TotalStoreGb() const {
  std::uint64_t v = 0;
  for (const auto& h : hours) v += h.store_volume_bytes;
  return static_cast<double>(v) / 1e9;
}

double WorkloadTimeseries::TotalRetrieveGb() const {
  std::uint64_t v = 0;
  for (const auto& h : hours) v += h.retrieve_volume_bytes;
  return static_cast<double>(v) / 1e9;
}

std::uint64_t WorkloadTimeseries::TotalStoredFiles() const {
  std::uint64_t v = 0;
  for (const auto& h : hours) v += h.stored_files;
  return v;
}

std::uint64_t WorkloadTimeseries::TotalRetrievedFiles() const {
  std::uint64_t v = 0;
  for (const auto& h : hours) v += h.retrieved_files;
  return v;
}

int WorkloadTimeseries::PeakHourOfDay() const {
  std::array<std::uint64_t, 24> by_hour{};
  for (const auto& h : hours)
    by_hour[static_cast<std::size_t>(h.hour % 24)] +=
        h.store_volume_bytes + h.retrieve_volume_bytes;
  int best = 0;
  for (int i = 1; i < 24; ++i) {
    if (by_hour[static_cast<std::size_t>(i)] >
        by_hour[static_cast<std::size_t>(best)])
      best = i;
  }
  return best;
}

WorkloadTimeseries BuildTimeseries(std::span<const LogRecord> trace,
                                   UnixSeconds trace_start, int days) {
  MCLOUD_REQUIRE(days >= 1, "need at least one day");
  WorkloadTimeseries ts;
  ts.hours.resize(static_cast<std::size_t>(days) * 24);
  for (std::size_t i = 0; i < ts.hours.size(); ++i)
    ts.hours[i].hour = static_cast<int>(i);

  for (const LogRecord& r : trace) {
    const int hour = HourIndex(r.timestamp, trace_start);
    if (hour < 0 || hour >= static_cast<int>(ts.hours.size())) continue;
    HourBin& bin = ts.hours[static_cast<std::size_t>(hour)];
    if (r.request_type == RequestType::kFileOperation) {
      (r.direction == Direction::kStore ? bin.stored_files
                                        : bin.retrieved_files)++;
    } else {
      (r.direction == Direction::kStore ? bin.store_volume_bytes
                                        : bin.retrieve_volume_bytes) +=
          r.data_volume;
    }
  }
  return ts;
}

}  // namespace mcloud::analysis
