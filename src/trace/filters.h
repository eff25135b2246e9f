// Record-level filters and per-user grouping over traces.
//
// The paper's analyses slice the trace several ways: mobile-only records for
// §3.1, proxied requests removed for §4, per-user request streams everywhere.
// These helpers are the shared slicing vocabulary; `Filter` materializes a
// new vector (exact-sized: it counts before it copies).
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "trace/log_record.h"

namespace mcloud {

/// Keep only records matching a predicate; preserves order. Two passes:
/// count, reserve exactly, copy — no growth overshoot.
template <typename Pred>
[[nodiscard]] std::vector<LogRecord> Filter(std::span<const LogRecord> trace,
                                            Pred&& pred) {
  std::size_t n = 0;
  for (const auto& r : trace) {
    if (pred(r)) ++n;
  }
  std::vector<LogRecord> out;
  out.reserve(n);
  for (const auto& r : trace) {
    if (pred(r)) out.push_back(r);
  }
  return out;
}

/// Records from mobile devices only (Android + iOS).
[[nodiscard]] std::vector<LogRecord> MobileOnly(
    std::span<const LogRecord> trace);

/// Records not behind an HTTP proxy — required before any RTT/throughput
/// analysis (§4: "we filtered out those requests that were proxied").
[[nodiscard]] std::vector<LogRecord> Unproxied(
    std::span<const LogRecord> trace);

/// Chunk requests only / file operations only.
[[nodiscard]] std::vector<LogRecord> ChunksOnly(
    std::span<const LogRecord> trace);
[[nodiscard]] std::vector<LogRecord> FileOperationsOnly(
    std::span<const LogRecord> trace);

/// Group a time-sorted trace by user; each user's records stay time-sorted.
[[nodiscard]] std::unordered_map<std::uint64_t, std::vector<LogRecord>>
GroupByUser(std::span<const LogRecord> trace);

/// Distinct users / devices in a trace.
[[nodiscard]] std::size_t CountDistinctUsers(std::span<const LogRecord> trace);
[[nodiscard]] std::size_t CountDistinctDevices(
    std::span<const LogRecord> trace);

/// Per-user sets of device types seen, for the mobile&PC splits of §3.2.
struct UserDevices {
  std::size_t mobile_devices = 0;  ///< distinct mobile device ids
  bool uses_pc = false;
};
[[nodiscard]] std::unordered_map<std::uint64_t, UserDevices> DevicesPerUser(
    std::span<const LogRecord> trace);

}  // namespace mcloud
