// Record-level filters over AoS traces.
//
// The paper's §3.1 analyses read the mobile-only records. MobileOnly and
// CountDistinctDevices are the plain AoS forms the streaming per-user pass
// is checked against; `Filter` materializes a new vector (exact-sized: it
// counts before it copies).
#pragma once

#include <cstddef>
#include <span>
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

/// Distinct devices in a trace.
[[nodiscard]] std::size_t CountDistinctDevices(
    std::span<const LogRecord> trace);

}  // namespace mcloud
