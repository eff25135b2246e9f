#include "trace/filters.h"

#include <unordered_set>

namespace mcloud {

std::vector<LogRecord> MobileOnly(std::span<const LogRecord> trace) {
  return Filter(trace, [](const LogRecord& r) { return r.IsMobile(); });
}

std::size_t CountDistinctDevices(std::span<const LogRecord> trace) {
  std::unordered_set<std::uint64_t> ids;
  for (const auto& r : trace) ids.insert(r.device_id);
  return ids.size();
}

}  // namespace mcloud
