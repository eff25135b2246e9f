#include "trace/filters.h"

#include <unordered_set>

namespace mcloud {

std::vector<LogRecord> MobileOnly(std::span<const LogRecord> trace) {
  return Filter(trace, [](const LogRecord& r) { return r.IsMobile(); });
}

std::vector<LogRecord> Unproxied(std::span<const LogRecord> trace) {
  return Filter(trace, [](const LogRecord& r) { return !r.proxied; });
}

std::vector<LogRecord> ChunksOnly(std::span<const LogRecord> trace) {
  return Filter(trace, [](const LogRecord& r) {
    return r.request_type == RequestType::kChunkRequest;
  });
}

std::vector<LogRecord> FileOperationsOnly(std::span<const LogRecord> trace) {
  return Filter(trace, [](const LogRecord& r) {
    return r.request_type == RequestType::kFileOperation;
  });
}

std::unordered_map<std::uint64_t, std::vector<LogRecord>> GroupByUser(
    std::span<const LogRecord> trace) {
  std::unordered_map<std::uint64_t, std::vector<LogRecord>> out;
  for (const auto& r : trace) out[r.user_id].push_back(r);
  return out;
}

std::size_t CountDistinctUsers(std::span<const LogRecord> trace) {
  std::unordered_set<std::uint64_t> ids;
  for (const auto& r : trace) ids.insert(r.user_id);
  return ids.size();
}

std::size_t CountDistinctDevices(std::span<const LogRecord> trace) {
  std::unordered_set<std::uint64_t> ids;
  for (const auto& r : trace) ids.insert(r.device_id);
  return ids.size();
}

std::unordered_map<std::uint64_t, UserDevices> DevicesPerUser(
    std::span<const LogRecord> trace) {
  std::unordered_map<std::uint64_t, std::unordered_set<std::uint64_t>>
      mobile_ids;
  std::unordered_map<std::uint64_t, UserDevices> out;
  for (const auto& r : trace) {
    auto& u = out[r.user_id];
    if (r.device_type == DeviceType::kPc) {
      u.uses_pc = true;
    } else {
      mobile_ids[r.user_id].insert(r.device_id);
    }
  }
  for (auto& [user, devices] : mobile_ids)
    out[user].mobile_devices = devices.size();
  return out;
}

}  // namespace mcloud
