// The parsed command line of mcloudctl, mcloudd and mcloudload: `--key
// value` flags plus positional arguments. Each tool keeps its own Parse
// (which flags exist, which take no value); the getters here are shared.
//
// Numeric getters are strict: a value must be a number that fills its
// token and fits the field it is stored in. Anything else prints a message
// naming the flag and exits 2, so every tool reads its numbers before it
// creates any output.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace mcloud::tools {

/// `text` as a finite number that fills the whole token (no leading space
/// or sign, no trailing characters); false for anything else.
inline bool ParseNumber(std::string_view text, double& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end && std::isfinite(out);
}

/// The largest MiB count whose byte count fits 64 bits: the `max` of a
/// GetU64 flag that the caller scales from MiB into bytes.
inline constexpr std::uint64_t kMaxMiB =
    std::numeric_limits<std::uint64_t>::max() >> 20;

struct Args {
  std::string tool;  ///< prefixes every error message
  std::map<std::string, std::string> flags;
  std::vector<std::string> positional;

  [[nodiscard]] std::string Get(const std::string& key,
                                const std::string& fallback = "") const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  [[nodiscard]] bool Has(const std::string& key) const {
    return flags.count(key) > 0;
  }

  /// --key as decimal digits whose value fits a T and is at most `max`
  /// (a bound for a value the caller scales into bytes); `fallback` when
  /// the flag is absent.
  template <typename T = std::uint64_t>
  [[nodiscard]] T GetU64(
      const std::string& key, std::type_identity_t<T> fallback,
      std::type_identity_t<T> max = std::numeric_limits<T>::max()) const {
    const auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    const std::string& text = it->second;
    std::uint64_t v = 0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), v);
    if (ec != std::errc() || ptr != text.data() + text.size() ||
        v > static_cast<std::uint64_t>(max)) {
      Reject(key, "an integer from 0 to " + std::to_string(max));
    }
    return static_cast<T>(v);
  }

  /// --key as a finite number (ParseNumber); `fallback` when absent.
  [[nodiscard]] double GetDouble(const std::string& key,
                                 double fallback) const {
    const auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    double v = 0;
    if (!ParseNumber(it->second, v)) Reject(key, "a finite number");
    return v;
  }

  /// Print "TOOL: --KEY takes WHAT, not 'VALUE'" and exit 2.
  [[noreturn]] void Reject(const std::string& key,
                           const std::string& what) const {
    std::fprintf(stderr, "%s: --%s takes %s, not '%s'\n", tool.c_str(),
                 key.c_str(), what.c_str(), Get(key).c_str());
    std::exit(2);
  }
};

}  // namespace mcloud::tools
