// The command line of mcloudctl, mcloudd and mcloudload: `--key value`
// flags, `--key` switches and positional arguments, parsed by one loop
// (Parse) from each tool's or command's table of the flags it takes.
//
// The grammar is strict, and everything it rejects prints a message naming
// the flag and exits 2 before the tool creates any output:
//   * a flag the table does not list;
//   * a value flag whose value is missing, empty or another flag;
//   * a positional argument where the tool takes none;
//   * a numeric value that does not fill its token or fit its field (the
//     getters below; every tool reads its numbers before any output).
#pragma once

#include <algorithm>
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
#include <utility>
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

/// The flags one tool or command takes.
struct FlagTable {
  std::string_view values;    ///< space-separated; each takes a value
  std::string_view switches;  ///< space-separated; each takes no value
  bool positional = true;     ///< whether it takes positional arguments

  /// Whether `key` is one of the space-separated names in `list`.
  static bool Lists(std::string_view list, std::string_view key) {
    for (std::size_t at = 0; at < list.size();) {
      const std::size_t end = std::min(list.find(' ', at), list.size());
      if (list.substr(at, end - at) == key) return true;
      at = end + 1;
    }
    return false;
  }
};

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

/// argv[first..argc) under `table`: a value flag takes the next token, a
/// switch takes none (so a positional after it stays positional), and any
/// other token not starting with "--" is positional. `who` names the tool
/// or command in the messages; a rejected command line exits 2.
inline Args Parse(std::string tool, std::string_view who,
                  const FlagTable& table, int argc, char** argv, int first) {
  Args args;
  args.tool = std::move(tool);
  const auto fail = [&](const std::string& message) {
    std::fprintf(stderr, "%s: %s\n", args.tool.c_str(), message.c_str());
    std::exit(2);
  };
  for (int i = first; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a.rfind("--", 0) != 0) {
      if (!table.positional)
        fail(std::string(who) + " takes no argument '" + std::string(a) +
             "'");
      args.positional.emplace_back(a);
      continue;
    }
    const std::string key(a.substr(2));
    if (FlagTable::Lists(table.switches, key)) {
      args.flags[key] = "";
    } else if (FlagTable::Lists(table.values, key)) {
      const std::string_view value = i + 1 < argc ? argv[i + 1] : "";
      if (i + 1 >= argc || value.empty() || value.rfind("--", 0) == 0) {
        fail(std::string(who) + " --" + key + " needs a value" +
             (i + 1 < argc ? ", not '" + std::string(value) + "'" : ""));
      }
      args.flags[key] = value;
      ++i;
    } else {
      fail(std::string(who) + " does not take --" + key);
    }
  }
  return args;
}

}  // namespace mcloud::tools
