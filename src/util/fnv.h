// 64-bit FNV-1a, the one hash behind mcloud's fingerprints: the trace
// (TraceFingerprint), the FullReport, the fleet's ServiceResult, the
// validation manifest and the what-if matrix. Each caller decides how its
// values become bytes (field order, widths, string delimiters); whichever
// method folds them, the value is the plain byte-wise FNV-1a of those
// bytes, so a fingerprint never depends on which shortcut computed it.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace mcloud {

class Fnv1a {
 public:
  static constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

  /// The 8 little-endian bytes of `v`. An FNV-1a step on a zero byte is a
  /// bare multiply, so when the top four bytes are zero (most counts, ids
  /// and times) they fold as one multiply by P^4 instead of four steps.
  void U64(std::uint64_t v) {
    for (int b = 0; b < 4; ++b) Step((v >> (8 * b)) & 0xff);
    if ((v >> 32) == 0) {
      h_ *= kPrime4;
      return;
    }
    for (int b = 4; b < 8; ++b) Step((v >> (8 * b)) & 0xff);
  }

  /// A one-byte field widened to 8 bytes: one step, then its seven zero
  /// bytes as one multiply by P^7.
  void U8(std::uint8_t v) { h_ = (h_ ^ v) * kPrime8; }

  /// The bit pattern of `v`, as U64.
  void Double(double v) { U64(std::bit_cast<std::uint64_t>(v)); }

  /// `n` bytes as they lie in memory, one step each.
  void Bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) Step(p[i]);
  }

  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  static constexpr std::uint64_t kPrime4 = kPrime * kPrime * kPrime * kPrime;
  static constexpr std::uint64_t kPrime8 = kPrime4 * kPrime4;

  void Step(std::uint64_t byte) { h_ = (h_ ^ byte) * kPrime; }

  std::uint64_t h_ = kOffset;
};

}  // namespace mcloud
