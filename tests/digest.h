// 64-bit FNV-1a digest for pinning simulator output in tests.
//
// A test hashes every field it cares about and compares the hex string
// with a value recorded when the test was written; a change that moves a
// digest changed the output and has to say so.
#pragma once

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "stats/histogram.h"
#include "stats/summary.h"

namespace testdigest {

/// 64-bit FNV-1a over a stream of integers, doubles (by bit pattern) and
/// text.
class Digest {
 public:
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ = (hash_ ^ ((value >> (8 * byte)) & 0xffU)) * kPrime;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  void add(std::string_view text) {
    add(static_cast<std::uint64_t>(text.size()));
    for (const char c : text) {
      hash_ = (hash_ ^ static_cast<unsigned char>(c)) * kPrime;
    }
  }
  void add(const stats::Histogram& histogram) {
    add(histogram.bin_width());
    add(histogram.origin());
    add(histogram.total());
    add(histogram.underflow());
    add(histogram.summary());
    add(static_cast<std::uint64_t>(histogram.bin_count()));
    for (std::size_t bin = 0; bin < histogram.bin_count(); ++bin) {
      add(histogram.count_at(bin));
    }
  }
  void add(const stats::Summary& summary) {
    add(static_cast<std::uint64_t>(summary.count()));
    add(summary.mean());
    add(summary.variance());
    add(summary.min());
    add(summary.max());
  }

  [[nodiscard]] std::string hex() const {
    char out[17];
    std::snprintf(out, sizeof out, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return out;
  }

 private:
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace testdigest
