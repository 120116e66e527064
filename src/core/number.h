// Strict number parsing for text that comes from outside the process:
// command-line flags, cluster descriptions and request fields.
//
// Header-only and dependent on the standard library alone, so every layer
// (net included) can use the one parser instead of growing its own.
#pragma once

#include <charconv>
#include <cmath>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace pevpm {

/// Parses `text` as one whole number of type T (an integer or a floating
/// type), strictly: the entire token, no leading space or '+', no sign for
/// an unsigned T, nothing outside T's range, and for floating T nothing
/// non-finite. Returns false (`out` untouched) otherwise. Every numeric
/// command-line flag and every cluster-description value goes through
/// this, so a malformed value is an error the caller reports rather than
/// an uncaught exception or a silently truncated number.
template <typename T>
[[nodiscard]] bool parse_number(std::string_view text, T& out) {
  T value{};
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return false;
  }
  out = value;
  return true;
}

}  // namespace pevpm
