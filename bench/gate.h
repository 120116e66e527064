// Result documents and baseline gates for the bench binaries.
//
// A bench builds one serve::Json object holding its results, emits it
// (printed, and written to $PEVPM_BENCH_JSON when set), and, under
// --check BASELINE.json, judges that same document against the committed
// baseline, so what is written and what is gated cannot drift apart.
//
// The rules, each applied to one key:
//
//   at_least_fraction  result >= fraction x baseline  (throughput floors)
//   at_most_factor     result <= factor x baseline    (latency ceilings)
//   at_most_plus       result <= baseline + margin    (rates and errors)
//   require            lo <= result <= hi             (absolute contracts)
//
// Every miss prints one "check: ..." line to stderr. A key missing from
// either document, or not a number there, is a miss too: a gate never
// passes because the value it guards was not measured.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "serve/json.h"

namespace gate {

/// Where to write the result document; nullptr when PEVPM_BENCH_JSON is
/// unset.
inline const char* json_path() { return std::getenv("PEVPM_BENCH_JSON"); }

/// Prints `doc` as one line of JSON and writes the same line to
/// json_path() when set. Returns false (after saying so on stderr) when
/// the file cannot be written.
[[nodiscard]] inline bool emit(const serve::Json& doc) {
  const std::string text = doc.dump() + "\n";
  std::fputs(text.c_str(), stdout);
  const char* path = json_path();
  if (path == nullptr) return true;
  std::ofstream out{path};
  if (out << text) return true;
  std::fprintf(stderr, "cannot write %s\n", path);
  return false;
}

/// Reads and parses a baseline document. On failure says why on stderr
/// and returns nullopt; the benches then exit 2 before measuring.
[[nodiscard]] inline std::optional<serve::Json> load_baseline(
    const std::string& path) {
  std::ifstream in{path};
  if (!in) {
    std::fprintf(stderr, "cannot open baseline %s\n", path.c_str());
    return std::nullopt;
  }
  std::stringstream text;
  text << in.rdbuf();
  try {
    return serve::Json::parse(text.str());
  } catch (const serve::JsonError& e) {
    std::fprintf(stderr, "cannot parse baseline: %s\n", e.what());
    return std::nullopt;
  }
}

/// Judges a result document against a baseline, one rule per call.
class Checker {
 public:
  static constexpr double kUnbounded = std::numeric_limits<double>::infinity();

  Checker(const serve::Json& result, const serve::Json& baseline)
      : result_{result}, baseline_{baseline} {}

  void at_least_fraction(std::string_view key, double fraction) {
    double value = 0.0;
    double base = 0.0;
    if (lookup(key, value, base) && value < fraction * base) {
      miss(key, "%g < %g x baseline %g", value, fraction, base);
    }
  }

  void at_most_factor(std::string_view key, double factor) {
    double value = 0.0;
    double base = 0.0;
    if (lookup(key, value, base) && value > factor * base) {
      miss(key, "%g > %g x baseline %g", value, factor, base);
    }
  }

  void at_most_plus(std::string_view key, double margin) {
    double value = 0.0;
    double base = 0.0;
    if (lookup(key, value, base) && value > base + margin) {
      miss(key, "%g > baseline %g + %g", value, base, margin);
    }
  }

  /// An absolute rule: the result must lie in [lo, hi]; `why` says what a
  /// miss means. The baseline is not read.
  void require(std::string_view key, double lo, double hi,
               std::string_view why) {
    double value = 0.0;
    if (number(result_, "result", key, value) && (value < lo || value > hi)) {
      miss(key, "%g outside [%g, %g]: %.*s", value, lo, hi,
           static_cast<int>(why.size()), why.data());
    }
  }

  /// Keys that missed, in the order their rules ran.
  [[nodiscard]] const std::vector<std::string>& failed() const noexcept {
    return failed_;
  }

  /// Exit status for the bench: 0 when every rule held (after printing
  /// so), 1 otherwise.
  [[nodiscard]] int finish(const std::string& baseline_path) const {
    if (!failed_.empty()) return 1;
    std::printf("check: all gates passed against %s\n",
                baseline_path.c_str());
    return 0;
  }

 private:
  bool number(const serve::Json& doc, const char* side, std::string_view key,
              double& out) {
    const serve::Json* entry = doc.find(key);
    if (entry == nullptr || !entry->is_number()) {
      miss(key, "%s is missing it", side);
      return false;
    }
    out = entry->as_double();
    return true;
  }

  bool lookup(std::string_view key, double& value, double& base) {
    return number(result_, "result", key, value) &&
           number(baseline_, "baseline", key, base);
  }

  template <typename... Args>
  void miss(std::string_view key, const char* format, Args... args) {
    std::fprintf(stderr, "check: %.*s: ", static_cast<int>(key.size()),
                 key.data());
    std::fprintf(stderr, format, args...);
    std::fputc('\n', stderr);
    failed_.emplace_back(key);
  }

  const serve::Json& result_;
  const serve::Json& baseline_;
  std::vector<std::string> failed_;
};

}  // namespace gate
