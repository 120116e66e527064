// Shared vocabulary of the layered benchmark: run arguments, the result
// every workload returns, and small timing / hashing helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (empty: not written).
  std::string trace_out;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload invocation reports. `info` lines (digests, the
/// determinism flag, the Jacobi error...) are printed before the result.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when any output check failed, even one not counted per operation.
  bool checks_passed = true;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> info;

  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
  void fail_check(const std::string& why) {
    checks_passed = false;
    info.push_back("check failed: " + why);
  }
  [[nodiscard]] bool correct() const noexcept {
    return checks_passed && failed == 0 && attempted > 0;
  }
};

/// Incremental 64-bit FNV-1a, the output digest of every workload.
class Digest {
 public:
  void add_bytes(const void* data, std::size_t size) noexcept {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ bytes[i]) * 0x100000001b3ULL;
    }
  }
  void add(std::string_view text) noexcept {
    add_bytes(text.data(), text.size());
  }
  void add(std::uint64_t value) noexcept { add_bytes(&value, sizeof value); }
  /// Hashes the exact bit pattern, so any change in a result shows.
  void add(double value) noexcept { add_bytes(&value, sizeof value); }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// 16 lower-case hex digits.
[[nodiscard]] std::string hex64(std::uint64_t value);

/// Type-7 quantile of an unsorted sample (0 for an empty one).
[[nodiscard]] double quantile_of(std::vector<double> xs, double q);

/// Median of a sample (0 for an empty one).
[[nodiscard]] inline double median_of(std::vector<double> xs) {
  return quantile_of(std::move(xs), 0.5);
}

/// Peak resident set size of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// CPU time (user + system) this process has used, all threads included,
/// those already joined too.
//
// The bounded metrics are CPU time, not wall time: on a virtual machine the
// hypervisor may stop a virtual CPU to run other guests ("steal" in
// /proc/stat), which stretches wall time, above all of the rank hand-offs
// MPIBench makes, but is not charged to the process. The wall-clock view
// is still reported (see report_wall).
[[nodiscard]] double cpu_seconds();

/// Wall and CPU time since construction.
class Stopwatch {
 public:
  [[nodiscard]] double wall_s() const { return seconds_since(wall0_); }
  [[nodiscard]] double cpu_s() const { return cpu_seconds() - cpu0_; }

 private:
  Clock::time_point wall0_ = Clock::now();
  double cpu0_ = cpu_seconds();
};

/// Number of set-ups whose median is reported as setup_s. The first one
/// also pays for cold caches and fresh heap pages; the median of five keeps
/// that and one slow outlier out of the figure.
inline constexpr int kSetupRepeats = 5;

/// Medians over the repeated set-ups of a run.
struct SetupTimes {
  double cpu_s = 0.0;   ///< reported as setup_s
  double wall_s = 0.0;  ///< an info line
};

/// Runs `setup` kSetupRepeats times and returns the median CPU and wall
/// times in seconds.
template <typename Fn>
[[nodiscard]] SetupTimes timed_setup(Fn&& setup) {
  std::vector<double> cpu;
  std::vector<double> wall;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Stopwatch watch;
    setup();
    cpu.push_back(watch.cpu_s());
    wall.push_back(watch.wall_s());
  }
  return {median_of(std::move(cpu)), median_of(std::move(wall))};
}

/// Stores the end-to-end metrics every untraced run reports: setup_s,
/// work_per_cpu_s (the median of `work_per_cpu_s`) and rss_mb.
void report_end_to_end(Result& result, const SetupTimes& setup,
                       const std::vector<double>& work_per_cpu_s, double rss_mb);

/// The wall-clock view of a run: work per wall second (median), and the
/// median and 99th percentile of `op_ms`, the per-operation wall times. A
/// traced run stores them as the per-layer wall.* metrics, an untraced run
/// as info lines.
void report_wall(Result& result, const std::vector<double>& work_per_s,
                 const std::vector<double>& op_ms, bool as_metrics);

}  // namespace perfbench
