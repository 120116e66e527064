// In-memory spans and allocation counts for the traced run.
//
// A span is one call into a layer, timed from the benchmark's side of the
// boundary: name, start, end, the span that caused it (its parent) and the
// request it belongs to. Spans stay in memory while the run measures and
// are written out once it ends, together with each name's self time — the
// span's duration minus the part of it that its child spans cover.
//
// Recording is off unless the run was started with --trace 1; a disabled
// Span costs one relaxed load. Allocation counting is a separate switch over
// the instrumented global operator new, turned on only for the traced phase
// and the layer probes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::spans {

/// Starts or stops counting calls to the global operator new.
void count_allocations(bool on) noexcept;
/// Allocations counted so far (monotonic).
[[nodiscard]] std::uint64_t allocations() noexcept;

void enable(bool on) noexcept;
[[nodiscard]] bool enabled() noexcept;

/// RAII span. The parent defaults to the innermost open span of this
/// thread; pass one explicitly for work handed to another thread.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0);
  Span(const char* name, std::uint64_t request, std::int32_t parent);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Index of this span in the record list (-1 when recording is off).
  [[nodiscard]] std::int32_t index() const noexcept { return index_; }

 private:
  std::int32_t index_ = -1;
  std::int32_t saved_current_ = -1;
};

/// Durations in seconds of the finished spans called `name`.
[[nodiscard]] std::vector<double> durations(const std::string& name);

/// Per-name totals: count, summed duration and summed self time (seconds).
struct NameTotals {
  std::string name;
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};
[[nodiscard]] std::vector<NameTotals> totals();

/// Writes the spans and per-name totals as JSON to `path`. Returns false
/// when the file cannot be written.
bool write_json(const std::string& path, const std::string& workload,
                std::uint64_t seed);

}  // namespace perfbench::spans
