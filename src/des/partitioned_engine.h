// Conservative (lookahead-window) discrete-event simulation over
// partitions.
//
// A PartitionSet runs K logical processes, each a plain des::Engine, in
// lockstep windows of virtual time. The window bound is the classic
// conservative-synchronisation invariant: if every cross-partition
// interaction posted at source time t lands at t + lookahead or later, then
// all events in [W, W + lookahead) — W the global minimum next-event time —
// are already fully determined, so each engine can run that window to its
// end before any other engine's events of the window are seen.
//
// Determinism contract (DESIGN.md section 9):
//
//   * One worker runs every window: partitions execute in index order, and
//     cross-partition events wait in per-(destination, source) vectors
//     until the drain between windows, which injects them in a fixed order
//     — destination ascending, source ascending, FIFO within a pair. The
//     window sequence depends only on event timestamps.
//   * A partitioned run is its own reference. It is not ordering-equivalent
//     to one engine over the same model: an injected event carries the
//     source partition's now() at post time as its `sched` key and takes
//     the destination engine's next `seq` when the drain injects it, so a
//     same-time tie against a local event can resolve differently from the
//     global seq order of a single engine (DESIGN.md section 9 has the
//     reproduction). smpi::Runtime therefore always partitions by switch.
//
// A PartitionSet of one partition is the plain sequential engine: run()
// forwards straight to Engine::run() with no windows or pending posts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "core/units.h"
#include "des/engine.h"
#include "des/smallfn.h"
#include "des/time.h"

namespace des {

using units::PartitionId;

class PartitionSet {
 public:
  /// `lookahead` is the minimum cross-partition latency in virtual time;
  /// required > 0 when partitions > 1.
  PartitionSet(int partitions, Duration lookahead);

  PartitionSet(const PartitionSet&) = delete;
  PartitionSet& operator=(const PartitionSet&) = delete;

  [[nodiscard]] int partitions() const noexcept {
    return static_cast<int>(engines_.size());
  }
  [[nodiscard]] Duration lookahead() const noexcept { return lookahead_; }
  [[nodiscard]] Engine& engine(PartitionId p) {
    return engines_.at(static_cast<std::size_t>(p.value()));
  }
  [[nodiscard]] const Engine& engine(PartitionId p) const {
    return engines_.at(static_cast<std::size_t>(p.value()));
  }

  /// Posts `fn` into partition `to` at absolute time `at`, from partition
  /// `from`'s execution context. Cross-partition posts must respect the
  /// lookahead (`at >= engine(from).now() + lookahead()`); same-partition
  /// posts degenerate to a local injected schedule. The event's tie-break
  /// schedule time is the source partition's now().
  void post(PartitionId from, PartitionId to, SimTime at, SmallFn fn,
            int priority = 0);

  /// Runs all partitions to completion on the calling thread. With one
  /// partition this is exactly Engine::run() on the sole engine. The
  /// parameter is ignored; it remains only for existing callers and goes
  /// with the benchmark harness's next change.
  void run(unsigned /*ignored*/ = 1);

  /// Virtual time of the last dispatched event across all partitions (the
  /// simulation finish time; run_until() overshoot does not count).
  [[nodiscard]] SimTime last_event_time() const noexcept;

  [[nodiscard]] std::uint64_t processed() const noexcept;
  /// Engine counters summed over partitions (Engine::cancelled() etc.).
  [[nodiscard]] std::uint64_t cancelled() const noexcept;
  [[nodiscard]] std::uint64_t heap_high_water() const noexcept;
  [[nodiscard]] std::uint64_t pending_high_water() const noexcept;
  [[nodiscard]] std::uint64_t resumes() const noexcept;

 private:
  struct QueuedEvent {
    SimTime at{};
    SimTime sched{};
    std::int32_t priority = 0;
    SmallFn fn;
  };

  [[nodiscard]] std::vector<QueuedEvent>& pending(int from, int to) {
    return pending_[static_cast<std::size_t>(to) * engines_.size() + from];
  }

  /// Injects every pending post into its destination engine in (to, from,
  /// FIFO) order, then clears the vectors (keeping their capacity).
  void drain_pending();
  /// Minimum next-event time across engines (pending posts must be drained).
  [[nodiscard]] SimTime next_time() const noexcept;

  /// Engines are neither copyable nor movable; the deque gives them stable
  /// addresses and is sized once in the constructor.
  std::deque<Engine> engines_;
  /// Cross-partition posts of the current window, one vector per (to, from)
  /// pair at index to * K + from.
  std::vector<std::vector<QueuedEvent>> pending_;
  Duration lookahead_{};
};

}  // namespace des
