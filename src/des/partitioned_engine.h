// Conservative (lookahead-window) parallel discrete-event simulation.
//
// A PartitionSet runs K logical processes, each a plain des::Engine, in
// lockstep windows of virtual time. The window bound is the classic
// conservative-synchronisation invariant: if every cross-partition
// interaction posted at source time t lands at t + lookahead or later, then
// all events in [W, W + lookahead) — W the global minimum next-event time —
// are already fully determined and the K engines can execute that window
// concurrently with no further coordination.
//
// Determinism contract (DESIGN.md section 9):
//
//   * Thread-count independence is structural. The window sequence depends
//     only on event timestamps, and cross-partition events travel through
//     per-(source, destination) SPSC mailboxes that the coordinator drains
//     serially at the window barrier in a fixed order — destination
//     ascending, source ascending, FIFO within a pair. Running the window
//     bodies on 1 thread or N therefore executes the exact same event
//     sequence per engine, byte for byte.
//   * A partitioned run is its own reference. It is not ordering-equivalent
//     to one engine over the same model: an injected event carries the
//     source partition's now() at post time as its `sched` key and takes
//     the destination engine's next `seq` when the coordinator drains it,
//     so a same-time tie against a local event can resolve differently
//     from the global seq order of a single engine (DESIGN.md section 9
//     has the reproduction). smpi::Runtime therefore always partitions by
//     switch, whatever the thread count.
//
// A PartitionSet of one partition is the plain sequential engine: run()
// forwards straight to Engine::run() with no windows, barriers or
// mailboxes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "core/parallel.h"
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

  /// Runs all partitions to completion on up to `threads` threads (caller's
  /// thread plus a core/parallel pool). With one partition this is exactly
  /// Engine::run() on the sole engine.
  void run(unsigned threads = 1);

  /// Virtual time of the last dispatched event across all partitions (the
  /// simulation finish time; run_until() overshoot does not count).
  [[nodiscard]] SimTime last_event_time() const noexcept;

  [[nodiscard]] std::uint64_t processed() const noexcept;
  /// Engine counters summed over partitions (Engine::cancelled() etc.).
  /// Each engine's event sequence is independent of the thread count, and
  /// so are these.
  [[nodiscard]] std::uint64_t cancelled() const noexcept;
  [[nodiscard]] std::uint64_t heap_high_water() const noexcept;
  [[nodiscard]] std::uint64_t pending_high_water() const noexcept;

 private:
  struct QueuedEvent {
    SimTime at{};
    SimTime sched{};
    std::int32_t priority = 0;
    SmallFn fn;
  };

  [[nodiscard]] pevpm::SpscMailbox<QueuedEvent>& mailbox(int from, int to) {
    return *mailboxes_[static_cast<std::size_t>(to) * engines_.size() + from];
  }

  /// Serial coordinator step: drains every mailbox in (to, from, FIFO)
  /// order into the destination engines.
  void drain_mailboxes();
  /// Minimum next-event time across engines (mailboxes must be drained).
  [[nodiscard]] SimTime next_time() const noexcept;
  /// Executes one partition's share of the window [W, horizon].
  void run_window(int p, SimTime horizon);

  /// Engines are neither copyable nor movable; the deque gives them stable
  /// addresses and is sized once in the constructor.
  std::deque<Engine> engines_;
  std::vector<std::unique_ptr<pevpm::SpscMailbox<QueuedEvent>>> mailboxes_;
  Duration lookahead_{};
};

}  // namespace des
