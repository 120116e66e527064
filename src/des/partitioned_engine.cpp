#include "des/partitioned_engine.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace des {

PartitionSet::PartitionSet(int partitions, Duration lookahead)
    : lookahead_{lookahead} {
  if (partitions < 1) {
    throw std::invalid_argument{"PartitionSet: partitions < 1"};
  }
  if (partitions > 1 && lookahead <= Duration{}) {
    throw std::invalid_argument{"PartitionSet: lookahead must be > 0"};
  }
  for (int p = 0; p < partitions; ++p) engines_.emplace_back();
  if (partitions > 1) {
    pending_.resize(static_cast<std::size_t>(partitions) * partitions);
  }
}

// LINT:hot-path begin (cross-partition post and the drain between windows:
// the pending vectors keep their capacity across windows, so a steady-state
// post is a store — no allocation, locks or iostream here. Enforced by
// tools/repro_lint.)
void PartitionSet::post(PartitionId from, PartitionId to, SimTime at,
                        SmallFn fn, int priority) {
  Engine& source = engines_[static_cast<std::size_t>(from.value())];
  const SimTime sched = source.now();
  if (from == to) {
    engines_[static_cast<std::size_t>(to.value())].schedule_injected(
        at, sched, std::move(fn), priority);
    return;
  }
  if (at < sched + lookahead_) {
    throw std::logic_error{"PartitionSet::post: event inside the lookahead"};
  }
  pending(from.value(), to.value())
      .push_back(QueuedEvent{at, sched, priority, std::move(fn)});
}

void PartitionSet::drain_pending() {
  // Fixed (destination, source, FIFO) order: this drain is the only place
  // cross-partition events enter an engine, so it alone fixes their
  // injection order and with it every downstream `seq` tie-break.
  const int k = partitions();
  for (int to = 0; to < k; ++to) {
    Engine& dst = engines_[to];
    for (int from = 0; from < k; ++from) {
      std::vector<QueuedEvent>& queue = pending(from, to);
      for (QueuedEvent& event : queue) {
        dst.schedule_injected(event.at, event.sched, std::move(event.fn),
                              event.priority);
      }
      queue.clear();
    }
  }
}
// LINT:hot-path end

SimTime PartitionSet::next_time() const noexcept {
  SimTime w = kNever;
  for (const Engine& engine : engines_) {
    w = std::min(w, engine.next_event_time());
  }
  return w;
}

void PartitionSet::run(unsigned /*ignored*/) {
  const int k = partitions();
  if (k == 1) {
    // The sequential special case really is the sequential engine: no
    // windows, so a one-partition set is bit-identical to the
    // pre-partitioning code path.
    engines_[0].run();
    return;
  }
  for (;;) {
    drain_pending();
    const SimTime window = next_time();
    if (window == kNever) return;
    const SimTime horizon = window + lookahead_ - Duration{1};
    for (Engine& engine : engines_) engine.run_until(horizon);
  }
}

SimTime PartitionSet::last_event_time() const noexcept {
  SimTime t{};
  for (const Engine& engine : engines_) {
    t = std::max(t, engine.last_dispatch_time());
  }
  return t;
}

std::uint64_t PartitionSet::processed() const noexcept {
  std::uint64_t n = 0;
  for (const Engine& engine : engines_) n += engine.processed();
  return n;
}

std::uint64_t PartitionSet::cancelled() const noexcept {
  std::uint64_t n = 0;
  for (const Engine& engine : engines_) n += engine.cancelled();
  return n;
}

std::uint64_t PartitionSet::heap_high_water() const noexcept {
  std::uint64_t n = 0;
  for (const Engine& engine : engines_) n += engine.heap_high_water();
  return n;
}

std::uint64_t PartitionSet::pending_high_water() const noexcept {
  std::uint64_t n = 0;
  for (const Engine& engine : engines_) n += engine.pending_high_water();
  return n;
}

std::uint64_t PartitionSet::resumes() const noexcept {
  std::uint64_t n = 0;
  for (const Engine& engine : engines_) n += engine.resumes();
  return n;
}

}  // namespace des
