#include "des/partitioned_engine.h"

#include <algorithm>
#include <atomic>
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
    mailboxes_.resize(static_cast<std::size_t>(partitions) * partitions);
    for (auto& box : mailboxes_) {
      box = std::make_unique<pevpm::SpscMailbox<QueuedEvent>>();
    }
  }
}

// LINT:hot-path begin (cross-partition post and the per-window execution
// body: mailbox pushes are wait-free ring stores, run_until dispatches from
// the pooled event queue — no allocation, locks or iostream here; the
// coordinator-side drain below is equally fenced. Enforced by
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
  mailbox(from.value(), to.value())
      .push(QueuedEvent{at, sched, priority, std::move(fn)});
}

void PartitionSet::run_window(int p, SimTime horizon) {
  engines_[p].run_until(horizon);
}

void PartitionSet::drain_mailboxes() {
  // Fixed (destination, source, FIFO) order: this serial drain is the only
  // place cross-partition events enter an engine, so the injection order —
  // and with it every downstream tie-break — is independent of how many
  // threads executed the window.
  const int k = partitions();
  for (int to = 0; to < k; ++to) {
    Engine& dst = engines_[to];
    for (int from = 0; from < k; ++from) {
      if (from == to) continue;
      mailbox(from, to).drain([&dst](QueuedEvent&& event) {
        dst.schedule_injected(event.at, event.sched, std::move(event.fn),
                              event.priority);
      });
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

void PartitionSet::run(unsigned threads) {
  const int k = partitions();
  if (k == 1) {
    // The sequential special case really is the sequential engine: no
    // windows, no barriers, so a one-partition set is bit-identical to the
    // pre-partitioning code path.
    engines_[0].run();
    return;
  }
  const unsigned workers =
      std::min<unsigned>(std::max(1u, threads), static_cast<unsigned>(k));
  if (workers == 1) {
    // Same window/drain structure as the threaded path (which is what makes
    // thread count unobservable), minus the barriers.
    for (;;) {
      drain_mailboxes();
      const SimTime window = next_time();
      if (window == kNever) return;
      const SimTime horizon = window + lookahead_ - Duration{1};
      for (int p = 0; p < k; ++p) run_window(p, horizon);
    }
  }

  pevpm::WindowBarrier barrier{workers};
  std::atomic<bool> done{false};
  SimTime horizon{};  // written by the coordinator, published by the barrier
  pevpm::ThreadPool pool{workers - 1};
  for (unsigned worker = 1; worker < workers; ++worker) {
    pool.submit([this, worker, workers, k, &barrier, &done, &horizon] {
      for (;;) {
        barrier.arrive_and_wait();  // wait for the coordinator's window
        if (done.load(std::memory_order_acquire)) return;
        for (int p = static_cast<int>(worker); p < k;
             p += static_cast<int>(workers)) {
          run_window(p, horizon);
        }
        barrier.arrive_and_wait();  // window complete
      }
    });
  }
  for (;;) {
    drain_mailboxes();
    const SimTime window = next_time();
    if (window == kNever) {
      done.store(true, std::memory_order_release);
      barrier.arrive_and_wait();
      break;
    }
    horizon = window + lookahead_ - Duration{1};
    barrier.arrive_and_wait();  // publish the window
    for (int p = 0; p < k; p += static_cast<int>(workers)) {
      run_window(p, horizon);
    }
    barrier.arrive_and_wait();  // wait for the followers
  }
  pool.wait();
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

}  // namespace des
