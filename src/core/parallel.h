// Thread-pool fan-out for the Monte-Carlo prediction engine.
//
// PEVPM replications are embarrassingly parallel: each one owns its
// DeliverySampler (seeded from the per-replication splitmix64 sequence) and
// its Vm state, and only reads the shared Model / DistributionTable. The
// pool here is deliberately minimal — a fixed set of workers draining a
// task queue — plus a `parallel_for` index fan-out that is what predict()
// actually uses. Determinism is the callers' job: workers must write only
// to disjoint, pre-sized slots so results can be reduced in index order
// afterwards, independent of scheduling.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/thread_annotations.h"

namespace pevpm {

/// Resolves a user-facing thread-count request: values >= 1 pass through,
/// anything else (0, negative) means "one per hardware thread", with a
/// floor of 1 when hardware_concurrency() is unknown.
[[nodiscard]] unsigned resolve_threads(int requested) noexcept;

/// Fixed-size worker pool over a FIFO task queue.
class ThreadPool {
 public:
  /// Spawns `threads` workers (at least one).
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Enqueues a task. Tasks must not throw — wrap user code and stash the
  /// exception (see parallel_for); an escaping exception terminates.
  void submit(std::function<void()> task) EXCLUDES(mu_);

  /// Blocks until the queue is empty and no task is running.
  void wait() EXCLUDES(mu_);

  /// The pool's queue lock, exposed for lock-order declarations only
  /// (serve::Service::mu_ is ACQUIRED_BEFORE this). It is a leaf of the
  /// lock graph: no code path acquires another mutex while holding it.
  [[nodiscard]] Mutex& mutex() const RETURN_CAPABILITY(mu_) { return mu_; }

 private:
  void worker_loop() EXCLUDES(mu_);

  std::vector<std::thread> workers_;
  mutable Mutex mu_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  CondVar task_ready_;
  CondVar all_done_;
  std::size_t active_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;
};

/// Runs fn(0) ... fn(total - 1), spread over up to `threads` workers via an
/// atomic index counter. Serial (no pool, no locks) when threads <= 1 or
/// total <= 1. Indices are claimed in order but may complete out of order;
/// callers needing determinism write to per-index slots and reduce in index
/// order afterwards. The first exception thrown by fn is rethrown here
/// (after all workers drain); remaining indices are abandoned.
void parallel_for(int total, unsigned threads,
                  const std::function<void(int)>& fn);

/// Reusable generation barrier for the partitioned DES window loop: all
/// `parties` threads block in arrive_and_wait() until the last one arrives,
/// then all are released together. The mutex hand-off doubles as the
/// happens-before edge that publishes everything written before the barrier
/// (window horizons, engine state, mailbox contents) to every party.
class WindowBarrier {
 public:
  explicit WindowBarrier(unsigned parties) : parties_{parties} {}

  WindowBarrier(const WindowBarrier&) = delete;
  WindowBarrier& operator=(const WindowBarrier&) = delete;

  void arrive_and_wait() EXCLUDES(mu_) {
    MutexLock lock{mu_};
    const std::uint64_t generation = generation_;
    if (++waiting_ == parties_) {
      waiting_ = 0;
      ++generation_;
      released_.notify_all();
      return;
    }
    while (generation_ == generation) released_.wait(lock);
  }

 private:
  Mutex mu_;
  CondVar released_;
  const unsigned parties_;
  unsigned waiting_ GUARDED_BY(mu_) = 0;
  std::uint64_t generation_ GUARDED_BY(mu_) = 0;
};

/// Bounded single-producer single-consumer mailbox with a mutex-guarded
/// overflow lane. The common path — ring has room, overflow empty — is a
/// wait-free store; once an element overflows, later pushes follow it into
/// the overflow deque so FIFO order is preserved end to end. Consumption is
/// batch-only: drain() pops everything visible, and the partitioned-engine
/// discipline (producers quiescent at a WindowBarrier before the drain)
/// supplies the synchronisation the overflow flag's relaxed ordering
/// assumes. "Single producer" means producer-exclusive access per window,
/// which the barrier hand-off provides even when the producing partition
/// migrates between pool threads across windows.
template <typename T>
class SpscMailbox {
 public:
  explicit SpscMailbox(std::size_t capacity = 256)
      : ring_(capacity), mask_{capacity - 1} {
    // Power-of-two capacity so wrapping is a mask, not a division.
    static_assert(std::is_nothrow_move_constructible_v<T>);
  }

  SpscMailbox(const SpscMailbox&) = delete;
  SpscMailbox& operator=(const SpscMailbox&) = delete;

  /// Producer side. Wait-free unless the ring is full (or a previous push
  /// overflowed and the overflow lane is still draining).
  void push(T value) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    if (tail - head <= mask_ && !overflowed_.load(std::memory_order_relaxed)) {
      ring_[tail & mask_] = std::move(value);
      tail_.store(tail + 1, std::memory_order_release);
      return;
    }
    push_slow(std::move(value));
  }

  /// Consumer side: pops every queued element in FIFO order into `fn`.
  /// Call only while the producer is quiescent (post-barrier).
  template <typename Fn>
  void drain(Fn&& fn) EXCLUDES(overflow_mu_) {
    std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    while (head != tail) {
      fn(std::move(ring_[head & mask_]));
      ++head;
    }
    head_.store(head, std::memory_order_release);
    if (overflowed_.load(std::memory_order_relaxed)) {
      MutexLock lock{overflow_mu_};
      for (T& value : overflow_) fn(std::move(value));
      overflow_.clear();
      overflowed_.store(false, std::memory_order_relaxed);
    }
  }

 private:
  void push_slow(T value) EXCLUDES(overflow_mu_) {
    MutexLock lock{overflow_mu_};
    overflow_.push_back(std::move(value));
    overflowed_.store(true, std::memory_order_relaxed);
  }

  std::vector<T> ring_;
  const std::uint64_t mask_;
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> tail_{0};
  Mutex overflow_mu_;
  std::deque<T> overflow_ GUARDED_BY(overflow_mu_);
  std::atomic<bool> overflowed_{false};
};

}  // namespace pevpm
