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

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
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

}  // namespace pevpm
