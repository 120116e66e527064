// Index fan-out for the Monte-Carlo prediction engine and the mpibench
// sweeps.
//
// PEVPM replications are embarrassingly parallel: each batch of them owns
// its DeliverySampler (one lane per seed of the per-replication splitmix64
// sequence) and its Vm state, and only reads the shared Model /
// DistributionTable. So the
// only primitive needed is `parallel_for`: it starts its own threads for
// one call, they claim indices from an atomic counter, and it joins them
// before returning. There is no pool and no task queue (serve::Service
// runs its own slice workers). Determinism is the callers' job: workers
// must write only to disjoint, pre-sized slots so results can be reduced in
// index order afterwards, independent of scheduling.
#pragma once

#include <functional>

namespace pevpm {

/// Resolves a user-facing thread-count request: values >= 1 pass through,
/// anything else (0, negative) means "one per hardware thread", with a
/// floor of 1 when hardware_concurrency() is unknown.
[[nodiscard]] unsigned resolve_threads(int requested) noexcept;

/// Runs fn(0) ... fn(total - 1) on up to `threads` threads (the calling
/// thread plus threads - 1 started here) via an atomic index counter.
/// Serial (no threads, no locks) when threads <= 1 or total <= 1. Indices
/// are claimed in order but may complete out of order; callers needing
/// determinism write to per-index slots and reduce in index order
/// afterwards. The first exception thrown by fn is rethrown here (after
/// every thread has joined); remaining indices are abandoned.
void parallel_for(int total, unsigned threads,
                  const std::function<void(int)>& fn);

}  // namespace pevpm
