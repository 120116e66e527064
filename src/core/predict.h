// Replicated PEVPM evaluation: the user-facing prediction API.
//
// A PEVPM run is a Monte-Carlo experiment; this driver evaluates a model
// several times with independent random streams and summarises the
// predicted completion time. It also computes predicted speedup curves
// (the paper's Figure 6 quantity: T_1 / T_n with T_1 taken from the
// model's serial portion evaluated at numprocs = 1).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/model.h"
#include "core/sampler.h"
#include "core/vm.h"
#include "stats/summary.h"
#include "trace/trace.h"

namespace pevpm {

/// Most replications one batch runs in lockstep in one Vm. A batch keeps
/// each process's values once per lane, so this bounds its memory at
/// procs x kMaxLanes values. Measured on one thread over 64 replications of
/// the 100-iteration Jacobi model at 16, 64 and 256 processes, CPU per
/// replication fell 30-50 % from 1 to 4 lanes and about 20 % more from 4
/// to 16, where the shared control work is already small beside the
/// per-lane draws; each further doubling gained 0-15 %, within the spread
/// of the runs, for twice the memory (EXPERIMENTS.md Perf 13).
inline constexpr int kMaxLanes = 16;

struct PredictOptions {
  SamplerOptions sampler{};
  int replications = 8;
  std::uint64_t seed = 1;
  /// Worker threads for the Monte-Carlo replication fan-out. <= 0 means one
  /// per hardware thread; 1 keeps the serial path. Results are bit-identical
  /// for a fixed seed at any thread count: every replication's sampler seed
  /// comes from the same per-replication sequence, and the makespan summary
  /// is reduced in replication order regardless of completion order.
  int threads = 0;
  /// Optional tracer: each replication records one Category::kPevpm event
  /// (subject = replication index, detail = makespan/deadlock) from
  /// whichever worker thread ran it. Tracer::record is thread-safe; record
  /// order across workers is nondeterministic, record content is not.
  trace::Tracer* tracer = nullptr;
};

struct Prediction {
  stats::Summary makespan;   ///< seconds, over replications
  /// Full breakdown of the last-seeded replication (deterministic: always
  /// the replication with the final seed in the sequence, never "whichever
  /// worker finished last").
  SimulationResult detail;
  bool deadlocked = false;   ///< any replication deadlocked

  [[nodiscard]] double seconds() const noexcept { return makespan.mean(); }
};

/// Evaluates `model` on `numprocs` virtual processes.
[[nodiscard]] Prediction predict(const Model& model, int numprocs,
                                 const Bindings& overrides,
                                 const mpibench::DistributionTable& table,
                                 const PredictOptions& options);

// --- Batch decomposition ---------------------------------------------
// predict() is a reduction over the functions below; they are exposed so
// an external scheduler (the pevpmd service, whose slice workers run
// batches from many concurrent requests) can interleave them and still
// reproduce predict()'s output bit for bit: seeds are a pure function of
// options.seed, each replication's result is the same whichever batch runs
// it, and the reduction is defined over replication order rather than
// completion order. Both split a prediction's replications by the one rule
// of batch_lanes, so a request alone on a W-worker service runs exactly the
// batches of `pevpm --threads W`.

/// Number of Monte-Carlo replications the options imply (the deterministic
/// average/minimum modes collapse to one).
[[nodiscard]] int replication_count(const PredictOptions& options) noexcept;

/// The per-replication sampler seeds, drawn serially from options.seed.
[[nodiscard]] std::vector<std::uint64_t> replication_seeds(
    const PredictOptions& options);

/// Replications per lockstep batch when `reps` replications run on
/// `threads` workers: as many as keep every worker busy, at most kMaxLanes
/// (and at least 1). Batches are contiguous runs of this many replications,
/// the last one shorter when it does not divide `reps`.
[[nodiscard]] int batch_lanes(int reps, unsigned threads) noexcept;

/// Evaluates replications first_rep, first_rep + 1, ... in lockstep, one
/// lane per seed of `seeds` (their sampler seeds), drawing by
/// options.sampler from `cells` — built from the prediction's table and
/// options.sampler.scaling, and shared by its replications (and, in
/// `pevpmd`, by every job on that table and scaling model, whatever their
/// mode and contention source). Each lane's result has the bits of its
/// replication run alone; a batch that fails throws the error of its
/// lowest failing lane. Safe to call concurrently for disjoint batches:
/// each call owns its sampler and Vm state, reads the shared model and
/// resolves cells through the thread-safe SamplerCells. Records one tracer
/// event per replication when options.tracer is enabled.
[[nodiscard]] std::vector<SimulationResult> run_batch(
    const Model& model, int numprocs, const Bindings& overrides,
    SamplerCells& cells, const PredictOptions& options, int first_rep,
    std::span<const std::uint64_t> seeds);

/// Evaluates replication `rep` with sampler seed `seed`: the batch of one,
/// drawing from `cells` or, when null, from private cells built from
/// `table` and options.sampler.scaling.
[[nodiscard]] SimulationResult run_replication(
    const Model& model, int numprocs, const Bindings& overrides,
    const mpibench::DistributionTable& table, const PredictOptions& options,
    int rep, std::uint64_t seed, SamplerCells* cells = nullptr);

/// Reduces per-replication results — which must be in replication order —
/// into a Prediction exactly as predict() does (Welford updates in order,
/// detail taken from the final replication).
[[nodiscard]] Prediction reduce_replications(
    std::vector<SimulationResult> results);

/// One speedup-curve point: predicted time and speedup vs the 1-process
/// evaluation of the same model.
struct SpeedupPoint {
  int nprocs = 0;
  double seconds = 0.0;
  double speedup = 0.0;
};

[[nodiscard]] std::vector<SpeedupPoint> predict_speedups(
    const Model& model, const std::vector<int>& proc_counts,
    const Bindings& overrides, const mpibench::DistributionTable& table,
    const PredictOptions& options);

}  // namespace pevpm
