// Replicated PEVPM evaluation: the user-facing prediction API.
//
// A PEVPM run is a Monte-Carlo experiment; this driver evaluates a model
// several times with independent random streams and summarises the
// predicted completion time. It also computes predicted speedup curves
// (the paper's Figure 6 quantity: T_1 / T_n with T_1 taken from the
// model's serial portion evaluated at numprocs = 1).
#pragma once

#include <cstdint>
#include <vector>

#include "core/model.h"
#include "core/sampler.h"
#include "core/vm.h"
#include "stats/summary.h"
#include "trace/trace.h"

namespace pevpm {

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

// --- Per-replication decomposition -----------------------------------
// predict() is a reduction over the three functions below; they are exposed
// so an external scheduler (the pevpmd service, whose slice workers run
// replications from many concurrent requests) can interleave them and still
// reproduce predict()'s output bit for bit: seeds are a pure function of
// options.seed, each replication is independent, and the reduction is
// defined over replication order rather than completion order.

/// Number of Monte-Carlo replications the options imply (the deterministic
/// average/minimum modes collapse to one).
[[nodiscard]] int replication_count(const PredictOptions& options) noexcept;

/// The per-replication sampler seeds, drawn serially from options.seed.
[[nodiscard]] std::vector<std::uint64_t> replication_seeds(
    const PredictOptions& options);

/// Evaluates replication `rep` with sampler seed `seed`, drawing from
/// `cells` — shared by the replications of one prediction and built from
/// `table` and options.sampler — or, when null, from private cells. Safe
/// to call concurrently for distinct reps: each call owns its sampler and
/// Vm state, reads the shared model/table and resolves cells through the
/// thread-safe SamplerCells. Records the per-replication tracer event when
/// options.tracer is enabled.
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
