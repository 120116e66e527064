#include "core/predict.h"

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "des/time.h"

namespace pevpm {

int replication_count(const PredictOptions& options) noexcept {
  return options.sampler.mode == PredictionMode::kDistribution
             ? options.replications
             : 1;  // average/minimum modes are deterministic
}

std::vector<std::uint64_t> replication_seeds(const PredictOptions& options) {
  // Seeds are drawn serially up front so the per-replication streams are a
  // pure function of options.seed, independent of any fan-out.
  stats::Rng seeder{options.seed};
  std::vector<std::uint64_t> seeds(
      static_cast<std::size_t>(std::max(replication_count(options), 0)));
  for (auto& seed : seeds) seed = seeder();
  return seeds;
}

int batch_lanes(int reps, unsigned threads) noexcept {
  const long long workers = std::max(threads, 1u);
  return static_cast<int>(std::min<long long>(
      kMaxLanes, (std::max(reps, 1) + workers - 1) / workers));
}

std::vector<SimulationResult> run_batch(
    const Model& model, int numprocs, const Bindings& overrides,
    SamplerCells& cells, const PredictOptions& options, int first_rep,
    std::span<const std::uint64_t> seeds) {
  DeliverySampler sampler{cells, seeds};
  std::vector<SimulationResult> results =
      simulate_lanes(model, numprocs, overrides, sampler);
  if (options.tracer != nullptr && options.tracer->enabled()) {
    for (std::size_t lane = 0; lane < results.size(); ++lane) {
      const SimulationResult& result = results[lane];
      options.tracer->record(
          des::SimTime::from_seconds(result.makespan),
          trace::Category::kPevpm, first_rep + static_cast<int>(lane),
          "replication makespan_s=" + std::to_string(result.makespan) +
              (result.deadlocked ? " deadlocked" : ""));
    }
  }
  return results;
}

SimulationResult run_replication(const Model& model, int numprocs,
                                 const Bindings& overrides,
                                 const mpibench::DistributionTable& table,
                                 const PredictOptions& options, int rep,
                                 std::uint64_t seed, SamplerCells* cells) {
  std::optional<SamplerCells> own_cells;
  if (cells == nullptr) cells = &own_cells.emplace(table, options.sampler);
  return std::move(run_batch(model, numprocs, overrides, *cells, options, rep,
                             {&seed, 1})
                       .front());
}

Prediction reduce_replications(std::vector<SimulationResult> results) {
  Prediction prediction;
  for (const SimulationResult& result : results) {
    prediction.makespan.add(result.makespan);
    prediction.deadlocked = prediction.deadlocked || result.deadlocked;
  }
  if (!results.empty()) prediction.detail = std::move(results.back());
  return prediction;
}

Prediction predict(const Model& model, int numprocs,
                   const Bindings& overrides,
                   const mpibench::DistributionTable& table,
                   const PredictOptions& options) {
  Prediction prediction;
  const std::vector<std::uint64_t> seeds = replication_seeds(options);
  const int reps = replication_count(options);

  const unsigned threads = resolve_threads(options.threads);
  // Contiguous batches of replications run in lockstep (batch_lanes: as
  // many as keep every thread busy, at most kMaxLanes each). Each batch
  // owns its sampler and Vm state, reads the shared model/table and
  // resolves each distribution once through the shared cells, so workers
  // touch disjoint slots (parallel_for runs inline at one thread), and each
  // lane's result is that of its replication run alone. The reduction
  // below runs in replication order over those slots, which makes the
  // merged summary bit-identical at any thread count — Welford updates are
  // not reorderable, so order (not associativity) is what guarantees
  // thread-count invariance.
  const int lanes = batch_lanes(reps, threads);
  const int batches = (reps + lanes - 1) / lanes;
  std::vector<double> makespans(static_cast<std::size_t>(reps), 0.0);
  std::vector<unsigned char> deadlocked(static_cast<std::size_t>(reps), 0);
  SimulationResult detail;
  SamplerCells cells{table, options.sampler};
  parallel_for(batches, threads, [&](int batch) {
    const int first = batch * lanes;
    const int count = std::min(lanes, reps - first);
    std::vector<SimulationResult> results = run_batch(
        model, numprocs, overrides, cells, options, first,
        std::span<const std::uint64_t>{seeds}.subspan(
            static_cast<std::size_t>(first), static_cast<std::size_t>(count)));
    for (int lane = 0; lane < count; ++lane) {
      const int rep = first + lane;
      SimulationResult& result = results[static_cast<std::size_t>(lane)];
      makespans[static_cast<std::size_t>(rep)] = result.makespan;
      deadlocked[static_cast<std::size_t>(rep)] = result.deadlocked ? 1 : 0;
      if (rep == reps - 1) detail = std::move(result);
    }
  });
  for (int rep = 0; rep < reps; ++rep) {
    prediction.makespan.add(makespans[static_cast<std::size_t>(rep)]);
    prediction.deadlocked =
        prediction.deadlocked || deadlocked[static_cast<std::size_t>(rep)] != 0;
  }
  prediction.detail = std::move(detail);
  return prediction;
}

std::vector<SpeedupPoint> predict_speedups(
    const Model& model, const std::vector<int>& proc_counts,
    const Bindings& overrides, const mpibench::DistributionTable& table,
    const PredictOptions& options) {
  const Prediction base = predict(model, 1, overrides, table, options);
  std::vector<SpeedupPoint> points;
  points.reserve(proc_counts.size());
  for (const int p : proc_counts) {
    const Prediction prediction =
        predict(model, p, overrides, table, options);
    points.push_back(SpeedupPoint{
        .nprocs = p,
        .seconds = prediction.seconds(),
        .speedup = prediction.seconds() > 0
                       ? base.seconds() / prediction.seconds()
                       : 0.0,
    });
  }
  return points;
}

}  // namespace pevpm
