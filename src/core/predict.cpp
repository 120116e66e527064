#include "core/predict.h"

#include <algorithm>
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

SimulationResult run_replication(const Model& model, int numprocs,
                                 const Bindings& overrides,
                                 const mpibench::DistributionTable& table,
                                 const PredictOptions& options, int rep,
                                 std::uint64_t seed, SamplerCells* cells) {
  DeliverySampler sampler = cells != nullptr
                                ? DeliverySampler{*cells, seed}
                                : DeliverySampler{table, options.sampler, seed};
  SimulationResult result = simulate(model, numprocs, overrides, sampler);
  if (options.tracer != nullptr && options.tracer->enabled()) {
    options.tracer->record(
        des::SimTime::from_seconds(result.makespan), trace::Category::kPevpm,
        rep,
        "replication makespan_s=" + std::to_string(result.makespan) +
            (result.deadlocked ? " deadlocked" : ""));
  }
  return result;
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

  const unsigned threads = std::min<unsigned>(
      resolve_threads(options.threads), static_cast<unsigned>(std::max(reps, 1)));
  // Each replication owns its sampler and Vm state, reads the shared
  // model/table and resolves each distribution once through the shared
  // cells, so workers touch disjoint slots (parallel_for runs inline at
  // one thread). The reduction below runs in replication order
  // over those slots, which makes the merged summary bit-identical at any
  // thread count — Welford updates are not reorderable, so order (not
  // associativity) is what guarantees thread-count invariance.
  std::vector<double> makespans(static_cast<std::size_t>(reps), 0.0);
  std::vector<unsigned char> deadlocked(static_cast<std::size_t>(reps), 0);
  SimulationResult detail;
  SamplerCells cells{table, options.sampler};
  parallel_for(reps, threads, [&](int rep) {
    SimulationResult result = run_replication(
        model, numprocs, overrides, table, options, rep, seeds[rep], &cells);
    makespans[rep] = result.makespan;
    deadlocked[rep] = result.deadlocked ? 1 : 0;
    if (rep == reps - 1) detail = std::move(result);
  });
  for (int rep = 0; rep < reps; ++rep) {
    prediction.makespan.add(makespans[rep]);
    prediction.deadlocked = prediction.deadlocked || deadlocked[rep] != 0;
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
