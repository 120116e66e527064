// pevpm_jacobi: the paper's Figure 5 Jacobi model at 64 processes and 100
// iterations, predicted over and over (16 Monte-Carlo replications on 2
// pool threads per prediction) from a table MPIBench measured during
// set-up, and checked against the DES-measured run of the same program.
// The DES never runs while the predictions are timed.
#include <algorithm>
#include <sstream>

#include "checks.h"
#include "core/parallel.h"
#include "core/predict.h"
#include "core/request.h"
#include "jacobi_workload.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kIterations = 100;
/// Iterations of the DES reference run. Jacobi iterations are identical,
/// so its per-iteration time, scaled to kIterations, is the reference for
/// the model's kIterations (the Figure 6 comparison is per iteration too).
constexpr int kReferenceIterations = 20;
constexpr int kProcs = 64;
constexpr int kReplications = 16;
constexpr unsigned kThreads = 2;
/// The paper's claim: PEVPM predicts to within 5 %.
constexpr double kErrorLimitPct = 5.0;

struct Inputs {
  mpibench::DistributionTable table;
  std::string table_text;
  std::string model_text;
  pevpm::Model model;
  double reference_s = 0.0;
};

Inputs build_inputs(std::uint64_t seed) {
  Inputs in;
  in.table_text = table_text(measure_jacobi_table(seed));
  std::istringstream is{in.table_text};
  in.table = mpibench::DistributionTable::load(is);
  pevpm::PredictRequest request;
  request.model_text = jacobi_model_text(kIterations);
  in.model_text = request.model_text;
  in.model = pevpm::parse_request_model(request);
  in.reference_s = jacobi::measure_actual(kProcs, 1, kReferenceIterations,
                                         seed) /
                   kReferenceIterations * kIterations;
  return in;
}

/// Predictions after which rss_mb is read (a fixed amount of work).
constexpr std::uint64_t kRssAfterPredictions = 20;

/// Sums of the Vm's per-replication counts over a phase.
struct VmCounts {
  double replications = 0.0;
  double messages = 0.0;
  double sweep_phases = 0.0;
  double match_phases = 0.0;
};

struct Phase {
  double rss_mb = 0.0;
  std::vector<double> predict_ms;  ///< wall
  std::vector<double> reps_per_s;  ///< per wall second
  std::vector<double> reps_per_cpu_s;
  std::vector<double> cpu_ms;
  VmCounts counts;  ///< traced phase only
  pevpm::Prediction last;
};

/// One prediction. The traced variant is the per-replication API that
/// serve::Service drives (seeds, replications on the pool, then
/// reduce_replications), spanned per call; predict() runs the same
/// replications and folds the makespans inline instead of calling
/// reduce_replications. The traced replications' counts are added to
/// `counts` (a few additions, against milliseconds per replication).
pevpm::Prediction predict_once(const Inputs& in,
                               const pevpm::PredictOptions& opts, bool traced,
                               std::uint64_t id, VmCounts& counts) {
  if (!traced) return pevpm::predict(in.model, kProcs, {}, in.table, opts);
  const spans::Span span{"core.predict", id};
  const std::vector<std::uint64_t> seeds = pevpm::replication_seeds(opts);
  std::vector<pevpm::SimulationResult> results(seeds.size());
  const std::int32_t parent = span.index();
  pevpm::parallel_for(static_cast<int>(seeds.size()), kThreads, [&](int r) {
    const spans::Span rep{"core.replication", id, parent};
    results[static_cast<std::size_t>(r)] = pevpm::run_replication(
        in.model, kProcs, {}, in.table, opts, r,
        seeds[static_cast<std::size_t>(r)]);
  });
  for (const pevpm::SimulationResult& r : results) {
    counts.replications += 1.0;
    counts.messages += static_cast<double>(r.messages);
    counts.sweep_phases += static_cast<double>(r.sweep_phases);
    counts.match_phases += static_cast<double>(r.match_phases);
  }
  const spans::Span reduce{"core.reduce", id};
  return pevpm::reduce_replications(std::move(results));
}

Phase run_phase(const Inputs& in, const pevpm::PredictOptions& opts,
                double seconds, bool traced, std::uint64_t& first_digest,
                Result& result) {
  Phase phase;
  const auto t0 = Clock::now();
  std::uint64_t id = 0;
  do {
    const Stopwatch watch;
    pevpm::Prediction prediction =
        predict_once(in, opts, traced, id++, phase.counts);
    const double wall_s = watch.wall_s();
    const double cpu_s = watch.cpu_s();
    result.attempted += kReplications;
    if (prediction.deadlocked) {
      result.failed += kReplications;
      result.fail_check("a replication deadlocked");
    }
    const std::uint64_t digest = digest_of(prediction);
    if (first_digest == 0) first_digest = digest;
    ++result.attempted;
    if (const std::string why = check_digest(first_digest, digest);
        !why.empty()) {
      ++result.failed;
      result.fail_check(why);
    }
    phase.predict_ms.push_back(wall_s * 1e3);
    phase.reps_per_s.push_back(kReplications / wall_s);
    phase.reps_per_cpu_s.push_back(kReplications / cpu_s);
    phase.cpu_ms.push_back(cpu_s * 1e3);
    phase.last = std::move(prediction);
    if (id == kRssAfterPredictions) phase.rss_mb = peak_rss_mb();
  } while (seconds_since(t0) < seconds);
  if (phase.rss_mb == 0.0) phase.rss_mb = peak_rss_mb();
  return phase;
}

}  // namespace

std::string jacobi_model_text(int iterations, int xsize) {
  std::string text = jacobi::annotations();
  const std::string param = "Param xsize = 256";
  text.replace(text.find(param), param.size(),
               "Param xsize = " + std::to_string(xsize));
  const std::size_t after_param = text.find('\n', text.find("Param")) + 1;
  text.insert(after_param, "// PEVPM Loop iterations = " +
                               std::to_string(iterations) + "\n// PEVPM {\n");
  text += "// PEVPM }\n";
  return text;
}

mpibench::DistributionTable measure_jacobi_table(std::uint64_t seed) {
  mpibench::Options opt;
  opt.cluster = net::perseus(2);
  opt.repetitions = 40;
  opt.warmup = 8;
  opt.seed = seed * 0x9e3779b97f4a7c15ULL + 7;  // distinct from the DES run's
  std::vector<mpibench::Config> configs;
  for (const int nodes : {2, 4, 8, 16, 32, 64}) configs.push_back({nodes, 1});
  const std::vector<net::Bytes> sizes{jacobi::kHaloBytes};
  return mpibench::measure_isend_table(opt, sizes, configs, 1);
}

std::string table_text(const mpibench::DistributionTable& t) {
  std::ostringstream out;
  t.save(out);
  return out.str();
}

Result run_pevpm(const RunArgs& args) {
  Result result;
  Inputs in;
  // Set-up: measure the table, load it back from its text form, parse the
  // model and run the DES reference.
  const SetupTimes setup = timed_setup([&] { in = build_inputs(args.seed); });

  pevpm::PredictOptions opts;
  opts.replications = kReplications;
  opts.threads = static_cast<int>(kThreads);
  opts.seed = args.seed;

  std::uint64_t digest = 0;
  auto check_accuracy = [&](const pevpm::Prediction& prediction) {
    ++result.attempted;
    if (const std::string why =
            check_prediction(prediction, in.reference_s, kErrorLimitPct);
        !why.empty()) {
      ++result.failed;
      result.fail_check(why);
    }
    return error_pct(prediction.seconds(), in.reference_s);
  };

  if (!args.trace) {
    const Phase phase = run_phase(in, opts, args.seconds, false, digest, result);
    const double err = check_accuracy(phase.last);
    report_end_to_end(result, setup, phase.reps_per_cpu_s, phase.rss_mb);
    report_wall(result, phase.reps_per_s, phase.predict_ms, false);
    result.info.push_back("predictions: " +
                          std::to_string(phase.predict_ms.size()));
    result.info.push_back("jacobi_err_pct: " + std::to_string(err));
    result.info.push_back("digest: " + hex64(digest));
    return result;
  }

  zero_per_layer(result);
  const Phase plain = run_phase(in, opts, args.seconds / 2, false, digest, result);
  spans::enable(true);
  spans::count_allocations(true);
  const Phase traced = run_phase(in, opts, args.seconds / 2, true, digest, result);
  spans::count_allocations(false);
  spans::enable(false);

  report_wall(result, plain.reps_per_s, plain.predict_ms, true);
  result.set("trace.overhead_pct",
             100.0 * (median_of(traced.cpu_ms) / median_of(plain.cpu_ms) - 1),
             "%");
  result.set("core.jacobi_err_pct", check_accuracy(traced.last), "%");
  std::vector<double> rep_ms;
  double busy_s = 0.0;
  for (const double s : spans::durations("core.replication")) {
    rep_ms.push_back(s * 1e3);
    busy_s += s;
  }
  result.set("core.replication_ms_p50", quantile_of(rep_ms, 0.5), "ms");
  result.set("core.replication_ms_p99", quantile_of(rep_ms, 0.99), "ms");
  std::vector<double> reduce_us;
  for (const double s : spans::durations("core.reduce")) reduce_us.push_back(s * 1e6);
  result.set("core.reduce_us", median_of(reduce_us), "us");
  double predict_wall = 0.0;
  for (const double s : spans::durations("core.predict")) predict_wall += s;
  result.set("core.pool.busy_share",
             predict_wall > 0.0 ? busy_s / (kThreads * predict_wall) : 0.0,
             "ratio");
  const VmCounts& c = traced.counts;
  const double n = std::max(1.0, c.replications);
  result.set("core.vm.messages", c.messages / n, "count");
  result.set("core.vm.sweep_phases", c.sweep_phases / n, "count");
  result.set("core.vm.match_phases", c.match_phases / n, "count");

  run_probes(ProbeInputs{&in.table, in.table_text, in.model_text}, result);
  return result;
}

}  // namespace perfbench
