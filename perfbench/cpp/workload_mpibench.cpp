// mpibench_seq / mpibench_part: the paper's MPIBench Isend sweep on a
// 64x1 Perseus cluster (three switches), sizes 1 KiB (eager) and 16 KiB
// (rendezvous), one job. The two workloads differ only in sim_threads: 0 is
// the sequential engine, 2 the switch-partitioned engine on two threads.
#include <array>

#include "checks.h"
#include "mpibench/benchmark.h"
#include "net/cluster.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kNodes = 64;
constexpr int kReps = 20;
constexpr std::array<net::Bytes, 2> kSizes{net::Bytes{1024}, net::Bytes{16384}};

mpibench::Options sweep_options(std::uint64_t seed, int sim_threads) {
  mpibench::Options opt;
  opt.cluster = net::perseus(kNodes);
  opt.procs_per_node = 1;
  opt.repetitions = kReps;
  opt.warmup = 8;  // the mpibench CLI's max(8, reps / 10)
  opt.seed = seed;
  opt.sim_threads = sim_threads;
  return opt;
}

std::vector<mpibench::PointToPointResult> run_sweep(
    const mpibench::Options& opt, bool traced, std::uint64_t sweep) {
  if (!traced) return mpibench::run_isend_sweep(opt, kSizes, 1);
  // The traced sweep calls the cells one by one (exactly what
  // run_isend_sweep does with one job) so each gets its own span.
  std::vector<mpibench::PointToPointResult> cells;
  spans::Span span{"mpibench.sweep", sweep};
  for (const net::Bytes size : kSizes) {
    spans::Span cell{size == kSizes[0] ? "mpibench.cell_1k" : "mpibench.cell_16k",
                     sweep};
    cells.push_back(mpibench::run_isend(opt, size));
  }
  return cells;
}

/// Sweeps after which rss_mb is read: a fixed amount of work, so the figure
/// does not grow with however many sweeps fit in the run.
constexpr std::uint64_t kRssAfterSweeps = 1;

struct Phase {
  double rss_mb = 0.0;
  std::vector<double> sweep_ms;      ///< wall
  std::vector<double> msgs_per_s;    ///< per wall second
  std::vector<double> msgs_per_cpu_s;
  std::vector<double> cpu_ms;
  std::vector<mpibench::PointToPointResult> last;
};

/// Runs sweeps for `seconds` (at least one), checking every cell and that
/// each sweep reproduces the first sweep's digest.
Phase run_phase(const mpibench::Options& opt, double seconds, bool traced,
                std::uint64_t& first_digest, Result& result) {
  Phase phase;
  const auto t0 = Clock::now();
  std::uint64_t sweep = 0;
  do {
    const Stopwatch watch;
    auto cells = run_sweep(opt, traced, sweep++);
    const double wall_s = watch.wall_s();
    const double cpu_s = watch.cpu_s();
    std::uint64_t messages = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      ++result.attempted;
      const std::string why =
          check_isend_cell(cells[i], kSizes[i], opt.nprocs(), kReps,
                           opt.cluster.nic.rate.bps());
      if (!why.empty()) {
        ++result.failed;
        result.fail_check(why);
      }
      messages += cells[i].messages;
    }
    const std::uint64_t digest = digest_of(cells);
    if (first_digest == 0) first_digest = digest;
    ++result.attempted;
    if (const std::string why = check_digest(first_digest, digest);
        !why.empty()) {
      ++result.failed;
      result.fail_check(why);
    }
    phase.sweep_ms.push_back(wall_s * 1e3);
    phase.msgs_per_s.push_back(static_cast<double>(messages) / wall_s);
    phase.msgs_per_cpu_s.push_back(static_cast<double>(messages) / cpu_s);
    phase.cpu_ms.push_back(cpu_s * 1e3);
    phase.last = std::move(cells);
    if (sweep == kRssAfterSweeps) phase.rss_mb = peak_rss_mb();
  } while (seconds_since(t0) < seconds);
  if (phase.rss_mb == 0.0) phase.rss_mb = peak_rss_mb();
  return phase;
}

}  // namespace

Result run_mpibench(const RunArgs& args, int sim_threads) {
  Result result;
  mpibench::Options opt;
  // Set-up: the options and one unmeasured one-repetition sweep of both
  // sizes, which brings up the rank threads, allocator arenas and route
  // caches the timed sweeps reuse, on the eager and the rendezvous path.
  const SetupTimes setup = timed_setup([&] {
    opt = sweep_options(args.seed, sim_threads);
    mpibench::Options warm = opt;
    warm.repetitions = 1;
    warm.warmup = 0;
    (void)mpibench::run_isend_sweep(warm, kSizes, 1);
  });

  std::uint64_t digest = 0;
  if (!args.trace) {
    const Phase phase = run_phase(opt, args.seconds, false, digest, result);
    report_end_to_end(result, setup, phase.msgs_per_cpu_s, phase.rss_mb);
    report_wall(result, phase.msgs_per_s, phase.sweep_ms, false);
    result.info.push_back("sweeps: " + std::to_string(phase.sweep_ms.size()));
    result.info.push_back("digest: " + hex64(digest));

    // Informational only: the other execution mode on the same inputs, its
    // output compared and its wall time shown next to this mode's.
    mpibench::Options other = opt;
    other.sim_threads = sim_threads == 0 ? 2 : 0;
    const auto start = Clock::now();
    const std::uint64_t other_digest =
        digest_of(mpibench::run_isend_sweep(other, kSizes, 1));
    const double other_ms = seconds_since(start) * 1e3;
    result.info.push_back(std::string{"seq_part_identical: "} +
                          (other_digest == digest ? "true" : "false"));
    result.info.push_back("sim_threads " + std::to_string(other.sim_threads) +
                          " sweep_ms: " + std::to_string(other_ms));
    return result;
  }

  zero_per_layer(result);
  const Phase plain = run_phase(opt, args.seconds / 2, false, digest, result);
  spans::enable(true);
  spans::count_allocations(true);
  const Phase traced = run_phase(opt, args.seconds / 2, true, digest, result);
  spans::count_allocations(false);
  spans::enable(false);

  report_wall(result, plain.msgs_per_s, plain.sweep_ms, true);
  result.set("trace.overhead_pct",
             100.0 * (median_of(traced.cpu_ms) / median_of(plain.cpu_ms) - 1),
             "%");
  result.set("mpibench.cell_s_1k", median_of(spans::durations("mpibench.cell_1k")),
             "s");
  result.set("mpibench.cell_s_16k",
             median_of(spans::durations("mpibench.cell_16k")), "s");
  std::uint64_t messages = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t drops = 0;
  for (const auto& cell : traced.last) {
    messages += cell.messages;
    retransmits += cell.tcp_retransmits;
    timeouts += cell.tcp_timeouts;
    drops += cell.link_drops;
  }
  result.set("mpibench.messages", static_cast<double>(messages), "count");
  result.set("net.tcp_retransmits", static_cast<double>(retransmits), "count");
  result.set("net.tcp_timeouts", static_cast<double>(timeouts), "count");
  result.set("net.link_drops", static_cast<double>(drops), "count");
  result.set("net.retransmits_per_msg",
             messages > 0 ? static_cast<double>(retransmits) /
                                static_cast<double>(messages)
                          : 0.0,
             "ratio");

  // The sweep's own output, as the table PEVPM would load, feeds the
  // sampler, table-load and parse probes.
  mpibench::DistributionTable table;
  for (const auto& cell : traced.last) {
    table.insert(mpibench::OpKind::kPtpOneWay, cell.size, kNodes / 2,
                 cell.distribution());
    table.insert(mpibench::OpKind::kPtpSender, cell.size, kNodes / 2,
                 stats::EmpiricalDistribution{cell.sender_hist});
  }
  run_probes(ProbeInputs{&table, table_text(table), jacobi_model_text(100)},
             result);
  return result;
}

}  // namespace perfbench
