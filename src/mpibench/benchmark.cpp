#include "mpibench/benchmark.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/parallel.h"
#include "mpi/comm.h"
#include "mpi/runtime.h"
#include "mpibench/clocksync.h"

namespace mpibench {
namespace {

constexpr int kTagPing = 11;
constexpr int kTagData = 12;

smpi::Runtime::Options runtime_options(const Options& options) {
  smpi::Runtime::Options rt;
  rt.cluster = options.cluster;
  rt.procs_per_node = options.procs_per_node;
  rt.nprocs = options.nprocs();
  rt.seed = options.seed;
  return rt;
}

}  // namespace

PointToPointResult run_isend(const Options& options, net::Bytes size) {
  const int nprocs = options.nprocs();
  if (nprocs < 2 || nprocs % 2 != 0) {
    throw std::invalid_argument{
        "run_isend: total process count must be even and >= 2"};
  }
  smpi::Runtime rt{runtime_options(options)};

  const int reps = options.repetitions;
  const int total = options.warmup + reps;
  // Per-rank timestamp logs, merged after the run (MPIBench post-processing).
  std::vector<std::vector<double>> send_start(
      nprocs, std::vector<double>(total, 0.0));
  std::vector<std::vector<double>> recv_done(
      nprocs, std::vector<double>(total, 0.0));
  // Sender-side op durations are also logged per rank and folded in rank
  // order after the run, so the float sum does not depend on the order in
  // which rank bodies on different partitions execute.
  std::vector<std::vector<double>> sender_samples(nprocs);

  rt.run([&](smpi::Comm& comm) {
    const SyncedClock clock = SyncedClock::synchronise(comm,
                                                       options.sync_rounds);
    const int p = comm.size();
    const int r = comm.rank();
    const int half = p / 2;
    const bool lower = r < half;
    const int partner = lower ? r + half : r - half;
    for (int rep = 0; rep < total; ++rep) {
      if (options.resync_interval > 0 &&
          rep % options.resync_interval == 0) {
        comm.barrier();
      }
      // Ping: lower half sends, upper half receives...
      if (lower) {
        send_start[r][rep] = clock.now(comm);
        const double t0_local = comm.wtime();
        comm.wait(comm.isend_bytes(size, partner, kTagPing));
        if (rep >= options.warmup) {
          sender_samples[r].push_back(comm.wtime() - t0_local);
        }
      } else {
        comm.recv_bytes(size, partner, kTagPing);
        recv_done[r][rep] = clock.now(comm);
      }
      // ...pong: roles reversed, so both directions are measured.
      if (lower) {
        comm.recv_bytes(size, partner, kTagPing);
        recv_done[r][rep] = clock.now(comm);
      } else {
        send_start[r][rep] = clock.now(comm);
        const double t0_local = comm.wtime();
        comm.wait(comm.isend_bytes(size, partner, kTagPing));
        if (rep >= options.warmup) {
          sender_samples[r].push_back(comm.wtime() - t0_local);
        }
      }
    }
  });

  PointToPointResult result;
  result.size = size;
  result.nodes = options.cluster.nodes;
  result.procs_per_node = options.procs_per_node;
  result.oneway = stats::Histogram{options.bin_width_us * 1e-6};
  for (const std::vector<double>& samples : sender_samples) {
    for (const double dt : samples) {
      result.sender_op.add(dt);
      result.sender_hist.add(dt);
    }
  }
  const int half = nprocs / 2;
  for (int a = 0; a < half; ++a) {
    const int b = a + half;
    for (int rep = options.warmup; rep < options.warmup + reps; ++rep) {
      result.oneway.add(recv_done[b][rep] - send_start[a][rep]);
      result.oneway.add(recv_done[a][rep] - send_start[b][rep]);
      result.messages += 2;
    }
  }
  result.tcp_timeouts = rt.transport().timeouts();
  result.tcp_retransmits = rt.transport().retransmits();
  result.tcp_fast_retransmits = rt.transport().fast_retransmits();
  result.link_drops = rt.network().total_drops();
  result.faults_injected = rt.network().total_faults();
  result.events_cancelled = rt.sim().cancelled();
  result.heap_high_water = rt.sim().heap_high_water();
  result.pending_high_water = rt.sim().pending_high_water();
  result.resumes = rt.sim().resumes();
  return result;
}

namespace {

template <typename OpFn>
CollectiveResult run_collective(const Options& options, net::Bytes size,
                                OpFn&& op) {
  smpi::Runtime rt{runtime_options(options)};
  const int nprocs = options.nprocs();
  const int total = options.warmup + options.repetitions;
  std::vector<std::vector<double>> durations(
      nprocs, std::vector<double>(total, 0.0));
  rt.run([&](smpi::Comm& comm) {
    const SyncedClock clock = SyncedClock::synchronise(comm,
                                                       options.sync_rounds);
    for (int rep = 0; rep < total; ++rep) {
      if (options.resync_interval > 0 &&
          rep % options.resync_interval == 0) {
        comm.barrier();
      }
      const double t0 = clock.now(comm);
      op(comm);
      durations[comm.rank()][rep] = clock.now(comm) - t0;
    }
  });
  CollectiveResult result;
  result.size = size;
  result.nodes = options.cluster.nodes;
  result.procs_per_node = options.procs_per_node;
  result.completion = stats::Histogram{options.bin_width_us * 1e-6};
  for (int r = 0; r < nprocs; ++r) {
    for (int rep = options.warmup; rep < total; ++rep) {
      result.completion.add(durations[r][rep]);
      ++result.operations;
    }
  }
  result.tcp_timeouts = rt.transport().timeouts();
  result.tcp_retransmits = rt.transport().retransmits();
  result.faults_injected = rt.network().total_faults();
  return result;
}

}  // namespace

CollectiveResult run_barrier(const Options& options) {
  return run_collective(options, net::Bytes{},
                        [](smpi::Comm& comm) { comm.barrier(); });
}

CollectiveResult run_bcast(const Options& options, net::Bytes size) {
  return run_collective(options, size, [size](smpi::Comm& comm) {
    comm.bcast_bytes(size, 0);
  });
}

CollectiveResult run_alltoall(const Options& options, net::Bytes block_size) {
  return run_collective(options, block_size, [block_size](smpi::Comm& comm) {
    comm.alltoall_bytes(block_size);
  });
}

std::vector<PointToPointResult> run_isend_sweep(
    const Options& options, std::span<const net::Bytes> sizes, int jobs) {
  // Each work item gets its own Options copy and so its own Runtime
  // (Engine + Network): nothing is shared between items, and each item's
  // result depends only on (options, size). Per-index slots + the implicit
  // join in parallel_for make the output independent of scheduling.
  std::vector<PointToPointResult> results(sizes.size());
  pevpm::parallel_for(
      static_cast<int>(sizes.size()), pevpm::resolve_threads(jobs),
      [&](int i) {
        if (options.cancelled()) return;  // leave the slot default (skipped)
        results[i] = run_isend(options, sizes[i]);
      });
  return results;
}

DistributionTable measure_isend_table(Options options,
                                      std::span<const net::Bytes> sizes,
                                      std::span<const Config> configs,
                                      int jobs) {
  // Flatten the (config, size) grid, benchmark the cells in parallel, then
  // assemble the table serially in grid order — the exact insert sequence
  // the nested serial loops produced, so the saved table is byte-identical
  // at any job count.
  const int cells = static_cast<int>(configs.size() * sizes.size());
  std::vector<PointToPointResult> results(cells);
  pevpm::parallel_for(
      cells, pevpm::resolve_threads(jobs), [&](int i) {
        if (options.cancelled()) return;  // leave the slot default (skipped)
        Options local = options;
        const Config& config = configs[i / sizes.size()];
        local.cluster.nodes = config.nodes;
        local.procs_per_node = config.procs_per_node;
        results[i] = run_isend(local, sizes[i % sizes.size()]);
      });
  DistributionTable table;
  for (std::size_t c = 0; c < configs.size(); ++c) {
    // Table level = messages concurrently in flight during the benchmark:
    // the pair pattern keeps nprocs/2 messages in the network at a time,
    // which is the same quantity the PEVPM contention scoreboard counts.
    const int contention =
        std::max(1, configs[c].nodes * configs[c].procs_per_node / 2);
    for (std::size_t s = 0; s < sizes.size(); ++s) {
      PointToPointResult& result = results[c * sizes.size() + s];
      if (result.messages == 0 && options.cancelled()) continue;  // skipped
      table.insert(OpKind::kPtpOneWay, sizes[s], contention,
                   result.distribution());
      table.insert(OpKind::kPtpSender, sizes[s], contention,
                   stats::EmpiricalDistribution{result.sender_hist});
    }
  }
  return table;
}

}  // namespace mpibench
