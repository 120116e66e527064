// MPIBench: benchmarking MPI communication with per-operation timing.
//
// Unlike ping-pong averaging benchmarks, every individual operation is
// timed at every process against the software-synchronised global clock
// (clocksync.h), and results are published as histograms / probability
// distributions. The point-to-point pattern is the paper's: with P
// processes, process i < P/2 exchanges messages with partner i + P/2, all
// pairs concurrently, so NIC and backplane contention is exercised exactly
// as it would be by a communication-dense application.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "mpibench/table.h"
#include "net/cluster.h"
#include "stats/histogram.h"
#include "stats/summary.h"

namespace mpibench {

struct Options {
  net::ClusterParams cluster{};  ///< includes the node count
  int procs_per_node = 1;
  int repetitions = 300;         ///< measured repetitions per process pair
  int warmup = 32;               ///< unmeasured repetitions first
  std::uint64_t seed = 1;
  double bin_width_us = 10.0;    ///< histogram bin width (the accuracy knob)
  int sync_rounds = 32;          ///< clock-sync ping-pongs per rank
  int resync_interval = 64;      ///< barrier every this many repetitions
  /// Ignored: the switch-partitioned engine always runs on one worker. The
  /// field remains only for the benchmark harness, which still sets it, and
  /// goes with that harness's next change.
  int sim_threads = 0;

  /// Optional cooperative-cancellation flag (typically set from a SIGINT
  /// handler). Sweeps check it between cells: cells already running finish
  /// normally, unstarted cells are skipped and left default-initialised
  /// (messages == 0), so completed work can still be flushed.
  const std::atomic<bool>* cancel = nullptr;

  [[nodiscard]] int nprocs() const noexcept {
    return cluster.nodes * procs_per_node;
  }

  [[nodiscard]] bool cancelled() const noexcept {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  }
};

/// Result of one point-to-point benchmark configuration (one message size,
/// one n x p machine configuration).
struct PointToPointResult {
  net::Bytes size{};
  int nodes = 0;
  int procs_per_node = 0;

  /// One-way delivery times in seconds (send start at the source to receive
  /// completion at the destination), pooled over all pairs and directions.
  stats::Histogram oneway{1e-5};
  /// Local MPI_Isend + MPI_Wait duration at the senders.
  stats::Summary sender_op;
  stats::Histogram sender_hist{1e-6};
  std::uint64_t messages = 0;

  // TCP-lite health counters for the run (saturation and fault-injection
  // forensics, Fig. 4 / the 200 ms retransmission tail).
  std::uint64_t tcp_timeouts = 0;
  std::uint64_t tcp_retransmits = 0;
  std::uint64_t tcp_fast_retransmits = 0;
  std::uint64_t link_drops = 0;
  std::uint64_t faults_injected = 0;

  // Event-queue counters of the simulation's one des::Engine.
  std::uint64_t events_cancelled = 0;
  std::uint64_t heap_high_water = 0;
  std::uint64_t pending_high_water = 0;
  /// des::Process resumes: rank hand-offs.
  std::uint64_t resumes = 0;

  [[nodiscard]] stats::EmpiricalDistribution distribution() const {
    return stats::EmpiricalDistribution{oneway};
  }
};

/// Runs the MPI_Isend pair pattern for one message size. The total process
/// count (nodes x ppn) must be even and >= 2.
[[nodiscard]] PointToPointResult run_isend(const Options& options,
                                           net::Bytes size);

/// Runs run_isend for every size, fanning the independent benchmarks out
/// over up to `jobs` worker threads (each on its own simulator instance).
/// Results come back in `sizes` order and are bit-identical to running the
/// sizes serially: each benchmark's simulation depends only on (options,
/// size), never on its neighbours. jobs <= 1 runs inline.
[[nodiscard]] std::vector<PointToPointResult> run_isend_sweep(
    const Options& options, std::span<const net::Bytes> sizes, int jobs);

/// Completion-time benchmark of a collective operation, timed per process.
struct CollectiveResult {
  net::Bytes size{};
  int nodes = 0;
  int procs_per_node = 0;
  stats::Histogram completion{1e-5};  ///< per-process completion times (s)
  std::uint64_t operations = 0;
  std::uint64_t tcp_timeouts = 0;
  std::uint64_t tcp_retransmits = 0;
  std::uint64_t faults_injected = 0;
};

[[nodiscard]] CollectiveResult run_barrier(const Options& options);
[[nodiscard]] CollectiveResult run_bcast(const Options& options,
                                         net::Bytes size);
[[nodiscard]] CollectiveResult run_alltoall(const Options& options,
                                            net::Bytes block_size);

/// Measures the Isend one-way distribution across `sizes` for every machine
/// configuration in `configs` (pairs of nodes x ppn) and assembles the
/// PEVPM distribution table, with contention level = total process count.
/// The (config, size) grid is swept over up to `jobs` threads; the table is
/// assembled in grid order afterwards, so output is independent of jobs.
struct Config {
  int nodes = 2;
  int procs_per_node = 1;
};
[[nodiscard]] DistributionTable measure_isend_table(
    Options options, std::span<const net::Bytes> sizes,
    std::span<const Config> configs, int jobs = 1);

}  // namespace mpibench
