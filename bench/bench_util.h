// Shared helpers for the figure-reproduction benches.
//
// Every bench binary runs with no arguments, prints CSV-ish series to
// stdout (one row per point, with a header naming the figure), and scales
// its repetition counts down via PEVPM_BENCH_QUICK=1 for smoke runs.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "mpibench/benchmark.h"
#include "net/cluster.h"

namespace benchutil {

/// True when the environment asks for a fast smoke run.
inline bool quick() {
  const char* env = std::getenv("PEVPM_BENCH_QUICK");
  return env != nullptr && env[0] == '1';
}

inline int scaled(int full, int quick_value) {
  return quick() ? quick_value : full;
}

inline mpibench::Options bench_options(int nodes, int ppn, int reps,
                                       std::uint64_t seed = 20260707) {
  mpibench::Options opt;
  opt.cluster = net::perseus(nodes);
  opt.procs_per_node = ppn;
  opt.repetitions = reps;
  opt.warmup = std::max(8, reps / 10);
  opt.seed = seed;
  return opt;
}

inline void banner(const char* figure, const char* description) {
  std::printf("# %s — %s\n", figure, description);
  std::printf("# simulated Perseus cluster (see DESIGN.md); all times are\n");
  std::printf("# one-way MPI_Isend delivery times measured by MPIBench\n");
}

}  // namespace benchutil
