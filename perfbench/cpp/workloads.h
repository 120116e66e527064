// The benchmark's workloads and the layer probes of the traced run.
#pragma once

#include <sys/types.h>

#include <memory>
#include <string>

#include "common.h"
#include "mpibench/table.h"

namespace perfbench {

/// mpibench_seq (sim_threads 0) and mpibench_part (sim_threads 2).
[[nodiscard]] Result run_mpibench(const RunArgs& args, int sim_threads);

/// pevpm_jacobi: Figure 5 Jacobi predictions against a DES reference.
[[nodiscard]] Result run_pevpm(const RunArgs& args);

/// The forked load generator of pevpmd_mixed: its pid and the two pipe
/// ends the benchmark process uses (plans out, reports in).
struct ClientProcess {
  pid_t pid = -1;
  int to_child = -1;
  int from_child = -1;

  ClientProcess() = default;
  ClientProcess(const ClientProcess&) = delete;
  ClientProcess& operator=(const ClientProcess&) = delete;
  /// Closes the plan pipe (the client exits on end of file) and reaps the
  /// client, killing it if it has not exited within five seconds.
  ~ClientProcess();
};

/// Forks the load generator; null on failure. Must run before the
/// benchmark starts any thread.
[[nodiscard]] std::unique_ptr<ClientProcess> fork_client();

/// pevpmd_mixed: an in-process server driven by the open-loop `client`.
[[nodiscard]] Result run_serve(const RunArgs& args, ClientProcess& client);

/// Inputs the layer probes share with the workload that runs them.
struct ProbeInputs {
  const mpibench::DistributionTable* table = nullptr;
  std::string table_text;
  std::string model_text;  ///< the workload's PEVPM model
};

/// Runs every layer probe and stores the probe metrics in `result`.
void run_probes(const ProbeInputs& inputs, Result& result);

/// Sets every per-layer metric to its "layer idle" value (0), so a traced
/// run reports the full set; workloads then overwrite what they measure.
void zero_per_layer(Result& result);

// --- Inputs shared by the PEVPM workloads ------------------------------

/// The Figure 5 Jacobi model wrapped in `iterations` loop iterations, as
/// annotated source. `xsize` scales the halo (the paper's 256).
[[nodiscard]] std::string jacobi_model_text(int iterations, int xsize = 256);

/// The PEVPM distribution table the Jacobi predictions sample from,
/// measured by MPIBench on 2..64 nodes at the halo size.
[[nodiscard]] mpibench::DistributionTable measure_jacobi_table(
    std::uint64_t seed);

[[nodiscard]] std::string table_text(const mpibench::DistributionTable& t);

}  // namespace perfbench
