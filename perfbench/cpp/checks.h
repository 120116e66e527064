// Output checks behind `correct`, `failed` and `error_rate`.
//
// Each check compares a result with an answer known independently of the
// code under test and returns an empty string when it holds, or the reason
// it does not. They are pure functions so the self-tests
// (perfbench/tests/checks_test.cpp) can feed them deliberately wrong inputs.
#pragma once

#include <cstdint>
#include <string>

#include "core/predict.h"
#include "mpibench/benchmark.h"

namespace perfbench {

/// One MPIBench Isend cell: every pair exchanged `reps` measured messages
/// each way (nprocs x reps in all), every one of them landed in both
/// histograms, and the cell was not skipped. The known answer: no one-way
/// time is negative, and none is shorter than the payload's serialisation
/// on the sender's NIC (`size` x 8 / `nic_bits_per_s`), the physical floor
/// of any delivery.
[[nodiscard]] std::string check_isend_cell(
    const mpibench::PointToPointResult& cell, net::Bytes size, int nprocs,
    int reps, double nic_bits_per_s);

/// A PEVPM prediction against the DES-measured reference time: no
/// replication deadlocked and the error is within `limit_pct` percent.
[[nodiscard]] std::string check_prediction(const pevpm::Prediction& prediction,
                                           double reference_s,
                                           double limit_pct);

/// Relative error of a prediction, in percent of the reference.
[[nodiscard]] double error_pct(double predicted_s, double reference_s);

/// A service reply against the same request evaluated locally.
[[nodiscard]] std::string check_reply(const std::string& reply_summary,
                                      const std::string& local_summary);

/// A rerun of the same inputs must reproduce the first run's digest.
[[nodiscard]] std::string check_digest(std::uint64_t first,
                                       std::uint64_t rerun);

/// Digest of an MPIBench sweep's outputs (histograms, counts, counters).
[[nodiscard]] std::uint64_t digest_of(
    const std::vector<mpibench::PointToPointResult>& cells);

/// Digest of a prediction (makespan summary and the detailed replication).
[[nodiscard]] std::uint64_t digest_of(const pevpm::Prediction& prediction);

}  // namespace perfbench
