// scalefit: fit a per-quantile scaling model from a distribution table.
//
// Usage:
//   scalefit --table FILE [options]
//     --table FILE       distribution table from mpibench --table
//     --out FILE         write the fitted "pevpm-scaling v1" artifact
//                        (default: stdout after the summary)
//     --cross-validate   leave-one-grid-point-out report: per held-out
//                        cell and pooled per-operation median / p95
//                        relative error against the measured quantiles
//     --version          print version and exit
//
// The fit is deterministic: the same table yields a byte-identical
// artifact on every run, machine and thread count. Exit codes: 0 success,
// 2 usage error, 3 runtime failure.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/version.h"
#include "mpibench/table.h"
#include "scaling/model.h"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --table FILE [--out FILE] [--cross-validate]\n"
               "          [--version]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string table_file;
  std::string out_file;
  bool cross_validate = false;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (flag == "--table") {
      table_file = value();
    } else if (flag == "--out") {
      out_file = value();
    } else if (flag == "--cross-validate") {
      cross_validate = true;
    } else if (flag == "--version") {
      std::printf("%s\n", pevpm::version_string("scalefit").c_str());
      return 0;
    } else {
      usage(argv[0]);
    }
  }
  if (table_file.empty()) usage(argv[0]);

  try {
    std::ifstream table_in{table_file};
    if (!table_in) {
      std::fprintf(stderr, "cannot open %s\n", table_file.c_str());
      return 3;
    }
    const auto table = mpibench::DistributionTable::load(table_in);

    std::vector<scaling::OpFitDiagnostics> diagnostics;
    const scaling::ScalingModel model =
        scaling::fit_scaling_model(table, &diagnostics);
    if (model.empty()) {
      std::fprintf(stderr, "table %s has no fittable operation series\n",
                   table_file.c_str());
      return 3;
    }

    std::printf("table %s (%zu entries), %zu operation series\n",
                table_file.c_str(), table.size(), model.size());
    std::printf("%-12s %6s %14s %14s\n", "op", "cells", "mean_err_pct",
                "max_track_pct");
    for (const auto& d : diagnostics) {
      std::printf("%-12s %6d %14.3f %14.3f\n",
                  mpibench::to_string(d.op).c_str(), d.grid_cells,
                  100.0 * d.mean_rel_error, 100.0 * d.max_track_error);
    }

    if (cross_validate) {
      const scaling::CrossValidationReport report =
          scaling::cross_validate(table);
      std::printf("\nleave-one-out cross-validation\n");
      std::printf("%-12s %10s %10s %10s %14s\n", "op", "size", "level",
                  "median_pct", "worst_track_pct");
      for (const auto& cell : report.cells) {
        std::printf("%-12s %10llu %10d %10.3f %14.3f\n",
                    mpibench::to_string(cell.op).c_str(),
                    static_cast<unsigned long long>(cell.size_bytes.count()),
                    cell.contention, 100.0 * cell.median_rel_error,
                    100.0 * cell.max_rel_error);
      }
      std::printf("%-12s %6s %14s %14s\n", "op", "cells", "median_pct",
                  "p95_pct");
      for (const auto& op : report.per_op) {
        std::printf("%-12s %6d %14.3f %14.3f\n",
                    mpibench::to_string(op.op).c_str(), op.cells,
                    100.0 * op.median_rel_error, 100.0 * op.p95_rel_error);
      }
    }

    if (!out_file.empty()) {
      std::ofstream out{out_file};
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", out_file.c_str());
        return 3;
      }
      model.save(out);
      std::printf("\nwrote scaling model to %s\n", out_file.c_str());
    } else {
      std::ostringstream artifact;
      model.save(artifact);
      std::printf("\n%s", artifact.str().c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 3;
  }
  return 0;
}
