// perfbench — the repository's layered benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// Workloads: mpibench_seq, mpibench_part, pevpm_jacobi, pevpmd_mixed (see
// perfbench/README.md). Inputs come from --seed alone. Each run sets up
// (timed, repeated, median reported as setup_s), measures for --seconds,
// checks its outputs, prints informational lines and then, as the last
// line, one JSON object:
//
//   {"correct": B, "attempted": N, "failed": N, "metrics": {NAME: {"value":
//    X, "unit": U}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// is split into an untraced and a traced half, and the metrics are the
// per-layer ones (spans, allocation counts and layer probes), written with
// every span to --trace-out.
#include <signal.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "serve/json.h"
#include "spans.h"
#include "workloads.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload mpibench_seq|mpibench_part|pevpm_jacobi|"
               "pevpmd_mixed --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n",
               argv0);
  return 2;
}

bool parse_args(int argc, char** argv, perfbench::RunArgs& args) {
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      have_seed = *value != '\0' && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && args.seconds > 0.0 && args.seconds <= 600;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      args.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && have_seconds && have_trace &&
         (args.workload == "mpibench_seq" || args.workload == "mpibench_part" ||
          args.workload == "pevpm_jacobi" || args.workload == "pevpmd_mixed");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  if (!parse_args(argc, argv, args)) return usage(argv[0]);
  // A peer that closes a pipe or socket early must surface as an error
  // return, not kill the process.
  ::signal(SIGPIPE, SIG_IGN);

  std::unique_ptr<perfbench::ClientProcess> client;
  if (args.workload == "pevpmd_mixed") {
    client = perfbench::fork_client();
    if (!client) {
      std::fprintf(stderr, "perfbench: cannot start the load client\n");
      return 1;
    }
  }

  perfbench::Result result;
  try {
    if (args.workload == "mpibench_seq") {
      result = perfbench::run_mpibench(args, 0);
    } else if (args.workload == "mpibench_part") {
      result = perfbench::run_mpibench(args, 2);
    } else if (args.workload == "pevpm_jacobi") {
      result = perfbench::run_pevpm(args);
    } else {
      result = perfbench::run_serve(args, *client);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  client.reset();

  if (args.trace) {
    result.set("error_rate",
               static_cast<double>(result.failed) /
                   static_cast<double>(std::max<std::uint64_t>(1, result.attempted)),
               "ratio");
    for (const auto& t : perfbench::spans::totals()) {
      std::printf("span %s: count %llu, total %.6f s, self %.6f s\n",
                  t.name.c_str(), static_cast<unsigned long long>(t.count),
                  t.total_s, t.self_s);
    }
    if (!args.trace_out.empty() &&
        !perfbench::spans::write_json(args.trace_out, args.workload,
                                      args.seed)) {
      result.info.push_back("could not write " + args.trace_out);
    }
  }

  for (const std::string& line : result.info) {
    std::printf("%s: %s\n", args.workload.c_str(), line.c_str());
  }
  serve::Json metrics{serve::Json::Object{}};
  for (const auto& [name, metric] : result.metrics) {
    serve::Json entry{serve::Json::Object{}};
    entry.set("value", serve::Json{metric.value});
    entry.set("unit", serve::Json{metric.unit});
    metrics.set(name, std::move(entry));
  }
  serve::Json out{serve::Json::Object{}};
  out.set("correct", serve::Json{result.correct()});
  out.set("attempted", serve::Json{result.attempted});
  out.set("failed", serve::Json{result.failed});
  out.set("metrics", std::move(metrics));
  std::printf("%s\n", out.dump().c_str());
  std::fflush(stdout);
  return 0;
}
