// mpibench: command-line MPI communication benchmark for the simulated
// cluster, producing human-readable summaries, histogram CSVs and PEVPM
// distribution-table files.
//
// Usage:
//   mpibench [options]
//     --nodes N          nodes to benchmark on (default 16)
//     --ppn P            processes per node (default 1)
//     --sizes a,b,c      message sizes in bytes (default 0,1024,16384,65536)
//     --reps R           measured repetitions (default 200)
//     --op OP            isend | barrier | bcast | alltoall (default isend)
//     --jobs J           benchmark J (size x config) cells concurrently on
//                        independent simulator instances; 0 = one per
//                        hardware thread. This is the parallel axis:
//                        output is byte-identical to --jobs 1 (default 1)
//     --bin-us W         histogram bin width in microseconds (default 10)
//     --table FILE       ALSO sweep configs 2..N x ppn and write a PEVPM
//                        distribution table to FILE
//     --histograms       print full per-size histograms
//     --cluster FILE     cluster description overrides ("key = value")
//     --seed S
//
//   Fault injection (src/net/fault.h). Each flag is shorthand for cluster
//   keys (src/net/cluster.h), applied after --cluster in command-line
//   order. With faults the summary grows tail quantiles (p99.9) and
//   retransmission/fault counters:
//     --loss-rate P      fault_loss_rate = P
//     --fault-profile S  burst:E,X,L is fault_burst_enter/exit/loss;
//                        down:START_MS,END_MS is fault_down_start/end_ms
//     --fault-seed S     fault_seed = S (default: --seed)
//     --rto-ms R         rto_ms = R
//
// SIGINT/SIGTERM during a sweep stop unstarted cells; completed cells are
// still printed (and the distribution table flushed, partially) before the
// process exits with status 3.
//
// Numeric values must be whole, in-range numbers; --nodes, --ppn and --reps
// at least 1, --jobs at least 0, --bin-us above 0 and each shorthand in its
// key's range. Anything else is a usage error; a bad --cluster file is not.
//
// Exit codes: 0 success, 2 usage error, 3 runtime failure or interruption.
#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/parallel.h"
#include "core/request.h"
#include "core/version.h"
#include "mpibench/benchmark.h"
#include "net/cluster.h"

namespace {

std::atomic<bool> g_interrupted{false};

extern "C" void handle_signal(int) {
  g_interrupted.store(true, std::memory_order_relaxed);
}

struct Args {
  int nodes = 16;
  int ppn = 1;
  std::vector<net::Bytes> sizes{net::Bytes{0}, net::Bytes{1024}, net::Bytes{16384}, net::Bytes{65536}};
  int reps = 200;
  std::string op = "isend";
  int jobs = 1;
  double bin_us = 10.0;
  std::string table_file;
  std::string cluster_file;
  bool histograms = false;
  std::uint64_t seed = 1;
  /// The fault and TCP flags as "key = value" lines, in command-line order.
  std::string cluster_settings;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--nodes N] [--ppn P] [--sizes a,b,c] [--reps R]\n"
               "          [--op isend|barrier|bcast|alltoall] [--jobs J]\n"
               "          [--bin-us W]\n"
               "          [--table FILE] [--histograms] [--cluster FILE]\n"
               "          [--seed S]\n"
               "          [--loss-rate P] [--fault-profile burst:E,X,L]\n"
               "          [--fault-profile down:START_MS,END_MS]\n"
               "          [--fault-seed S] [--rto-ms R]\n"
               "          [--version]\n",
               argv0);
  std::exit(2);
}

/// The value of a numeric flag; a malformed or out-of-range one is a usage
/// error.
template <typename T>
T number(const std::string& text, const char* argv0) {
  T value{};
  if (!pevpm::parse_number(text, value)) usage(argv0);
  return value;
}

std::vector<net::Bytes> parse_sizes(const std::string& list,
                                    const char* argv0) {
  std::vector<net::Bytes> out;
  std::stringstream ss{list};
  std::string item;
  while (std::getline(ss, item, ',')) {
    out.emplace_back(number<std::uint64_t>(item, argv0));
  }
  if (out.empty()) usage(argv0);
  return out;
}

/// The cluster settings a --fault-profile spec stands for: "burst:E,X,L"
/// sets the three fault_burst_* keys, "down:START_MS,END_MS" one outage
/// window. Exits with usage() on a malformed spec.
std::vector<std::pair<const char*, std::string>> fault_profile(
    const std::string& spec, const char* argv0) {
  const auto colon = spec.find(':');
  if (colon == std::string::npos) usage(argv0);
  const std::string kind = spec.substr(0, colon);
  std::vector<std::string> f;
  std::stringstream ss{spec.substr(colon + 1)};
  std::string item;
  while (std::getline(ss, item, ',')) f.push_back(item);
  if (kind == "burst" && f.size() == 3) {
    return {{"fault_burst_enter", f[0]},
            {"fault_burst_exit", f[1]},
            {"fault_burst_loss", f[2]}};
  }
  if (kind == "down" && f.size() == 2) {
    return {{"fault_down_start_ms", f[0]}, {"fault_down_end_ms", f[1]}};
  }
  usage(argv0);
}

Args parse_args(int argc, char** argv) {
  Args args;
  // Shorthands are checked on a scratch configuration as they are read.
  net::ClusterParams scratch;
  const auto setting = [&](const char* key, const std::string& text) {
    try {
      net::apply_cluster_setting(scratch, key, text);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
      usage(argv[0]);
    }
    args.cluster_settings += std::string{key} + " = " + text + "\n";
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    const auto count = [&](int& out) {
      if (!pevpm::parse_positive_int(value(), out)) usage(argv[0]);
    };
    if (flag == "--nodes") {
      count(args.nodes);
    } else if (flag == "--ppn") {
      count(args.ppn);
    } else if (flag == "--sizes") {
      args.sizes = parse_sizes(value(), argv[0]);
    } else if (flag == "--reps") {
      count(args.reps);
    } else if (flag == "--op") {
      args.op = value();
    } else if (flag == "--jobs") {
      args.jobs = number<int>(value(), argv[0]);
      if (args.jobs < 0) usage(argv[0]);
    } else if (flag == "--bin-us") {
      args.bin_us = number<double>(value(), argv[0]);
      if (!(args.bin_us > 0.0)) usage(argv[0]);
    } else if (flag == "--table") {
      args.table_file = value();
    } else if (flag == "--cluster") {
      args.cluster_file = value();
    } else if (flag == "--histograms") {
      args.histograms = true;
    } else if (flag == "--seed") {
      args.seed = number<std::uint64_t>(value(), argv[0]);
    } else if (flag == "--loss-rate") {
      setting("fault_loss_rate", value());
    } else if (flag == "--fault-profile") {
      for (const auto& [key, text] : fault_profile(value(), argv[0])) {
        setting(key, text);
      }
    } else if (flag == "--fault-seed") {
      setting("fault_seed", value());
    } else if (flag == "--rto-ms") {
      setting("rto_ms", value());
    } else if (flag == "--version") {
      std::printf("%s\n", pevpm::version_string("mpibench").c_str());
      std::exit(0);
    } else {
      usage(argv[0]);
    }
  }
  return args;
}

/// Runs the benchmark the arguments describe and prints its results.
int run(const Args& args) {
  // Long sweeps (--jobs over big grids) should die gracefully: a SIGINT or
  // SIGTERM stops unstarted cells; whatever already finished still prints
  // (and the table flushes, partially) before exiting non-zero.
  struct sigaction action{};
  action.sa_handler = handle_signal;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);

  mpibench::Options opt;
  opt.cancel = &g_interrupted;
  // One "key = value" text: the --cluster file, a fault seed riding --seed
  // (so it reproduces the loss pattern too), the shorthands, then --nodes.
  // parse_cluster checks the configuration that runs, once.
  const net::ClusterParams base = net::perseus(std::max(2, args.nodes));
  std::string text;
  if (!args.cluster_file.empty()) {
    std::ifstream in{args.cluster_file};
    if (!in) {
      std::fprintf(stderr, "cannot open cluster file %s\n",
                   args.cluster_file.c_str());
      return 3;
    }
    text.assign(std::istreambuf_iterator<char>{in}, {});
    text += '\n';
  }
  text += "fault_seed = " + std::to_string(args.seed) + "\n";
  text += args.cluster_settings;
  text += "nodes = " + std::to_string(args.nodes) + "\n";
  try {
    std::istringstream in{text};
    opt.cluster = net::parse_cluster(in, base);
  } catch (const std::exception& e) {
    const char* source = args.cluster_file.empty() ? "mpibench"
                                                   : args.cluster_file.c_str();
    std::fprintf(stderr, "%s: %s\n", source, e.what());
    return 3;
  }
  opt.procs_per_node = args.ppn;
  opt.repetitions = args.reps;
  opt.warmup = std::max(8, args.reps / 10);
  opt.bin_width_us = args.bin_us;
  opt.seed = args.seed;
  const bool faults = opt.cluster.fault.enabled();

  std::printf("%s", net::describe(opt.cluster).c_str());
  std::printf("benchmarking %s, %dx%d, %d repetitions\n\n", args.op.c_str(),
              args.nodes, args.ppn, args.reps);

  if (args.op == "isend") {
    // The fault-mode table adds the tail quantiles and retransmission
    // counters; the default stays bit-identical to a lossless build.
    if (faults) {
      std::printf("%10s %10s %10s %10s %10s %10s %10s %8s %8s %8s\n", "bytes",
                  "min_us", "avg_us", "med_us", "p99_us", "p999_us", "max_us",
                  "mbit", "retx", "faults");
    } else {
      std::printf("%10s %10s %10s %10s %10s %8s\n", "bytes", "min_us",
                  "avg_us", "p99_us", "max_us", "mbit");
    }
    // All sizes are benchmarked up front (fanned out when --jobs > 1) and
    // printed afterwards in size order, so the output never depends on the
    // job count.
    const auto results = mpibench::run_isend_sweep(opt, args.sizes, args.jobs);
    for (const auto& result : results) {
      if (result.messages == 0 && g_interrupted.load()) continue;  // skipped
      const net::Bytes size = result.size;
      const auto& s = result.oneway.summary();
      const auto dist = result.distribution();
      if (faults) {
        std::printf(
            "%10llu %10.1f %10.1f %10.1f %10.1f %10.1f %10.1f %8.1f %8llu "
            "%8llu\n",
            static_cast<unsigned long long>(size.count()), s.min() * 1e6,
            s.mean() * 1e6, dist.quantile(0.5) * 1e6,
            dist.quantile(0.99) * 1e6, dist.quantile(0.999) * 1e6,
            s.max() * 1e6,
            size > net::Bytes{} ? size.to_double() * 8 / s.mean() / 1e6 : 0.0,
            static_cast<unsigned long long>(result.tcp_retransmits),
            static_cast<unsigned long long>(result.faults_injected));
      } else {
        std::printf("%10llu %10.1f %10.1f %10.1f %10.1f %8.1f\n",
                    static_cast<unsigned long long>(size.count()), s.min() * 1e6,
                    s.mean() * 1e6, dist.quantile(0.99) * 1e6, s.max() * 1e6,
                    size > net::Bytes{} ? size.to_double() * 8 / s.mean() / 1e6
                                : 0.0);
      }
      if (args.histograms) {
        std::printf("%s\n", result.oneway.to_csv().c_str());
      }
    }
    if (faults) {
      std::printf("\n# fault injection active: counters above are per-size "
                  "totals (retx = TCP retransmits,\n# faults = packets lost "
                  "to injection); timeouts surface as ~rto_ms modes in the "
                  "tail.\n");
    }
  } else if (args.op == "barrier" || args.op == "bcast" ||
             args.op == "alltoall") {
    std::printf("%10s %10s %10s %10s\n", "bytes", "min_us", "avg_us",
                "max_us");
    // Barrier is size-independent: run one cell. Other collectives sweep
    // sizes like isend — computed first (in parallel under --jobs), printed
    // in size order.
    const std::size_t cells =
        args.op == "barrier" ? std::min<std::size_t>(1, args.sizes.size())
                             : args.sizes.size();
    std::vector<mpibench::CollectiveResult> coll(cells);
    pevpm::parallel_for(
        static_cast<int>(cells), pevpm::resolve_threads(args.jobs),
        [&](int i) {
          if (g_interrupted.load(std::memory_order_relaxed)) return;
          if (args.op == "barrier") {
            coll[i] = mpibench::run_barrier(opt);
          } else if (args.op == "bcast") {
            coll[i] = mpibench::run_bcast(opt, args.sizes[i]);
          } else {
            coll[i] = mpibench::run_alltoall(opt, args.sizes[i]);
          }
        });
    for (std::size_t i = 0; i < cells; ++i) {
      const mpibench::CollectiveResult& result = coll[i];
      if (result.operations == 0 && g_interrupted.load()) continue;  // skipped
      const net::Bytes size = args.op == "barrier" ? args.sizes.at(0)
                                                   : args.sizes[i];
      const auto& s = result.completion.summary();
      std::printf("%10llu %10.1f %10.1f %10.1f\n",
                  static_cast<unsigned long long>(size.count()), s.min() * 1e6,
                  s.mean() * 1e6, s.max() * 1e6);
      if (faults) {
        std::printf("# tcp retransmits %llu, timeouts %llu, faults %llu\n",
                    static_cast<unsigned long long>(result.tcp_retransmits),
                    static_cast<unsigned long long>(result.tcp_timeouts),
                    static_cast<unsigned long long>(result.faults_injected));
      }
      if (args.histograms) {
        std::printf("%s\n", result.completion.to_csv().c_str());
      }
    }
  } else {
    std::fprintf(stderr, "unknown op '%s'\n", args.op.c_str());
    return 3;
  }

  if (!args.table_file.empty()) {
    std::printf("\nsweeping configurations for the distribution table...\n");
    std::vector<mpibench::Config> configs;
    for (int n = 2; n <= args.nodes; n *= 2) configs.push_back({n, args.ppn});
    if (configs.empty() || configs.back().nodes != args.nodes) {
      configs.push_back({args.nodes, args.ppn});
    }
    const auto table = mpibench::measure_isend_table(opt, args.sizes, configs,
                                                     args.jobs);
    std::ofstream out{args.table_file};
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", args.table_file.c_str());
      return 3;
    }
    table.save(out);
    std::printf("wrote %zu%s table entries to %s\n", table.size(),
                g_interrupted.load() ? " (partial)" : "",
                args.table_file.c_str());
  }
  if (g_interrupted.load()) {
    std::fprintf(stderr,
                 "interrupted: skipped unstarted cells, flushed the rest\n");
    return 3;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  // A configuration that parses but cannot run (say, an odd process count)
  // surfaces as an exception from the sweep: one line, runtime failure.
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mpibench: %s\n", e.what());
    return 3;
  }
}
