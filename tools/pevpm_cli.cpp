// pevpm: command-line PEVPM model evaluator.
//
// Usage:
//   pevpm --model FILE --table FILE --procs N [options]
//     --model FILE       directive program, or C/C++ source with
//                        "// PEVPM" annotations (detected automatically)
//     --table FILE       distribution table from mpibench --table
//     --procs N          number of virtual processes (or a,b,c list);
//                        each at most 65536, and their sum times the
//                        replication count at most 1048576 and times
//                        the model's per-process state at most 1 GiB
//     --mode M           distribution | average | minimum (default
//                        distribution)
//     --contention C     scoreboard | fixed:<level> (default scoreboard)
//     --reps R           Monte-Carlo replications (default 8)
//     --threads N        worker threads for replications (default: one per
//                        hardware thread; 1 = serial). Results for a fixed
//                        seed are identical at any thread count.
//     --set name=value   bind/override a model parameter (repeatable)
//     --seed S           Monte-Carlo master seed (default 1)
//     --trace FILE       record per-replication events (thread-safe across
//                        the worker pool) and dump them as CSV to FILE
//     --losses           print the top blocking-loss directives
//     --extrapolate      fit a per-quantile scaling model from the table
//                        and use it for (size, contention) keys outside
//                        the measured grid, instead of clamping to the
//                        table edge. Deterministic: the report is
//                        byte-identical at any --threads count.
//     --scaling FILE     use a pre-fitted scaling model (scalefit output)
//                        instead of fitting from the table; implies
//                        --extrapolate. A FILE with no series is a usage
//                        error.
//     --dump             print the parsed model and exit
//     --server SOCKET    send the request to a running pevpmd instead of
//                        evaluating locally (SOCKET is a unix path, or
//                        host:port for a TCP listener). The reply is
//                        byte-identical to local evaluation for the same
//                        seed. Incompatible with --trace.
//     --version          print version and exit
//
// Exit codes: 0 success, 2 usage error, 3 runtime failure.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/request.h"
#include "core/version.h"
#include "scaling/model.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/server.h"
#include "trace/trace.h"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --model FILE --table FILE --procs N[,M...]\n"
               "          [--mode distribution|average|minimum]\n"
               "          [--contention scoreboard|fixed:<level>]\n"
               "          [--reps R] [--threads N] [--set name=value]...\n"
               "          [--seed S] [--trace FILE]\n"
               "          [--losses] [--extrapolate] [--scaling FILE]\n"
               "          [--dump]\n"
               "          [--server SOCKET]\n"
               "          [--version]\n",
               argv0);
  std::exit(2);
}

std::string slurp(const std::string& path) {
  std::ifstream in{path};
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(3);
  }
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// True when a --scaling file holds no series: it is blank, or a
/// well-formed artifact that lists none. A malformed one is reported when
/// the request runs.
bool lacks_series(const std::string& scaling_text) {
  if (scaling_text.find_first_not_of(" \t\r\n") == std::string::npos) {
    return true;
  }
  std::istringstream in{scaling_text};
  try {
    return scaling::ScalingModel::load(in).empty();
  } catch (const std::exception&) {
    return false;
  }
}

/// Ships the request to a pevpmd at `endpoint` (unix path or host:port) and
/// prints the returned summary — the same bytes local evaluation prints.
int run_remote(const std::string& endpoint,
               const pevpm::PredictRequest& request) {
  const auto colon = endpoint.rfind(':');
  const bool tcp = colon != std::string::npos &&
                   endpoint.find('/') == std::string::npos;
  int port = 0;
  if (tcp &&
      (!pevpm::parse_number(std::string_view{endpoint}.substr(colon + 1),
                            port) ||
       port < 1 || port > 65535)) {
    std::fprintf(stderr, "--server %s: port must be 1-65535\n",
                 endpoint.c_str());
    return 2;
  }
  try {
    serve::Client client =
        tcp ? serve::Client::connect_tcp(endpoint.substr(0, colon), port)
            : serve::Client::connect_unix(endpoint);
    const serve::Json response = client.call(serve::predict_frame(request));
    const serve::Json* status = response.find("status");
    if (status == nullptr || status->as_int64() != 200) {
      const serve::Json* error = response.find("error");
      std::fprintf(stderr, "server error %lld: %s\n",
                   status != nullptr
                       ? static_cast<long long>(status->as_int64())
                       : -1LL,
                   error != nullptr ? error->as_string().c_str() : "?");
      if (const serve::Json* retry = response.find("retry_after_ms")) {
        std::fprintf(stderr, "retry after %.0f ms\n", retry->as_double());
      }
      return 3;
    }
    std::fputs(response.find("summary")->as_string().c_str(), stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 3;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string model_file;
  std::string table_file;
  std::string trace_file;
  std::string scaling_file;
  std::string server;
  pevpm::PredictRequest request;
  trace::Tracer tracer;
  bool dump = false;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    // Every numeric value parses strictly: malformed is a usage error.
    const auto number = [&](auto& out) {
      if (!pevpm::parse_number(value(), out)) usage(argv[0]);
    };
    if (flag == "--model") {
      model_file = value();
    } else if (flag == "--table") {
      table_file = value();
    } else if (flag == "--procs") {
      if (!pevpm::parse_procs(value(), request.procs)) usage(argv[0]);
    } else if (flag == "--mode") {
      if (!pevpm::parse_mode(value(), request.options.sampler)) {
        usage(argv[0]);
      }
    } else if (flag == "--contention") {
      if (!pevpm::parse_contention(value(), request.options.sampler)) {
        usage(argv[0]);
      }
    } else if (flag == "--reps") {
      if (!pevpm::parse_positive_int(value(), request.options.replications)) {
        usage(argv[0]);
      }
    } else if (flag == "--threads") {
      number(request.options.threads);
    } else if (flag == "--set") {
      const std::string kv = value();
      const auto eq = kv.find('=');
      double bound = 0.0;
      if (eq == std::string::npos ||
          !pevpm::parse_number(std::string_view{kv}.substr(eq + 1), bound)) {
        usage(argv[0]);
      }
      request.overrides[kv.substr(0, eq)] = bound;
    } else if (flag == "--seed") {
      number(request.options.seed);
    } else if (flag == "--trace") {
      trace_file = value();
    } else if (flag == "--losses") {
      request.losses = true;
    } else if (flag == "--extrapolate") {
      request.extrapolate = true;
    } else if (flag == "--scaling") {
      scaling_file = value();
      request.extrapolate = true;
    } else if (flag == "--dump") {
      dump = true;
    } else if (flag == "--server") {
      server = value();
    } else if (flag == "--version") {
      std::printf("%s\n", pevpm::version_string("pevpm").c_str());
      return 0;
    } else {
      usage(argv[0]);
    }
  }
  if (model_file.empty() || (!dump && table_file.empty()) ||
      (!dump && request.procs.empty())) {
    usage(argv[0]);
  }
  if (!dump) {
    if (const std::string why = pevpm::admission_error(request);
        !why.empty()) {
      std::fprintf(stderr, "%s\n", why.c_str());
      usage(argv[0]);
    }
  }
  if (!server.empty() && !trace_file.empty()) {
    std::fprintf(stderr, "--trace records locally; it cannot follow a "
                         "request to --server\n");
    usage(argv[0]);
  }

  request.model_text = slurp(model_file);
  request.model_name = model_file;
  if (dump) {
    try {
      std::printf("%s", pevpm::parse_request_model(request).str().c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 3;
    }
    return 0;
  }
  request.table_text = slurp(table_file);
  request.table_label = table_file;
  if (!scaling_file.empty()) {
    request.scaling_text = slurp(scaling_file);
    // Else an empty file would silently fit from the table, and an
    // artifact listing no series would silently extrapolate nothing.
    if (lacks_series(request.scaling_text)) {
      std::fprintf(stderr, "--scaling %s: no scaling series\n",
                   scaling_file.c_str());
      usage(argv[0]);
    }
  }

  if (!server.empty()) return run_remote(server, request);

  if (!trace_file.empty()) {
    tracer.enable();
    request.options.tracer = &tracer;
  }

  pevpm::PredictReport report;
  try {
    const pevpm::Model model = pevpm::parse_request_model(request);
    if (const std::string why = pevpm::admission_error(request, model);
        !why.empty()) {
      std::fprintf(stderr, "%s\n", why.c_str());
      usage(argv[0]);
    }
    report = pevpm::run_request(request, model);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 3;
  }
  std::fputs(report.summary.c_str(), stdout);

  if (!trace_file.empty()) {
    std::ofstream trace_out{trace_file};
    if (!trace_out) {
      std::fprintf(stderr, "cannot write %s\n", trace_file.c_str());
      return 3;
    }
    tracer.dump_csv(trace_out);
    std::printf("\nwrote %zu trace records to %s\n", tracer.size(),
                trace_file.c_str());
  }
  return 0;
}
