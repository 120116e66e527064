// pevpmd: the PEVPM prediction service daemon.
//
// Listens on a Unix-domain socket (and optionally loopback TCP), parses
// newline-delimited JSON requests, and runs predictions on a shared thread
// pool with an artifact cache, cross-request replication batching, and
// bounded-queue admission control. Replies are byte-identical to the
// `pevpm` CLI for the same request and seed. See src/serve/server.h for
// the wire protocol.
//
// Usage:
//   pevpmd --socket PATH [options]
//     --socket PATH      unix-domain socket to listen on
//     --tcp PORT         also listen on 127.0.0.1:PORT, 0-65535 (0 =
//                        ephemeral; the chosen port is printed at startup;
//                        -1 = off, the default)
//     --threads N        prediction worker threads (default: one per
//                        hardware thread)
//     --queue-cap N      max requests in the system before 503 (default 64)
//     --cache-cap N      resident parsed models/tables/clusters (default 32)
//     --deadline-ms D    default per-request deadline (0 = none)
//     --trace FILE       dump request-lifecycle events as CSV on exit
//     --version          print version and exit
//
// SIGINT/SIGTERM stop accepting, drain in-flight requests (each still gets
// its response), then exit 0.
//
// Exit codes: 0 clean shutdown, 2 usage error, 3 runtime failure.
#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>

#include "core/request.h"
#include "core/version.h"
#include "serve/server.h"
#include "trace/trace.h"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH [--tcp PORT] [--threads N]\n"
               "          [--queue-cap N] [--cache-cap N] [--deadline-ms D]\n"
               "          [--trace FILE] [--version]\n",
               argv0);
  std::exit(2);
}

serve::Server* g_server = nullptr;

extern "C" void handle_signal(int) {
  if (g_server != nullptr) g_server->request_shutdown();
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServerOptions options;
  std::string trace_file;

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
    if (flag == "--socket") {
      options.unix_path = value();
    } else if (flag == "--tcp") {
      number(options.tcp_port);
      if (options.tcp_port < -1 || options.tcp_port > 65535) usage(argv[0]);
    } else if (flag == "--threads") {
      number(options.service.threads);
    } else if (flag == "--queue-cap") {
      number(options.service.queue_capacity);
    } else if (flag == "--cache-cap") {
      number(options.service.cache_capacity);
    } else if (flag == "--deadline-ms") {
      double ms = 0.0;
      number(ms);
      options.service.default_deadline = units::Duration::from_millis(ms);
    } else if (flag == "--trace") {
      trace_file = value();
    } else if (flag == "--version") {
      std::printf("%s\n", pevpm::version_string("pevpmd").c_str());
      return 0;
    } else {
      usage(argv[0]);
    }
  }
  if (options.unix_path.empty() && options.tcp_port < 0) usage(argv[0]);

  trace::Tracer tracer;
  if (!trace_file.empty()) {
    tracer.enable();
    options.service.tracer = &tracer;
  }

  try {
    serve::Server server{options};
    g_server = &server;
    struct sigaction action{};
    action.sa_handler = handle_signal;
    ::sigaction(SIGINT, &action, nullptr);
    ::sigaction(SIGTERM, &action, nullptr);

    if (!options.unix_path.empty()) {
      std::printf("pevpmd listening on %s\n", options.unix_path.c_str());
    }
    if (server.tcp_port() >= 0) {
      std::printf("pevpmd listening on 127.0.0.1:%d\n", server.tcp_port());
    }
    std::printf("%u worker threads, queue capacity %zu, cache capacity %zu\n",
                server.service().threads(), options.service.queue_capacity,
                options.service.cache_capacity);
    std::fflush(stdout);

    server.serve();  // returns after drain on SIGINT/SIGTERM
    g_server = nullptr;
    std::printf("pevpmd drained, shutting down\n");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 3;
  }

  if (!trace_file.empty()) {
    std::ofstream trace_out{trace_file};
    if (!trace_out) {
      std::fprintf(stderr, "cannot write %s\n", trace_file.c_str());
      return 3;
    }
    tracer.dump_csv(trace_out);
    std::printf("wrote %zu trace records to %s\n", tracer.size(),
                trace_file.c_str());
  }
  return 0;
}
