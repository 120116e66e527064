// serve_load — closed- and open-loop load generator for pevpmd.
//
// Drives a prediction service over its socket protocol through three
// phases and reports a JSON artifact:
//
//   * nominal (closed loop): --clients concurrent connections, each
//     issuing --requests back-to-back predictions against a warm cache.
//     The acceptance bar lives here: zero rejections.
//   * open loop: arrivals paced at ~60% of the measured nominal
//     throughput, so queueing delay (not client back-pressure) sets the
//     latency tail.
//   * overload (burst): --burst simultaneous heavy requests, several
//     times the queue capacity. The bounded queue must answer every one
//     of them — mostly with 503s — rather than stall or grow without
//     bound.
//
// By default the server runs in-process (queue capacity 96) on a
// Unix-domain socket in the working directory; --socket points at an
// external pevpmd instead (the CI serve-smoke job does this).
//
// Usage:
//   serve_load [--socket PATH] [--clients N] [--requests R] [--burst B]
//              [--check BASELINE.json]
//
// With --check, the run must show zero nominal rejections, at least one
// overload rejection, and nominal p99 latency within 120% of the
// committed baseline; any miss prints the offending metric and exits 1
// (an unreadable baseline exits 2 before any load is offered). The
// artifact is emitted through gate.h. PEVPM_BENCH_QUICK=1 scales request
// counts down.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "gate.h"
#include "mpibench/benchmark.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/server.h"

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kModelVariants = 4;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

/// A small distribution table measured in-process, so the artifact needs
/// no files and the requests are self-contained.
std::string make_table_text() {
  mpibench::Options opt;
  opt.cluster = net::perseus(4);
  opt.repetitions = benchutil::quick() ? 40 : 80;
  opt.warmup = 8;
  opt.seed = 20260806;
  const std::vector<net::Bytes> sizes{net::Bytes{1024}};
  const std::vector<mpibench::Config> configs{{2, 1}, {4, 1}};
  const auto table = mpibench::measure_isend_table(opt, sizes, configs);
  std::ostringstream out;
  table.save(out);
  return out.str();
}

/// Distinct model texts (the serial parameter varies) so the artifact
/// cache holds several entries and the nominal phase exercises real hits.
std::string model_text(int variant) {
  return "param serial = 0.00" + std::to_string(2 + variant) + R"(
loop 10 {
  runon procnum % 2 == 0 {
    runon procnum != numprocs - 1 {
      message send size = 1024 to = procnum + 1
      message recv size = 1024 from = procnum + 1
    }
  } else {
    message recv size = 1024 from = procnum - 1
    message send size = 1024 to = procnum - 1
  }
  serial time = serial / numprocs
}
)";
}

serve::Json make_request(const std::string& table_text, int variant,
                         std::uint64_t seed, int reps,
                         const std::vector<int>& procs) {
  serve::Json frame{serve::Json::Object{}};
  frame.set("type", serve::Json{"predict"});
  frame.set("model_text", serve::Json{model_text(variant)});
  frame.set("table_text", serve::Json{table_text});
  serve::Json list{serve::Json::Array{}};
  for (const int p : procs) list.as_array().emplace_back(p);
  frame.set("procs", std::move(list));
  frame.set("reps", serve::Json{reps});
  frame.set("seed", serve::Json{seed});
  return frame;
}

/// Connects to whichever endpoint the run targets.
serve::Client connect(const std::string& unix_path) {
  return serve::Client::connect_unix(unix_path);
}

struct PhaseResult {
  std::vector<double> latencies_ms;  // completed (status 200) requests
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;   // 503
  std::uint64_t errors = 0;     // transport failures or non-200/503
  double elapsed_s = 0.0;
};

struct PhaseCollector {
  std::mutex mu;
  PhaseResult result;

  void record(int status, double latency_ms) {
    std::lock_guard lock{mu};
    if (status == 200) {
      ++result.completed;
      result.latencies_ms.push_back(latency_ms);
    } else if (status == 503) {
      ++result.rejected;
    } else {
      ++result.errors;
    }
  }
};

/// Sends one request on `client`, returning the response status (or -1 on
/// a transport error).
int send_one(serve::Client& client, const serve::Json& frame) {
  try {
    const serve::Json response = client.call(frame);
    const serve::Json* status = response.find("status");
    return status != nullptr ? static_cast<int>(status->as_int64()) : -1;
  } catch (const std::exception&) {
    return -1;
  }
}

PhaseResult run_closed_loop(const std::string& socket_path,
                            const std::string& table_text, int clients,
                            int requests) {
  PhaseCollector collector;
  const auto t0 = Clock::now();
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      try {
        serve::Client client = connect(socket_path);
        for (int r = 0; r < requests; ++r) {
          const auto frame = make_request(
              table_text, (c + r) % kModelVariants,
              static_cast<std::uint64_t>(c * 1000 + r), 4, {4});
          const auto start = Clock::now();
          const int status = send_one(client, frame);
          collector.record(status, ms_since(start));
        }
      } catch (const std::exception&) {
        std::lock_guard lock{collector.mu};
        collector.result.errors += static_cast<std::uint64_t>(requests);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  collector.result.elapsed_s = ms_since(t0) / 1e3;
  return collector.result;
}

/// Open loop: `total` arrivals paced at `rate_rps`, spread over `workers`
/// connections. A worker that falls behind schedule sends immediately, so
/// server-side queueing shows up as latency, not as a slower offered rate.
PhaseResult run_open_loop(const std::string& socket_path,
                          const std::string& table_text, int workers,
                          int total, double rate_rps) {
  PhaseCollector collector;
  std::atomic<int> next{0};
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      try {
        serve::Client client = connect(socket_path);
        for (;;) {
          const int i = next.fetch_add(1);
          if (i >= total) return;
          const auto arrival =
              t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           static_cast<double>(i) / rate_rps));
          std::this_thread::sleep_until(arrival);
          const auto frame = make_request(
              table_text, i % kModelVariants,
              static_cast<std::uint64_t>(500000 + i), 4, {4});
          const auto start = Clock::now();
          const int status = send_one(client, frame);
          collector.record(status, ms_since(start));
        }
      } catch (const std::exception&) {
        std::lock_guard lock{collector.mu};
        ++collector.result.errors;
        (void)w;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  collector.result.elapsed_s = ms_since(t0) / 1e3;
  return collector.result;
}

/// Overload burst: every connection fires one heavy request at once.
PhaseResult run_burst(const std::string& socket_path,
                      const std::string& table_text, int burst) {
  PhaseCollector collector;
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(burst));
  for (int b = 0; b < burst; ++b) {
    threads.emplace_back([&, b] {
      try {
        serve::Client client = connect(socket_path);
        const auto frame = make_request(
            table_text, b % kModelVariants,
            static_cast<std::uint64_t>(900000 + b), 32, {4, 8});
        const auto start = Clock::now();
        const int status = send_one(client, frame);
        collector.record(status, ms_since(start));
      } catch (const std::exception&) {
        std::lock_guard lock{collector.mu};
        ++collector.result.errors;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  collector.result.elapsed_s = ms_since(t0) / 1e3;
  return collector.result;
}

double quantile_ms(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto index = static_cast<std::size_t>(
      q * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[std::min(index, samples.size() - 1)];
}

void add_phase(serve::Json& doc, const std::string& prefix,
               const PhaseResult& phase) {
  doc.set(prefix + "_requests",
          serve::Json{phase.completed + phase.rejected + phase.errors});
  doc.set(prefix + "_completed", serve::Json{phase.completed});
  doc.set(prefix + "_rejected", serve::Json{phase.rejected});
  doc.set(prefix + "_errors", serve::Json{phase.errors});
  doc.set(prefix + "_throughput_rps",
          serve::Json{phase.elapsed_s > 0.0
                          ? static_cast<double>(phase.completed) /
                                phase.elapsed_s
                          : 0.0});
  doc.set(prefix + "_p50_ms", serve::Json{quantile_ms(phase.latencies_ms, 0.5)});
  doc.set(prefix + "_p99_ms", serve::Json{quantile_ms(phase.latencies_ms, 0.99)});
  doc.set(prefix + "_p999_ms",
          serve::Json{quantile_ms(phase.latencies_ms, 0.999)});
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string check_file;
  int clients = 64;
  int requests = benchutil::quick() ? 2 : 8;
  int burst = benchutil::quick() ? 192 : 256;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr,
                     "usage: %s [--socket PATH] [--clients N] [--requests R]"
                     " [--burst B] [--check BASELINE.json]\n",
                     argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--socket") {
      socket_path = value();
    } else if (flag == "--clients") {
      clients = std::atoi(value());
    } else if (flag == "--requests") {
      requests = std::atoi(value());
    } else if (flag == "--burst") {
      burst = std::atoi(value());
    } else if (flag == "--check") {
      check_file = value();
    } else {
      std::fprintf(stderr,
                   "usage: %s [--socket PATH] [--clients N] [--requests R]"
                   " [--burst B] [--check BASELINE.json]\n",
                   argv[0]);
      return 2;
    }
  }
  std::optional<serve::Json> baseline;
  if (!check_file.empty()) {
    baseline = gate::load_baseline(check_file);
    if (!baseline) return 2;
  }

  std::printf("# measuring the distribution table in-process...\n");
  const std::string table_text = make_table_text();

  // Default target: an in-process server, so the bench is self-contained.
  std::unique_ptr<serve::Server> server;
  std::thread server_thread;
  if (socket_path.empty()) {
    socket_path = "serve_load." + std::to_string(::getpid()) + ".sock";
    serve::ServerOptions options;
    options.unix_path = socket_path;
    options.service.queue_capacity = 96;  // > 64 clients, << the burst
    server = std::make_unique<serve::Server>(options);
    server_thread = std::thread{[&] { server->serve(); }};
  }

  // Warm the artifact cache: one request per model variant.
  {
    serve::Client client = connect(socket_path);
    for (int v = 0; v < kModelVariants; ++v) {
      const int status =
          send_one(client, make_request(table_text, v, 1, 2, {4}));
      if (status != 200) {
        std::fprintf(stderr, "warm-up request failed with status %d\n",
                     status);
        return 1;
      }
    }
  }

  std::printf("# nominal: %d clients x %d requests, closed loop\n", clients,
              requests);
  const PhaseResult nominal =
      run_closed_loop(socket_path, table_text, clients, requests);

  const double nominal_rps =
      nominal.elapsed_s > 0.0
          ? static_cast<double>(nominal.completed) / nominal.elapsed_s
          : 1.0;
  const double open_rate = std::max(1.0, nominal_rps * 0.6);
  const int open_total =
      std::max(clients, static_cast<int>(open_rate *
                                         (benchutil::quick() ? 1.0 : 2.5)));
  std::printf("# open loop: %d arrivals at %.0f req/s\n", open_total,
              open_rate);
  const PhaseResult open =
      run_open_loop(socket_path, table_text, clients, open_total, open_rate);

  std::printf("# overload: burst of %d heavy requests\n", burst);
  const PhaseResult overload = run_burst(socket_path, table_text, burst);

  // Server-side counters for the artifact (cache effectiveness, queue
  // totals) via the stats request.
  serve::Json stats;
  {
    serve::Client client = connect(socket_path);
    serve::Json frame{serve::Json::Object{}};
    frame.set("type", serve::Json{"stats"});
    try {
      const serve::Json response = client.call(frame);
      if (const serve::Json* body = response.find("stats")) stats = *body;
    } catch (const std::exception&) {
    }
  }

  if (server != nullptr) {
    server->shutdown();
    server_thread.join();
    server.reset();
    ::unlink(socket_path.c_str());
  }

  serve::Json doc{serve::Json::Object{}};
  doc.set("schema", serve::Json{"pevpm-serve-load-v1"});
  doc.set("clients", serve::Json{clients});
  doc.set("requests_per_client", serve::Json{requests});
  doc.set("burst", serve::Json{burst});
  add_phase(doc, "nominal", nominal);
  add_phase(doc, "openloop", open);
  add_phase(doc, "overload", overload);
  if (stats.is_object()) {
    if (const serve::Json* cache = stats.find("cache")) {
      doc.set("cache_hits", *cache->find("hits"));
      doc.set("cache_misses", *cache->find("misses"));
      doc.set("cache_evictions", *cache->find("evictions"));
    }
    if (const serve::Json* accepted = stats.find("accepted")) {
      doc.set("server_accepted", *accepted);
    }
    if (const serve::Json* rejected = stats.find("rejected")) {
      doc.set("server_rejected", *rejected);
    }
  }

  if (!gate::emit(doc)) return 1;
  if (!baseline) return 0;

  // Absolute requirements first (the queue's contract), then the latency
  // regression check against the committed baseline.
  gate::Checker check{doc, *baseline};
  check.require("nominal_rejected", 0.0, 0.0, "rejections at nominal load");
  check.require("nominal_errors", 0.0, 0.0, "errors at nominal load");
  check.require("overload_rejected", 1.0, gate::Checker::kUnbounded,
                "overload produced no rejections, the queue bound is not "
                "engaging");
  check.require("overload_errors", 0.0, 0.0,
                "overload requests got no answer (reject, don't stall)");
  check.at_most_factor("nominal_p99_ms", 1.2);
  return check.finish(check_file);
}
