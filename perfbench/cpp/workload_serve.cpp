// pevpmd_mixed: an in-process pevpmd server (serve::Server on a Unix
// socket, 2 pool threads) under an open loop sent by a separate client
// process.
//
// The client process is forked before the benchmark starts any thread. It
// waits for a plan on a pipe, sends requests on a fixed schedule — light
// requests (8-process Jacobi, 10 iterations, 4 replications) at a fixed
// rate over up to nproc - 1 connections, heavy ones (64 processes, 100
// iterations, 16 replications) at a fixed rate on a connection of their
// own — and times each one from the instant it was due, so a stall delays
// every request scheduled behind it. It writes the latencies and a sample
// of replies back as one JSON line. The server process then checks the
// sampled replies byte for byte against pevpm::run_request on the same
// inputs.
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <memory>
#include <sstream>
#include <thread>

#include "checks.h"
#include "core/request.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/server.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

namespace {

// The offered rates are fixed, so they never move with the code. Each class
// offers about a quarter of the 2-thread pool, half the pool in all: enough
// that light requests queue behind heavy slices, far from saturation. The
// basis is each class's service time alone on the idle pool, as the traced
// run measures it (serve.service.predict_ms, .heavy_predict_ms) and prints
// as "offered load": 0.8-1.1 ms light and 133-157 ms heavy on the 4-vCPU
// 2.0 GHz VM of the README's baseline, so 250/s x 1.0 ms = 25 % and
// 2/s x 140 ms = 28 %.
constexpr double kLightRate = 250.0;  ///< light requests per second
constexpr double kHeavyRate = 2.0;    ///< heavy requests per second
constexpr int kLightProcs = 8;
constexpr int kLightIterations = 10;
constexpr int kLightReps = 4;
constexpr int kHeavyProcs = 64;
constexpr int kHeavyIterations = 100;
constexpr int kHeavyReps = 16;
constexpr int kModelVariants = 4;
/// One light request in this many carries a model text the cache has not
/// seen.
constexpr std::uint64_t kMissEvery = 50;
/// Replies checked against a local evaluation: every Nth of each class.
constexpr std::uint64_t kLightSampleEvery = 25;
constexpr std::uint64_t kHeavySampleEvery = 5;
/// Latency recorded for a refused, failed or lost request: it missed any
/// limit.
constexpr double kMissedMs = 1e6;
/// Index offset separating the requests of successive phases.
constexpr std::uint64_t kPhaseStride = 1u << 20;

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Everything that determines one request, derived from (seed, index).
struct RequestSpec {
  std::string model_text;
  int procs = 0;
  int reps = 0;
  std::uint64_t seed = 0;
};

RequestSpec spec_for(std::uint64_t seed, bool heavy, std::uint64_t index) {
  RequestSpec spec;
  const std::uint64_t h = mix(seed ^ mix(index * 2 + (heavy ? 1 : 0)));
  spec.seed = h >> 1;
  if (heavy) {
    spec.model_text = jacobi_model_text(kHeavyIterations);
    spec.procs = kHeavyProcs;
    spec.reps = kHeavyReps;
    return spec;
  }
  const int xsize = 256 - 64 * static_cast<int>(h % kModelVariants);
  spec.model_text = jacobi_model_text(kLightIterations, xsize);
  // A trailing plain comment leaves the model unchanged but makes the text
  // — the cache key — new.
  if ((h >> 8) % kMissEvery == 0) {
    spec.model_text += "// request " + std::to_string(seed) + "-" +
                       std::to_string(index) + "\n";
  }
  spec.procs = kLightProcs;
  spec.reps = kLightReps;
  return spec;
}

serve::Json frame_for(const RequestSpec& spec, const std::string& table) {
  serve::Json frame{serve::Json::Object{}};
  frame.set("type", serve::Json{"predict"});
  frame.set("model_text", serve::Json{spec.model_text});
  frame.set("table_text", serve::Json{table});
  serve::Json procs{serve::Json::Array{}};
  procs.as_array().emplace_back(spec.procs);
  frame.set("procs", std::move(procs));
  frame.set("reps", serve::Json{spec.reps});
  frame.set("seed", serve::Json{spec.seed});
  return frame;
}

/// The request the server builds from frame_for()'s frame (see
/// serve::Server::handle_predict), for evaluating it locally.
pevpm::PredictRequest local_request(const RequestSpec& spec,
                                    const std::string& table) {
  pevpm::PredictRequest request;
  request.model_text = spec.model_text;
  request.model_name = "model";
  request.table_text = table;
  request.table_label = "<inline>";
  request.procs = {spec.procs};
  request.options.replications = spec.reps;
  request.options.seed = spec.seed;
  return request;
}

// --- Pipe helpers --------------------------------------------------------

bool write_line(int fd, const std::string& text) {
  const std::string line = text + "\n";
  std::size_t done = 0;
  while (done < line.size()) {
    const ssize_t n = ::write(fd, line.data() + done, line.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads one line; false on end of file, error or (timeout_ms >= 0) when no
/// complete line arrived in time.
bool read_line(int fd, std::string& buffer, std::string& line, int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const std::size_t nl = buffer.find('\n');
    if (nl != std::string::npos) {
      line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      return true;
    }
    if (timeout_ms >= 0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - Clock::now())
                            .count();
      if (left <= 0) return false;
      pollfd p{fd, POLLIN, 0};
      const int ready = ::poll(&p, 1, static_cast<int>(left));
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) return false;
    }
    char chunk[65536];
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

serve::Json doubles(const std::vector<double>& xs) {
  serve::Json out{serve::Json::Array{}};
  for (const double x : xs) out.as_array().emplace_back(x);
  return out;
}

std::vector<double> doubles(const serve::Json* json) {
  std::vector<double> out;
  if (json == nullptr) return out;
  for (const serve::Json& x : json->as_array()) out.push_back(x.as_double());
  return out;
}

// --- The client process --------------------------------------------------

struct Item {
  bool heavy = false;
  std::uint64_t index = 0;
  double due_s = 0.0;
};

struct Outcome {
  double latency_ms = kMissedMs;  ///< from the due time
  double service_ms = 0.0;        ///< from the send
  double late_ms = 0.0;           ///< send - due
  double done_s = 0.0;            ///< reply time since the phase started
  bool ok = false;
  std::uint64_t digest = 0;       ///< of the reply summary
  std::string summary;            ///< kept for sampled requests only
};

bool sampled(const Item& item) {
  return item.index % (item.heavy ? kHeavySampleEvery : kLightSampleEvery) == 0;
}

/// Runs one open-loop phase as described by `plan` and returns the report
/// line for the parent.
std::string run_plan(const serve::Json& plan) {
  const std::string socket = plan.find("socket")->as_string();
  const std::string table = plan.find("table_text")->as_string();
  const std::uint64_t seed = plan.find("seed")->as_uint64();
  const double seconds = plan.find("seconds")->as_double();
  const std::uint64_t base = plan.find("phase")->as_uint64() * kPhaseStride;

  std::vector<Item> items;
  const auto light = static_cast<std::uint64_t>(seconds * kLightRate);
  const auto heavy = static_cast<std::uint64_t>(seconds * kHeavyRate);
  for (std::uint64_t i = 0; i < light; ++i) {
    items.push_back(Item{false, base + i, static_cast<double>(i) / kLightRate});
  }
  for (std::uint64_t j = 0; j < heavy; ++j) {
    items.push_back(
        Item{true, base + j, (static_cast<double>(j) + 0.5) / kHeavyRate});
  }
  std::vector<Outcome> outcomes(items.size());

  // Requests wait in two queues ordered by due time: heavy ones, served by
  // one connection, and light ones, taken by whichever of the other
  // connections is free. With a single CPU one connection serves both.
  const unsigned connections =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::vector<std::size_t> queues[2];
  for (std::size_t k = 0; k < items.size(); ++k) {
    queues[connections > 1 && !items[k].heavy ? 1 : 0].push_back(k);
  }
  for (auto& queue : queues) {
    std::stable_sort(queue.begin(), queue.end(),
                     [&](std::size_t a, std::size_t b) {
                       return items[a].due_s < items[b].due_s;
                     });
  }
  std::atomic<std::size_t> cursors[2] = {0, 0};

  std::vector<std::unique_ptr<serve::Client>> clients;
  for (unsigned c = 0; c < connections; ++c) {
    clients.push_back(
        std::make_unique<serve::Client>(serve::Client::connect_unix(socket)));
  }
  const auto t0 = Clock::now() + std::chrono::milliseconds(50);
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      const int q = c == 0 ? 0 : 1;
      for (;;) {
        const std::size_t at = cursors[q].fetch_add(1);
        if (at >= queues[q].size()) return;
        const std::size_t k = queues[q][at];
        const Item& item = items[k];
        const RequestSpec spec = spec_for(seed, item.heavy, item.index);
        const std::string line = frame_for(spec, table).dump();
        const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(item.due_s));
        std::this_thread::sleep_until(due);
        const auto sent = Clock::now();
        Outcome& out = outcomes[k];
        try {
          const serve::Json reply =
              serve::Json::parse(clients[c]->call_raw(line));
          const auto done = Clock::now();
          out.done_s = std::chrono::duration<double>(done - t0).count();
          const serve::Json* status = reply.find("status");
          const serve::Json* summary = reply.find("summary");
          out.ok = status != nullptr && status->as_int64() == 200 &&
                   summary != nullptr;
          if (out.ok) {
            Digest d;
            d.add(summary->as_string());
            out.digest = d.value();
            if (sampled(item)) out.summary = summary->as_string();
            out.latency_ms =
                std::chrono::duration<double, std::milli>(done - due).count();
            out.service_ms =
                std::chrono::duration<double, std::milli>(done - sent).count();
          }
        } catch (const std::exception&) {
          out.ok = false;  // transport error: counted as failed and missed
        }
        out.late_ms =
            std::chrono::duration<double, std::milli>(sent - due).count();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::vector<double> light_ms;
  std::vector<double> heavy_ms;
  std::vector<double> light_service_ms;
  std::vector<double> late_ms;
  std::uint64_t ok = 0;
  double elapsed_s = 0.0;
  Digest digest;
  serve::Json samples{serve::Json::Array{}};
  for (std::size_t k = 0; k < items.size(); ++k) {
    const Item& item = items[k];
    const Outcome& out = outcomes[k];
    (item.heavy ? heavy_ms : light_ms).push_back(out.latency_ms);
    late_ms.push_back(out.late_ms);
    digest.add(out.digest);
    if (!out.ok) continue;
    ++ok;
    elapsed_s = std::max(elapsed_s, out.done_s);
    if (!item.heavy) light_service_ms.push_back(out.service_ms);
    if (!out.summary.empty()) {
      serve::Json sample{serve::Json::Object{}};
      sample.set("heavy", serve::Json{item.heavy});
      sample.set("index", serve::Json{item.index});
      sample.set("summary", serve::Json{out.summary});
      samples.as_array().push_back(std::move(sample));
    }
  }
  serve::Json report{serve::Json::Object{}};
  report.set("sent", serve::Json{static_cast<std::uint64_t>(items.size())});
  report.set("ok", serve::Json{ok});
  report.set("elapsed_s", serve::Json{elapsed_s});
  report.set("light_ms", doubles(light_ms));
  report.set("heavy_ms", doubles(heavy_ms));
  report.set("light_service_ms", doubles(light_service_ms));
  report.set("late_ms", doubles(late_ms));
  report.set("digest", serve::Json{hex64(digest.value())});
  report.set("samples", std::move(samples));
  return report.dump();
}

[[noreturn]] void client_main(int plans, int reports) {
  std::string buffer;
  std::string line;
  int code = 0;
  while (read_line(plans, buffer, line, -1)) {
    std::string report;
    try {
      report = run_plan(serve::Json::parse(line));
    } catch (const std::exception& e) {
      serve::Json error{serve::Json::Object{}};
      error.set("error", serve::Json{e.what()});
      report = error.dump();
      code = 1;
    }
    if (!write_line(reports, report)) break;
  }
  ::close(plans);
  ::close(reports);
  std::fflush(nullptr);
  ::_exit(code);
}

struct Report {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  double elapsed_s = 0.0;  ///< phase start to the last reply
  double server_cpu_s = 0.0;  ///< CPU time of the server process in the phase
  std::vector<double> light_ms;  ///< from the due time, refused/failed at 1e6
  std::vector<double> heavy_ms;
  std::vector<double> light_service_ms;
  std::vector<double> late_ms;
  std::string digest;
  serve::Json samples{serve::Json::Array{}};
};

/// Sends one plan to the client and waits for its report.
Report run_phase(ClientProcess& client, const std::string& socket,
                 const std::string& table, std::uint64_t seed, double seconds,
                 std::uint64_t phase, std::string& buffer) {
  serve::Json plan{serve::Json::Object{}};
  plan.set("socket", serve::Json{socket});
  plan.set("table_text", serve::Json{table});
  plan.set("seed", serve::Json{seed});
  plan.set("seconds", serve::Json{seconds});
  plan.set("phase", serve::Json{phase});
  // While the client runs the plan this process only serves it, so its CPU
  // time is the server's.
  const Stopwatch watch;
  if (!write_line(client.to_child, plan.dump())) {
    throw std::runtime_error{"load client is gone"};
  }
  std::string line;
  const int timeout_ms = static_cast<int>(seconds * 1000) + 60000;
  if (!read_line(client.from_child, buffer, line, timeout_ms)) {
    throw std::runtime_error{"load client sent no report"};
  }
  const double server_cpu_s = watch.cpu_s();
  const serve::Json doc = serve::Json::parse(line);
  if (const serve::Json* error = doc.find("error")) {
    throw std::runtime_error{"load client failed: " + error->as_string()};
  }
  Report r;
  r.sent = doc.find("sent")->as_uint64();
  r.ok = doc.find("ok")->as_uint64();
  r.elapsed_s = doc.find("elapsed_s")->as_double();
  r.server_cpu_s = server_cpu_s;
  r.light_ms = doubles(doc.find("light_ms"));
  r.heavy_ms = doubles(doc.find("heavy_ms"));
  r.light_service_ms = doubles(doc.find("light_service_ms"));
  r.late_ms = doubles(doc.find("late_ms"));
  r.digest = doc.find("digest")->as_string();
  r.samples = *doc.find("samples");
  return r;
}

/// Counts the phase's requests and checks its sampled replies against a
/// local evaluation of the same request.
void check_report(const Report& report, const std::string& table,
                  std::uint64_t seed, Result& result) {
  result.attempted += report.sent;
  result.failed += report.sent - report.ok;
  if (report.ok != report.sent) {
    result.fail_check(std::to_string(report.sent - report.ok) + " of " +
                      std::to_string(report.sent) +
                      " requests were refused, failed or lost");
  }
  for (const serve::Json& sample : report.samples.as_array()) {
    const RequestSpec spec = spec_for(seed, sample.find("heavy")->as_bool(),
                                      sample.find("index")->as_uint64());
    const pevpm::PredictReport local =
        pevpm::run_request(local_request(spec, table));
    ++result.attempted;
    if (const std::string why =
            check_reply(sample.find("summary")->as_string(), local.summary);
        !why.empty()) {
      ++result.failed;
      result.fail_check(why);
    }
  }
}

/// A serve::Server on its own accept thread; shuts down, joins and removes
/// its socket file when destroyed.
class RunningServer {
 public:
  explicit RunningServer(const std::string& socket) : socket_{socket} {
    serve::ServerOptions options;
    options.unix_path = socket;
    options.service.threads = 2;
    server_ = std::make_unique<serve::Server>(options);
    thread_ = std::thread{[this] { server_->serve(); }};
  }
  ~RunningServer() {
    server_->shutdown();
    thread_.join();
    ::unlink(socket_.c_str());
  }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;

  [[nodiscard]] serve::Service& service() { return server_->service(); }

 private:
  std::string socket_;
  std::unique_ptr<serve::Server> server_;
  std::thread thread_;
};

/// One request per light model variant plus the heavy model, so the
/// measured phase starts with those artifacts parsed and cached.
void warm_cache(const std::string& socket, const std::string& table,
                std::uint64_t seed) {
  serve::Client client = serve::Client::connect_unix(socket);
  std::vector<RequestSpec> specs;
  for (int v = 0; v < kModelVariants; ++v) {
    RequestSpec spec;
    spec.model_text = jacobi_model_text(kLightIterations, 256 - 64 * v);
    spec.procs = kLightProcs;
    spec.reps = 1;
    spec.seed = seed;
    specs.push_back(spec);
  }
  RequestSpec heavy = spec_for(seed, true, 0);
  heavy.reps = 1;
  specs.push_back(heavy);
  for (const RequestSpec& spec : specs) {
    const serve::Json reply = client.call(frame_for(spec, table));
    const serve::Json* status = reply.find("status");
    if (status == nullptr || status->as_int64() != 200) {
      throw std::runtime_error{"cache warm-up request failed"};
    }
  }
}

}  // namespace

ClientProcess::~ClientProcess() {
  if (to_child >= 0) ::close(to_child);
  if (from_child >= 0) ::close(from_child);
  if (pid <= 0) return;
  for (int i = 0; i < 100; ++i) {
    if (::waitpid(pid, nullptr, WNOHANG) == pid) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
}

std::unique_ptr<ClientProcess> fork_client() {
  int plans[2];
  int reports[2];
  if (::pipe(plans) != 0) return nullptr;
  if (::pipe(reports) != 0) {
    ::close(plans[0]);
    ::close(plans[1]);
    return nullptr;
  }
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(plans[1]);
    ::close(reports[0]);
    client_main(plans[0], reports[1]);
  }
  ::close(plans[0]);
  ::close(reports[1]);
  auto client = std::make_unique<ClientProcess>();
  client->pid = pid;
  client->to_child = plans[1];
  client->from_child = reports[0];
  if (pid < 0) return nullptr;
  return client;
}

Result run_serve(const RunArgs& args, ClientProcess& client) {
  Result result;
  const std::string socket =
      "perfbench-" + std::to_string(::getpid()) + ".sock";
  std::string table;
  std::unique_ptr<RunningServer> server;
  // Set-up: measure the table, start the server and warm its cache.
  const SetupTimes setup = timed_setup([&] {
    server.reset();
    table = table_text(measure_jacobi_table(args.seed));
    server = std::make_unique<RunningServer>(socket);
    warm_cache(socket, table, args.seed);
  });

  std::string buffer;
  // Requests answered per wall second and per CPU second of the server.
  auto per_wall_s = [](const Report& r) {
    return r.elapsed_s > 0.0 ? static_cast<double>(r.ok) / r.elapsed_s : 0.0;
  };
  auto per_cpu_s = [](const Report& r) {
    return static_cast<double>(r.ok) / r.server_cpu_s;
  };
  if (!args.trace) {
    const Report report =
        run_phase(client, socket, table, args.seed, args.seconds, 0, buffer);
    server.reset();
    check_report(report, table, args.seed, result);
    report_end_to_end(result, setup, {per_cpu_s(report)}, peak_rss_mb());
    report_wall(result, {per_wall_s(report)}, report.light_ms, false);
    result.info.push_back("requests: " + std::to_string(report.sent));
    result.info.push_back("heavy_p50_ms: " +
                          std::to_string(median_of(report.heavy_ms)));
    result.info.push_back("loadgen_late_p99_ms: " +
                          std::to_string(quantile_of(report.late_ms, 0.99)));
    result.info.push_back("digest: " + report.digest);
    return result;
  }

  zero_per_layer(result);
  const Report plain =
      run_phase(client, socket, table, args.seed, args.seconds / 2, 0, buffer);
  spans::enable(true);
  spans::count_allocations(true);
  const Report traced =
      run_phase(client, socket, table, args.seed, args.seconds / 2, 1, buffer);
  // Service::predict in-process, one request at a time on the idle pool:
  // each class's service time without the socket and JSON around it, and
  // with the fixed rates, the share of the pool the open loop offers.
  auto service_ms = [&](bool heavy, std::uint64_t count) {
    std::vector<double> ms;
    for (std::uint64_t i = 0; i < count; ++i) {
      const RequestSpec spec = spec_for(args.seed, heavy, 2 * kPhaseStride + i);
      const pevpm::PredictRequest request = local_request(spec, table);
      const auto t0 = Clock::now();
      const spans::Span span{heavy ? "serve.service.predict_heavy"
                                   : "serve.service.predict",
                             i};
      const serve::Service::Response response =
          server->service().predict(request);
      ms.push_back(seconds_since(t0) * 1e3);
      ++result.attempted;
      if (response.status != 200) {
        ++result.failed;
        result.fail_check("in-process predict answered " +
                          std::to_string(response.status));
      }
    }
    return median_of(std::move(ms));
  };
  const double light_service_ms = service_ms(false, 50);
  const double heavy_service_ms = service_ms(true, 5);
  spans::count_allocations(false);
  spans::enable(false);
  result.info.push_back(
      "offered load: light " + std::to_string(kLightRate * light_service_ms / 10) +
      " %, heavy " + std::to_string(kHeavyRate * heavy_service_ms / 10) +
      " % of the pool");
  const serve::ServiceStats stats = server->service().stats();
  server.reset();
  check_report(plain, table, args.seed, result);
  check_report(traced, table, args.seed, result);

  report_wall(result, {per_wall_s(plain)}, plain.light_ms, true);
  result.set("trace.overhead_pct",
             100.0 * (per_cpu_s(plain) / per_cpu_s(traced) - 1), "%");
  result.set("serve.heavy_p50_ms", median_of(traced.heavy_ms), "ms");
  result.set("loadgen.late_p99_ms", quantile_of(traced.late_ms, 0.99), "ms");
  result.set("serve.service.predict_ms", light_service_ms, "ms");
  result.set("serve.service.heavy_predict_ms", heavy_service_ms, "ms");
  result.set("serve.protocol_ms",
             median_of(traced.light_service_ms) - light_service_ms, "ms");
  result.set("serve.queue_wait_p50_ms", stats.queue_wait.median * 1e3, "ms");
  result.set("serve.queue_wait_p99_ms", stats.queue_wait.p99 * 1e3, "ms");
  const double lookups =
      static_cast<double>(stats.cache.hits + stats.cache.misses);
  result.set("serve.cache.hit_ratio",
             lookups > 0 ? static_cast<double>(stats.cache.hits) / lookups : 0.0,
             "ratio");
  result.set("serve.rejected", static_cast<double>(stats.rejected), "count");
  result.set("serve.deadline_expired",
             static_cast<double>(stats.deadline_expired), "count");

  std::istringstream is{table};
  const mpibench::DistributionTable loaded = mpibench::DistributionTable::load(is);
  run_probes(ProbeInputs{&loaded, table, jacobi_model_text(kHeavyIterations)},
             result);
  return result;
}

}  // namespace perfbench
