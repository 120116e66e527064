// Integration tests for the pevpmd prediction service: byte-identity with
// the CLI code path (directly and over a real socket, including under
// concurrency), bounded-queue admission control, deadlines, and
// drain-on-shutdown.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/request.h"
#include "mpibench/benchmark.h"
#include "scaling/model.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/server.h"
#include "serve/service.h"

namespace {

std::string table_text() {
  static const std::string cached = [] {
    mpibench::Options opt;
    opt.cluster = net::perseus(4);
    opt.repetitions = 40;
    opt.warmup = 8;
    opt.seed = 777;
    const std::vector<net::Bytes> sizes{net::Bytes{1024}};
    const std::vector<mpibench::Config> configs{{2, 1}, {4, 1}};
    std::ostringstream out;
    mpibench::measure_isend_table(opt, sizes, configs).save(out);
    return out.str();
  }();
  return cached;
}

std::string chain_model_text() {
  return R"(param serial = 0.004
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

pevpm::PredictRequest chain_request(std::uint64_t seed) {
  pevpm::PredictRequest request;
  request.model_text = chain_model_text();
  request.model_name = "chain";
  request.table_text = table_text();
  request.table_label = "chain.tbl";
  request.procs = {2, 4};
  request.options.replications = 3;
  request.options.seed = seed;
  request.losses = true;
  return request;
}

TEST(ServeService, PredictionMatchesCliCodePathByteForByte) {
  const pevpm::PredictRequest request = chain_request(11);
  const pevpm::PredictReport reference = pevpm::run_request(request);

  serve::ServiceOptions options;
  options.threads = 3;  // deliberately odd: must be unobservable
  serve::Service service{options};
  const serve::Service::Response response = service.predict(request);
  ASSERT_EQ(response.status, 200) << response.error;
  EXPECT_EQ(response.summary, reference.summary);
  EXPECT_EQ(response.deadlocked, reference.deadlocked);

  // Same request again: served from the artifact cache, same bytes.
  const serve::Service::Response again = service.predict(request);
  ASSERT_EQ(again.status, 200);
  EXPECT_EQ(again.summary, reference.summary);
  EXPECT_GE(service.stats().cache.hits, 2u);
}

TEST(ServeService, ExtrapolateRequestMatchesCliAndCountsCacheTraffic) {
  pevpm::PredictRequest request = chain_request(13);
  request.procs = {4, 8};  // 8 pushes contention past the measured levels
  request.extrapolate = true;
  const pevpm::PredictReport reference = pevpm::run_request(request);

  serve::ServiceOptions options;
  options.threads = 3;
  serve::Service service{options};
  const serve::Service::Response response = service.predict(request);
  ASSERT_EQ(response.status, 200) << response.error;
  EXPECT_EQ(response.summary, reference.summary);

  // First request fits the model (one scaling-cache miss); the repeat hits.
  serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.extrapolations, 1u);
  EXPECT_EQ(stats.scaling_cache.misses, 1u);
  EXPECT_EQ(stats.scaling_cache.hits, 0u);
  const serve::Service::Response again = service.predict(request);
  ASSERT_EQ(again.status, 200);
  EXPECT_EQ(again.summary, reference.summary);
  stats = service.stats();
  EXPECT_EQ(stats.extrapolations, 2u);
  EXPECT_EQ(stats.scaling_cache.misses, 1u);
  EXPECT_EQ(stats.scaling_cache.hits, 1u);

  // A shipped pre-fitted artifact answers with the same bytes, keyed by
  // its own text (a fresh cache miss, not a hit on the table-keyed fit).
  std::istringstream table_in{request.table_text};
  const auto table = mpibench::DistributionTable::load(table_in);
  std::ostringstream artifact;
  scaling::fit_scaling_model(table).save(artifact);
  request.scaling_text = artifact.str();
  const serve::Service::Response shipped = service.predict(request);
  ASSERT_EQ(shipped.status, 200) << shipped.error;
  EXPECT_EQ(shipped.summary, reference.summary);
  stats = service.stats();
  EXPECT_EQ(stats.extrapolations, 3u);
  EXPECT_EQ(stats.scaling_cache.misses, 2u);

  // A non-extrapolating request leaves the counters alone.
  pevpm::PredictRequest plain = chain_request(13);
  ASSERT_EQ(service.predict(plain).status, 200);
  EXPECT_EQ(service.stats().extrapolations, 3u);
}

TEST(ServeService, MalformedScalingArtifactAnswers400) {
  pevpm::PredictRequest request = chain_request(17);
  request.scaling_text = "pevpm-scaling v1\n1 16\ntruncated\n";
  request.extrapolate = true;
  serve::Service service{serve::ServiceOptions{}};
  const serve::Service::Response response = service.predict(request);
  EXPECT_EQ(response.status, 400);
  EXPECT_EQ(service.stats().bad_requests, 1u);
}

TEST(ServeService, OversizedRequestsAnswer400BeforeAnythingIsSized) {
  serve::Service service{serve::ServiceOptions{}};
  pevpm::PredictRequest huge_procs = chain_request(23);
  huge_procs.procs = {4, 2000000000};
  serve::Service::Response response = service.predict(huge_procs);
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.error.find("limit of 65536"), std::string::npos)
      << response.error;
  pevpm::PredictRequest huge_reps = chain_request(23);
  huge_reps.options.replications = 2000000000;
  response = service.predict(huge_reps);
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.error.find("limit of 1048576"), std::string::npos)
      << response.error;
  EXPECT_EQ(service.stats().bad_requests, 2u);
  EXPECT_EQ(service.stats().accepted, 0u);
  EXPECT_EQ(service.predict(chain_request(23)).status, 200);
}

TEST(ServeService, NonFiniteScalingPredictionAnswers400AndKeepsServing) {
  pevpm::PredictRequest request = chain_request(19);
  request.procs = {4, 8};  // 8 pushes contention past the measured levels
  // Every track is 1e308 * log2(s + 1): infinite anywhere off the grid.
  request.scaling_text = "pevpm-scaling v1\n1 16\n0\n";
  for (int t = 0; t < scaling::ScalingModel::kTracks; ++t) {
    request.scaling_text += "0 1e308 0 1 0 0\n";
  }
  request.extrapolate = true;
  serve::Service service{serve::ServiceOptions{}};
  const serve::Service::Response response = service.predict(request);
  EXPECT_EQ(response.status, 400) << response.error;
  EXPECT_NE(response.error.find("ptp_oneway"), std::string::npos)
      << response.error;
  const serve::Service::Response next = service.predict(chain_request(19));
  EXPECT_EQ(next.status, 200) << next.error;
}

TEST(ServeService, ConcurrentSocketClientsMatchCliBytes) {
  const std::string socket_path =
      "serve_svc_" + std::to_string(::getpid()) + ".sock";
  serve::ServerOptions options;
  options.unix_path = socket_path;
  options.service.threads = 4;
  serve::Server server{options};
  std::thread accept_thread{[&] { server.serve(); }};

  // Distinct seeds give distinct (but each reproducible) answers; each
  // socket reply must equal the CLI code path run with the same seed.
  constexpr int kClients = 8;
  std::vector<std::string> expected(kClients);
  std::vector<std::string> got(kClients);
  // char, not bool: vector<bool> packs bits and concurrent writes to
  // neighbouring elements would race.
  std::vector<char> ok(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    expected[c] = pevpm::run_request(chain_request(100 + c)).summary;
  }
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      serve::Client client = serve::Client::connect_unix(socket_path);
      const serve::Json response =
          client.call(serve::predict_frame(chain_request(100 + c)));
      if (const serve::Json* status = response.find("status");
          status != nullptr && status->as_int64() == 200) {
        got[c] = response.find("summary")->as_string();
        ok[c] = 1;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    ASSERT_TRUE(ok[c]) << "client " << c;
    EXPECT_EQ(got[c], expected[c]) << "client " << c;
  }

  server.shutdown();
  accept_thread.join();
  ::unlink(socket_path.c_str());
}

TEST(ServeService, BoundedQueueRejectsWithRetryAfterInsteadOfBlocking) {
  serve::ServiceOptions options;
  options.threads = 1;
  options.queue_capacity = 1;
  serve::Service service{options};

  // Occupy the single queue slot with a long request...
  pevpm::PredictRequest slow = chain_request(5);
  // Enough replications that the occupant is still mid-run when the probe
  // below is admitted — 64 was only ~1 ms of work, losing the race on a
  // loaded box.
  slow.options.replications = 8192;
  std::thread occupant{[&] {
    const auto response = service.predict(slow);
    EXPECT_EQ(response.status, 200) << response.error;
  }};
  // Wait on the monotone counter — occupancy itself could be missed if a
  // scheduler stall let the job finish between polls.
  while (service.stats().accepted == 0) {
    std::this_thread::yield();
  }

  // ...then a second submission must bounce immediately with a hint, not
  // wait for the slot.
  const auto start = std::chrono::steady_clock::now();
  const auto rejected = service.predict(chain_request(6));
  const double waited_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(rejected.status, 503);
  EXPECT_GT(rejected.retry_after.to_millis(), 0.0);
  // "Immediately" leaves slack for a slow CI box; the occupant runs for
  // far longer than this.
  EXPECT_LT(waited_ms, 1000.0);
  occupant.join();
  EXPECT_EQ(service.stats().rejected, 1u);
  EXPECT_EQ(service.stats().completed, 1u);
}

TEST(ServeService, RoundRobinLetsASmallRequestOvertakeALargeOne) {
  serve::ServiceOptions options;
  options.threads = 1;  // one worker: only the pick order decides
  serve::Service service{options};

  pevpm::PredictRequest large = chain_request(41);
  large.options.replications = 2000;
  pevpm::PredictRequest small = chain_request(42);
  small.options.replications = 2;
  const std::string large_expected = pevpm::run_request(large).summary;
  const std::string small_expected = pevpm::run_request(small).summary;

  std::atomic<int> finish_order{0};
  int large_rank = -1;
  int small_rank = -1;
  serve::Service::Response large_response;
  serve::Service::Response small_response;
  std::thread large_thread{[&] {
    large_response = service.predict(large);
    large_rank = finish_order++;
  }};
  // The large job has started its first slice before the small one is
  // admitted, so a FIFO or one-job-at-a-time scheduler would finish it
  // first. (Checking `completed` too turns a poller stalled past the
  // whole large job into a failure below rather than a hang.)
  for (;;) {
    const serve::ServiceStats stats = service.stats();
    if (stats.in_flight > 0 || stats.completed > 0) break;
    std::this_thread::yield();
  }
  std::thread small_thread{[&] {
    small_response = service.predict(small);
    small_rank = finish_order++;
  }};
  small_thread.join();
  large_thread.join();

  EXPECT_EQ(small_rank, 0);
  EXPECT_EQ(large_rank, 1);
  ASSERT_EQ(small_response.status, 200) << small_response.error;
  ASSERT_EQ(large_response.status, 200) << large_response.error;
  EXPECT_EQ(small_response.summary, small_expected);
  EXPECT_EQ(large_response.summary, large_expected);
}

TEST(ServeService, ExpiredDeadlineAnswers504) {
  serve::ServiceOptions options;
  options.threads = 1;
  serve::Service service{options};
  // A deadline of one nanosecond has always passed by the time a worker
  // scans the job, whatever the scheduler does.
  const auto response =
      service.predict(chain_request(7), units::Duration::from_millis(1e-6));
  EXPECT_EQ(response.status, 504);
  EXPECT_EQ(service.stats().deadline_expired, 1u);
}

TEST(ServeService, RequestThreadCountIsIgnored) {
  pevpm::PredictRequest request = chain_request(13);
  const std::string reference = pevpm::run_request(request).summary;
  request.options.threads = 7;  // a client may send anything
  serve::ServiceOptions options;
  options.threads = 2;
  serve::Service service{options};
  const auto response = service.predict(request);
  ASSERT_EQ(response.status, 200);
  EXPECT_EQ(response.summary, reference);
}

TEST(ServeService, DrainAnswersInFlightThenRejectsNewWork) {
  serve::ServiceOptions options;
  options.threads = 2;
  serve::Service service{options};

  pevpm::PredictRequest slow = chain_request(21);
  slow.options.replications = 32;
  std::atomic<int> slow_status{0};
  std::thread in_flight{[&] {
    slow_status = service.predict(slow).status;
  }};
  while (service.stats().accepted == 0) {
    std::this_thread::yield();
  }

  service.drain();  // must block until the in-flight request answered
  // completed is published under the service lock before the job leaves
  // the queue, so drain() returning proves the request finished...
  EXPECT_EQ(service.stats().completed, 1u);
  // ...but the caller thread's status store happens after predict()
  // returns, so it can only be read after the join.
  in_flight.join();
  EXPECT_EQ(slow_status.load(), 200);

  const auto rejected = service.predict(chain_request(22));
  EXPECT_EQ(rejected.status, 503);
  EXPECT_NE(rejected.error.find("draining"), std::string::npos);
}

TEST(ServeService, ServerShutdownStillAnswersAdmittedRequests) {
  const std::string socket_path =
      "serve_drain_" + std::to_string(::getpid()) + ".sock";
  serve::ServerOptions options;
  options.unix_path = socket_path;
  options.service.threads = 2;
  serve::Server server{options};
  std::thread accept_thread{[&] { server.serve(); }};

  pevpm::PredictRequest slow = chain_request(31);
  slow.options.replications = 32;
  const std::string expected = pevpm::run_request(slow).summary;

  std::string got;
  std::atomic<bool> answered{false};
  std::thread client_thread{[&] {
    serve::Client client = serve::Client::connect_unix(socket_path);
    const serve::Json response = client.call(serve::predict_frame(slow));
    if (const serve::Json* status = response.find("status");
        status != nullptr && status->as_int64() == 200) {
      got = response.find("summary")->as_string();
      answered = true;
    }
  }};
  while (server.service().stats().accepted == 0) {
    std::this_thread::yield();
  }

  server.request_shutdown();  // the SIGTERM path
  accept_thread.join();       // serve() drains and joins the handlers
  client_thread.join();
  ASSERT_TRUE(answered.load());
  EXPECT_EQ(got, expected);
  ::unlink(socket_path.c_str());
}

}  // namespace
