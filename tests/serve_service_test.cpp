// Integration tests for the pevpmd prediction service: byte-identity with
// the CLI code path (directly and over a real socket, including under
// concurrency, and with sampler cells shared through the artifact cache),
// bounded-queue admission control, deadlines, and drain-on-shutdown.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/predict.h"
#include "core/request.h"
#include "core/vm.h"
#include "mpibench/benchmark.h"
#include "mpibench/table.h"
#include "scaling/model.h"
#include "serve/client.h"
#include "serve/cache.h"
#include "serve/json.h"
#include "serve/server.h"
#include "serve/service.h"
#include "stats/empirical.h"
#include "stats/histogram.h"
#include "trace/trace.h"

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

TEST(ServeService, EachSliceIsOneBatchAndRepliesMatchTheCli) {
  // 17 replications make uneven batches: 16 + 1 on one worker, 9 + 8 on
  // two, 6 + 6 + 5 on three.
  pevpm::PredictRequest request = chain_request(37);
  request.options.replications = 17;
  const pevpm::PredictReport reference = pevpm::run_request(request);
  for (const int workers : {1, 2, 3}) {
    trace::Tracer tracer;
    tracer.enable();
    serve::ServiceOptions options;
    options.threads = workers;
    options.tracer = &tracer;
    serve::Service service{options};
    const serve::Service::Response response = service.predict(request);
    ASSERT_EQ(response.status, 200) << response.error;
    EXPECT_EQ(response.summary, reference.summary) << workers << " workers";
    EXPECT_EQ(response.deadlocked, reference.deadlocked);
    // predict() returns after the job's completion record, which the
    // service lock orders after every slice's records.
    const int lanes = pevpm::batch_lanes(17, static_cast<unsigned>(workers));
    const auto batches = static_cast<std::size_t>((17 + lanes - 1) / lanes);
    const std::string slices = std::to_string(request.procs.size() * batches);
    const std::string done = " slices=" + slices + "/" + slices;
    int completions = 0;
    for (const trace::Record& record : tracer.records()) {
      if (record.category != trace::Category::kServe ||
          record.detail.rfind("request completed", 0) != 0) {
        continue;
      }
      ++completions;
      EXPECT_NE(record.detail.find(done), std::string::npos)
          << record.detail << " at " << workers << " workers";
    }
    EXPECT_EQ(completions, 1);
    // A batch still records one event per replication.
    EXPECT_EQ(tracer.count(trace::Category::kPevpm),
              request.procs.size() * 17u);
  }
}

TEST(ServeService, MidBatchModelErrorAnswers400WithTheLocalText) {
  // Every lane of every batch reaches the negative size after the ten
  // loop iterations of messages.
  pevpm::PredictRequest request = chain_request(47);
  request.model_text = chain_model_text() +
                       "runon procnum == 0 {\n"
                       "  message send size = 0 - 1 to = 1\n"
                       "}\n";
  request.options.replications = 17;
  std::string local_error;
  try {
    static_cast<void>(pevpm::run_request(request));
  } catch (const pevpm::ModelError& error) {
    local_error = error.what();
  }
  ASSERT_NE(local_error.find("negative size"), std::string::npos)
      << local_error;
  for (const int workers : {1, 2, 3}) {
    serve::ServiceOptions options;
    options.threads = workers;
    serve::Service service{options};
    const serve::Service::Response response = service.predict(request);
    EXPECT_EQ(response.status, 400);
    EXPECT_EQ(response.error, local_error) << workers << " workers";
    EXPECT_EQ(service.stats().failed, 1u);
    EXPECT_EQ(service.predict(chain_request(47)).status, 200);
  }
}

/// A request whose replications fail or pass by their sampled times, with
/// an error text that depends on where each one fails. Six ranks: 0, 1 and
/// 2 send 64 KiB, 1 KiB and 64 B to 4, 3 and 5 (contention 1, 2 and 3 at
/// the sends). The send cost comes only from a scaling law, 1e300 * s *
/// p^12, finite at every send and infinite for the cost of draining a
/// message that is already there: 1 KiB at contention 3 (rank 3, when its
/// 100 us of serial work outlast the delivery) and 64 KiB at contention 2
/// (rank 4, after 400 us).
pevpm::PredictRequest lane_dependent_failure_request(std::uint64_t seed) {
  scaling::ScalingModel law;
  scaling::ScalingModel::Series series;
  for (scaling::NormalForm& track : series.tracks) {
    track.coefficient = 1e300;
    track.size = scaling::AxisTerm{1.0, 0};
    track.procs = scaling::AxisTerm{12.0, 0};
  }
  law.set_series(mpibench::OpKind::kPtpSender, series);
  mpibench::DistributionTable table;
  for (const int level : {1, 2, 3}) {
    stats::Histogram oneway{1e-6};
    for (int i = 0; i < 40; ++i) oneway.add((60.0 + i * 37 % 80) * 1e-6);
    const stats::EmpiricalDistribution small{oneway};
    table.insert(mpibench::OpKind::kPtpOneWay, net::Bytes{64}, level, small);
    table.insert(mpibench::OpKind::kPtpOneWay, net::Bytes{1024}, level,
                 small);
    table.insert(mpibench::OpKind::kPtpOneWay, net::Bytes{65536}, level,
                 small.scaled(4.0));
  }
  pevpm::PredictRequest request;
  request.model_text = R"(runon procnum == 0 {
  message send size = 65536 to = 4
}
runon procnum == 1 {
  message send size = 1024 to = 3
}
runon procnum == 2 {
  message send size = 64 to = 5
}
runon procnum == 3 {
  serial time = 0.0001
  message recv size = 1024 from = 1
}
runon procnum == 4 {
  serial time = 0.0004
  message recv size = 65536 from = 0
}
runon procnum == 5 {
  message recv size = 64 from = 2
}
)";
  request.model_name = "late";
  std::ostringstream table_out;
  table.save(table_out);
  request.table_text = table_out.str();
  std::ostringstream law_out;
  law.save(law_out);
  request.scaling_text = law_out.str();
  request.extrapolate = true;
  request.procs = {6};
  request.options.replications = 17;
  request.options.seed = seed;
  return request;
}

TEST(ServeService, FailedRequestReportsItsLowestFailingReplication) {
  // At seed 21 replication 1 is the first to fail, at 64 KiB, while 7, 9
  // and 12, the first failing lanes of later batches at 2 and 3 workers,
  // fail at 1 KiB; 9 and 12 start their batches and end them at once,
  // long before the first batch has run its every lane.
  const pevpm::PredictRequest request = lane_dependent_failure_request(21);
  // Each replication alone, in order: the first error is the serial run's.
  const pevpm::Model model = pevpm::parse_request_model(request);
  std::istringstream table_in{request.table_text};
  const auto table = mpibench::DistributionTable::load(table_in);
  std::istringstream law_in{request.scaling_text};
  const auto law = scaling::ScalingModel::load(law_in);
  pevpm::PredictOptions options = request.options;
  options.sampler.scaling = &law;
  const std::vector<std::uint64_t> seeds = pevpm::replication_seeds(options);
  std::vector<std::string> errors;
  std::string first_error;
  for (int rep = 0; rep < 17; ++rep) {
    try {
      static_cast<void>(pevpm::run_replication(
          model, 6, {}, table, options, rep,
          seeds[static_cast<std::size_t>(rep)]));
    } catch (const pevpm::ModelError& error) {
      errors.emplace_back(error.what());
      if (first_error.empty()) first_error = error.what();
    }
  }
  // Both failure sites occur, and a later replication fails with another
  // text than the first one, so any other choice of error shows.
  ASSERT_FALSE(first_error.empty());
  bool other_text = false;
  for (const std::string& error : errors) {
    other_text = other_text || error != first_error;
  }
  ASSERT_TRUE(other_text) << first_error;
  ASSERT_LT(errors.size(), 17u) << "some replications must pass";

  std::string local_error;
  try {
    static_cast<void>(pevpm::run_request(request));
  } catch (const pevpm::ModelError& error) {
    local_error = error.what();
  }
  EXPECT_EQ(local_error, first_error);
  for (const int workers : {1, 2, 3}) {
    serve::ServiceOptions service_options;
    service_options.threads = workers;
    serve::Service service{service_options};
    for (int round = 0; round < 3; ++round) {
      const serve::Service::Response response = service.predict(request);
      EXPECT_EQ(response.status, 400);
      EXPECT_EQ(response.error, first_error) << workers << " workers";
    }
  }
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

TEST(ServeService, RunawayModelAnswers400AndKeepsServing) {
  // Without the step budget this slice would never end.
  pevpm::PredictRequest request = chain_request(29);
  request.model_text = "loop 1000000000000000000 {\n  serial time = 1e-9\n}\n";
  request.procs = {2};
  request.options.replications = 1;
  serve::Service service{serve::ServiceOptions{}};
  const serve::Service::Response response = service.predict(request);
  EXPECT_EQ(response.status, 400) << response.error;
  EXPECT_NE(response.error.find("budget of " +
                                std::to_string(pevpm::kMaxDirectiveSteps) +
                                " directive steps"),
            std::string::npos)
      << response.error;
  const serve::Service::Response next = service.predict(chain_request(29));
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

/// Runs every request on its own thread against one service and checks
/// each reply against the CLI code path.
void expect_concurrent_replies_match_cli(
    serve::Service& service, const std::vector<pevpm::PredictRequest>& requests) {
  std::vector<std::string> expected;
  for (const pevpm::PredictRequest& request : requests) {
    expected.push_back(pevpm::run_request(request).summary);
  }
  std::vector<serve::Service::Response> got(requests.size());
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    clients.emplace_back([&, i] { got[i] = service.predict(requests[i]); });
  }
  for (std::thread& t : clients) t.join();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(got[i].status, 200) << i << ": " << got[i].error;
    EXPECT_EQ(got[i].summary, expected[i]) << "request " << i;
  }
}

TEST(ServeService, JobsShareOneCellSetAcrossModesAndContention) {
  // Cells depend on the table and scaling model only, so jobs in every
  // mode and contention source draw from one set, at the same time.
  std::vector<pevpm::PredictRequest> requests;
  for (const auto mode :
       {pevpm::PredictionMode::kDistribution, pevpm::PredictionMode::kAverage,
        pevpm::PredictionMode::kMinimum}) {
    for (const int fixed : {0, 3, 6}) {
      pevpm::PredictRequest request = chain_request(200 + requests.size());
      request.options.replications = 9;
      request.options.sampler.mode = mode;
      if (fixed > 0) {
        request.options.sampler.contention = pevpm::ContentionSource::kFixed;
        request.options.sampler.fixed_contention = fixed;
      }
      requests.push_back(std::move(request));
    }
  }
  serve::ServiceOptions options;
  options.threads = 2;
  serve::Service service{options};
  expect_concurrent_replies_match_cli(service, requests);
  const serve::CellStats cells = service.stats().cells;
  EXPECT_EQ(cells.sets, 1u);
  EXPECT_GT(cells.resolved, 0u);
  EXPECT_EQ(cells.resolutions, cells.resolved);
}

TEST(ServeService, ExtrapolatingAndShippedScalingShareTheTable) {
  pevpm::PredictRequest fitted = chain_request(41);
  fitted.procs = {4, 8};  // 8 pushes contention past the measured levels
  fitted.extrapolate = true;
  pevpm::PredictRequest shipped = fitted;
  std::istringstream table_in{shipped.table_text};
  std::ostringstream artifact;
  scaling::fit_scaling_model(mpibench::DistributionTable::load(table_in))
      .save(artifact);
  shipped.scaling_text = artifact.str();
  shipped.options.seed = 42;
  pevpm::PredictRequest plain = chain_request(43);
  plain.procs = {4, 8};

  serve::ServiceOptions options;
  options.threads = 3;
  serve::Service service{options};
  for (int round = 0; round < 2; ++round) {
    expect_concurrent_replies_match_cli(service,
                                        {fitted, shipped, plain, fitted});
  }
  // One set per scaling model on the table: the fit, the artifact, none.
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cells.sets, 3u);
  EXPECT_EQ(stats.cells.resolutions, stats.cells.resolved);
  EXPECT_EQ(stats.extrapolations, 6u);
}

TEST(ServeService, RequestAfterTheTableWasEvictedWhileAJobHeldItsCells) {
  // One worker and room for two artifacts: a request on another table
  // evicts the long job's table (and its cell set) while the job still
  // runs on those cells, and a later request loads the table again.
  serve::ServiceOptions options;
  options.threads = 1;
  options.cache_capacity = 2;
  serve::Service service{options};
  pevpm::PredictRequest held = chain_request(51);
  held.procs = {16};
  held.options.replications = 10000;
  pevpm::PredictRequest evicting = chain_request(52);
  evicting.table_text = table_text() + "\n";  // another key, same table
  const pevpm::PredictRequest again = chain_request(53);
  const std::string held_expected = pevpm::run_request(held).summary;
  const std::string evicting_expected = pevpm::run_request(evicting).summary;
  const std::string again_expected = pevpm::run_request(again).summary;

  serve::Service::Response held_reply;
  std::thread held_client{[&] { held_reply = service.predict(held); }};
  while (service.stats().accepted == 0) std::this_thread::yield();
  const serve::Service::Response evicting_reply = service.predict(evicting);
  ASSERT_EQ(evicting_reply.status, 200) << evicting_reply.error;
  EXPECT_EQ(evicting_reply.summary, evicting_expected);
  EXPECT_EQ(service.stats().cache.evictions, 1u);
  const serve::Service::Response again_reply = service.predict(again);
  ASSERT_EQ(again_reply.status, 200) << again_reply.error;
  EXPECT_EQ(again_reply.summary, again_expected);
  // The long job still runs on the evicted set; the one resident set is
  // the reloaded table's (the other table's went with its entry).
  serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.cache.evictions, 2u);
  EXPECT_EQ(stats.cells.sets, 1u);
  held_client.join();
  ASSERT_EQ(held_reply.status, 200) << held_reply.error;
  EXPECT_EQ(held_reply.summary, held_expected);
  // The let-go sets' resolutions still count.
  stats = service.stats();
  EXPECT_GT(stats.cells.resolutions, stats.cells.resolved);
}

TEST(ServeService, ManyMessageSizesReplaceTheCellSetAtItsCap) {
  // Every request asks for 100 sizes no earlier request used, so a set
  // kept for the table's life would grow without bound. Each request
  // resolves the same number of keys, K; a job that finds its set at the
  // cap gets a fresh one, so the resident set never holds more than the
  // cap plus what one job adds to it.
  const std::string model = R"(param base = 1
loop 100 as it {
  runon procnum == 0 {
    message send size = base + it to = 1
  } else {
    message recv size = base + it from = 0
  }
}
)";
  serve::ServiceOptions options;
  options.threads = 2;
  serve::Service service{options};
  const auto request_for = [&](int i) {
    pevpm::PredictRequest request = chain_request(60);
    request.model_text = model;
    request.procs = {2};
    request.options.replications = 1;
    request.options.sampler.mode = pevpm::PredictionMode::kAverage;
    request.options.sampler.contention = pevpm::ContentionSource::kFixed;
    request.options.sampler.fixed_contention = 2;
    request.overrides = {{"base", 2000.0 + 100.0 * i}};
    return request;
  };
  std::uint64_t keys = 0;
  std::uint64_t before = 0;
  bool replaced = false;
  for (int i = 0; i * keys <= 2 * serve::kMaxCellSetDistributions; ++i) {
    const pevpm::PredictRequest request = request_for(i);
    const serve::Service::Response reply = service.predict(request);
    ASSERT_EQ(reply.status, 200) << reply.error;
    EXPECT_EQ(reply.summary, pevpm::run_request(request).summary) << i;
    const serve::CellStats cells = service.stats().cells;
    if (i == 0) keys = cells.resolutions;
    ASSERT_GT(keys, 0u);
    EXPECT_EQ(cells.resolutions - before, keys) << i;
    before = cells.resolutions;
    EXPECT_EQ(cells.sets, 1u);
    EXPECT_LT(cells.resolved, serve::kMaxCellSetDistributions + keys) << i;
    if (cells.resolved < cells.resolutions) replaced = true;
  }
  EXPECT_TRUE(replaced);
}

TEST(ServeService, RepeatedRequestResolvesNoNewDistributions) {
  serve::ServiceOptions options;
  options.threads = 2;
  serve::Service service{options};
  const pevpm::PredictRequest request = chain_request(71);
  ASSERT_EQ(service.predict(request).status, 200);
  const serve::CellStats first = service.stats().cells;
  EXPECT_GT(first.resolutions, 0u);
  const serve::Service::Response again = service.predict(request);
  ASSERT_EQ(again.status, 200) << again.error;
  EXPECT_EQ(again.summary, pevpm::run_request(request).summary);
  const serve::CellStats second = service.stats().cells;
  EXPECT_EQ(second.resolutions, first.resolutions);
  EXPECT_EQ(second.resolved, first.resolved);
  EXPECT_EQ(second.sets, 1u);
}

TEST(ServeService, ModelStateOverTheLimitAnswers400) {
  // 2000 receives no process takes still size 2000 loss slots and their
  // operands per process: far past the limit at 65536 processes.
  std::string model = "runon procnum < 0 {\n";
  for (int i = 0; i < 2000; ++i) {
    model += "  message recv size = 64 from = 0\n";
  }
  model += "}\nserial time = 0.001\n";
  pevpm::PredictRequest request = chain_request(81);
  request.model_text = model;
  request.procs = {65536};
  request.options.replications = 1;
  request.options.sampler.mode = pevpm::PredictionMode::kAverage;
  serve::Service service{serve::ServiceOptions{}};
  const serve::Service::Response response = service.predict(request);
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.error.find(
                "limit of " + std::to_string(pevpm::kMaxProcessStateBytes) +
                " bytes"),
            std::string::npos)
      << response.error;
  EXPECT_EQ(service.stats().accepted, 0u);
  request.procs = {64};
  EXPECT_EQ(service.predict(request).status, 200);
}

}  // namespace
