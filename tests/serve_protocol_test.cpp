// Property tests for the pevpmd wire protocol: random well-formed JSON
// values must survive a dump/parse round trip, a predict frame decodes to
// the request it encodes, and Server::handle_line must answer every frame
// — valid, garbled, or truncated — with a well-formed response that
// echoes the request id and never crashes. The daemon takes artifacts as
// text only: a frame that names a file gets a 400 that does not depend on
// the file. Over
// a real socket, a request line past the length cap gets a 400 and costs
// only its own connection, and a peer that hangs up before its replies
// does not take the server down.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/request.h"
#include "net/cluster.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/server.h"

namespace {

using serve::Json;

/// Deterministic split-mix style generator, seeded per test case.
struct Rand {
  std::uint64_t state;
  std::uint64_t next() {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
};

Json random_value(Rand& rng, int depth) {
  switch (depth <= 0 ? rng.below(4) : rng.below(6)) {
    case 0:
      return Json{nullptr};
    case 1:
      return Json{rng.below(2) == 0};
    case 2: {
      if (rng.below(2) == 0) return Json{rng.next()};  // exact u64
      return Json{static_cast<double>(rng.below(1000000)) / 128.0};
    }
    case 3: {
      std::string s;
      const auto length = rng.below(12);
      for (std::uint64_t i = 0; i < length; ++i) {
        // Bias toward characters that need escaping.
        const char alphabet[] = "ab\"\\/\n\t\x01\x7f z";
        s.push_back(alphabet[rng.below(sizeof(alphabet) - 1)]);
      }
      return Json{std::move(s)};
    }
    case 4: {
      Json::Array array;
      const auto length = rng.below(4);
      for (std::uint64_t i = 0; i < length; ++i) {
        array.push_back(random_value(rng, depth - 1));
      }
      return Json{std::move(array)};
    }
    default: {
      Json object{Json::Object{}};
      const auto length = rng.below(4);
      for (std::uint64_t i = 0; i < length; ++i) {
        object.set("k" + std::to_string(rng.below(6)),
                   random_value(rng, depth - 1));
      }
      return object;
    }
  }
}

TEST(ServeProtocolProperty, RandomValuesRoundTripThroughDump) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rand rng{seed};
    const Json value = random_value(rng, 4);
    const std::string once = value.dump();
    Json reparsed;
    ASSERT_NO_THROW(reparsed = Json::parse(once)) << once;
    // dump() is canonical: a second round trip is a fixed point.
    EXPECT_EQ(reparsed.dump(), once) << once;
  }
}

void expect_same_request(const pevpm::PredictRequest& got,
                         const pevpm::PredictRequest& want) {
  EXPECT_EQ(got.model_text, want.model_text);
  EXPECT_EQ(got.model_name, want.model_name);
  EXPECT_EQ(got.table_text, want.table_text);
  EXPECT_EQ(got.table_label, want.table_label);
  EXPECT_EQ(got.procs, want.procs);
  EXPECT_EQ(got.options.sampler.mode, want.options.sampler.mode);
  EXPECT_EQ(got.options.sampler.contention, want.options.sampler.contention);
  EXPECT_EQ(got.options.sampler.fixed_contention,
            want.options.sampler.fixed_contention);
  EXPECT_EQ(got.options.replications, want.options.replications);
  EXPECT_EQ(got.options.seed, want.options.seed);
  EXPECT_EQ(got.losses, want.losses);
  EXPECT_EQ(got.extrapolate, want.extrapolate);
  EXPECT_EQ(got.scaling_text, want.scaling_text);
  EXPECT_EQ(got.overrides, want.overrides);
}

TEST(ServeProtocolCodec, PredictFrameRoundTrips) {
  pevpm::PredictRequest full;
  full.model_text = "param n = 2\nserial time = n * 0.001\n";
  full.model_name = "jacobi.pvm";
  full.table_text = "pevpm-table v1\n0\n";
  full.table_label = "perseus.tbl";
  full.procs = {2, 8, 64};
  full.options.sampler.mode = pevpm::PredictionMode::kAverage;
  full.options.sampler.contention = pevpm::ContentionSource::kFixed;
  full.options.sampler.fixed_contention = 3;
  full.options.replications = 17;
  full.options.seed = 0xfedcba9876543210ULL;  // past a double's mantissa
  full.losses = true;
  full.extrapolate = true;
  full.scaling_text = "pevpm-scaling v1\n";
  full.overrides = {{"n", 4.0}, {"xsize", 0.1}};

  pevpm::PredictRequest plain;  // defaults, minimum mode
  plain.model_text = "serial time = 0.001\n";
  plain.table_text = "pevpm-table v1\n0\n";
  plain.procs = {4};
  plain.options.sampler.mode = pevpm::PredictionMode::kMinimum;

  for (const pevpm::PredictRequest& request : {full, plain}) {
    units::Duration deadline = units::Duration::from_millis(5.0);
    // Through the wire bytes, as a client's frame reaches the daemon.
    const Json frame = Json::parse(serve::predict_frame(request).dump());
    expect_same_request(serve::parse_predict_frame(frame, deadline), request);
    EXPECT_EQ(deadline, units::Duration{});
  }

  Json frame = serve::predict_frame(plain);
  frame.set("deadline_ms", Json{250});
  units::Duration deadline{};
  (void)serve::parse_predict_frame(frame, deadline);
  EXPECT_EQ(deadline, units::Duration::from_millis(250.0));
}

TEST(ServeProtocolCodec, DecoderDefaultsAndRejections) {
  units::Duration deadline{};
  const pevpm::PredictRequest minimal = serve::parse_predict_frame(
      Json::parse(R"({"model_text":"m","table_text":"t","procs":[2]})"),
      deadline);
  EXPECT_EQ(minimal.model_name, "model");
  EXPECT_EQ(minimal.table_label, "<inline>");

  const std::pair<const char*, const char*> cases[] = {
      {R"({"table_text":"t","procs":[2]})", "request needs \"model_text\""},
      {R"({"model_text":"m","procs":[2]})", "request needs \"table_text\""},
      {R"({"model_text":"m","table_text":"t"})", "request needs \"procs\""},
      {R"({"model_text":"m","table_text":"t","procs":[2,0]})",
       "bad procs list"},
      {R"({"model_text":"m","table_text":"t","procs":[2],"mode":"x"})",
       "bad mode \"x\""},
      {R"({"model_text":"m","table_text":"t","procs":[2],)"
       R"("contention":"fixed:0"})",
       "bad contention \"fixed:0\""},
      {R"({"model_text":"m","table_text":"t","procs":[2],"reps":0})",
       "reps must be a positive integer"},
  };
  for (const auto& [text, message] : cases) {
    try {
      (void)serve::parse_predict_frame(Json::parse(text), deadline);
      ADD_FAILURE() << "accepted " << text;
    } catch (const serve::JsonError& e) {
      EXPECT_STREQ(e.what(), message) << text;
    }
  }
  // procs is an array; the old "4,8" spelling is a type error.
  EXPECT_THROW((void)serve::parse_predict_frame(
                   Json::parse(R"({"model_text":"m","table_text":"t",)"
                               R"("procs":"4,8"})"),
                   deadline),
               serve::JsonError);
}

class ServeProtocolServer : public ::testing::Test {
 protected:
  ServeProtocolServer() {
    serve::ServerOptions options;
    options.tcp_port = 0;  // ephemeral loopback; no socket file to manage
    options.service.threads = 2;
    options.service.queue_capacity = 4;
    server_ = std::make_unique<serve::Server>(options);
  }

  std::unique_ptr<serve::Server> server_;
};

TEST_F(ServeProtocolServer, AnswersPingAndRejectsUnknownTypes) {
  const Json pong =
      Json::parse(server_->handle_line(R"({"type":"ping","id":7})"));
  EXPECT_EQ(pong.find("status")->as_int64(), 200);
  EXPECT_EQ(pong.find("id")->as_int64(), 7);
  const Json unknown =
      Json::parse(server_->handle_line(R"({"type":"frobnicate"})"));
  EXPECT_EQ(unknown.find("status")->as_int64(), 400);
}

TEST_F(ServeProtocolServer, GarbledFramesGet400NeverCrash) {
  Rand rng{20260806};
  for (int i = 0; i < 400; ++i) {
    std::string frame;
    const auto length = rng.below(60);
    for (std::uint64_t b = 0; b < length; ++b) {
      frame.push_back(static_cast<char>(rng.below(256)));
    }
    // A newline would be a frame boundary on the wire, never in a frame.
    for (char& c : frame) {
      if (c == '\n') c = ' ';
    }
    Json response;
    ASSERT_NO_THROW(response = Json::parse(server_->handle_line(frame)))
        << "frame " << i;
    const Json* status = response.find("status");
    ASSERT_NE(status, nullptr);
    // Random bytes virtually never form a valid predict request; anything
    // parseable-but-wrong is still a client error.
    EXPECT_GE(status->as_int64(), 400) << frame;
  }
}

TEST_F(ServeProtocolServer, TruncatedValidFramesGet400) {
  const std::string valid =
      R"({"type":"predict","model_text":"serial time = 0.001\n",)"
      R"("table_text":"","procs":[2],"id":"x"})";
  for (std::size_t cut = 1; cut + 1 < valid.size(); cut += 3) {
    const Json response =
        Json::parse(server_->handle_line(valid.substr(0, cut)));
    const Json* status = response.find("status");
    ASSERT_NE(status, nullptr) << cut;
    EXPECT_EQ(status->as_int64(), 400) << valid.substr(0, cut);
  }
}

TEST_F(ServeProtocolServer, RandomValidObjectsAlwaysGetStatusAndIdEcho) {
  Rand rng{42};
  for (int i = 0; i < 200; ++i) {
    Json frame = random_value(rng, 3);
    if (!frame.is_object()) continue;
    frame.set("id", Json{static_cast<std::uint64_t>(i)});
    Json response;
    ASSERT_NO_THROW(response = Json::parse(server_->handle_line(frame.dump())))
        << frame.dump();
    ASSERT_NE(response.find("status"), nullptr);
    const Json* id = response.find("id");
    ASSERT_NE(id, nullptr);
    EXPECT_EQ(id->as_uint64(), static_cast<std::uint64_t>(i));
  }
}

TEST_F(ServeProtocolServer, PredictValidationErrorsAreClientErrors) {
  // Missing pieces and malformed artifacts must be 400s (no queue slot
  // consumed), not 500s.
  for (const char* frame : {
           R"({"type":"predict"})",
           R"({"type":"predict","model_text":"serial time = 0.001\n"})",
           R"({"type":"predict","model_text":"serial time = 0.001\n",)"
           R"("table_text":"","procs":[]})",
           R"({"type":"predict","model_text":"serial time = 0.001\n",)"
           R"("table_text":"","procs":[0]})",
           R"({"type":"predict","model_text":"loop {","table_text":"",)"
           R"("procs":[2]})",
           R"({"type":"predict","model_text":"serial time = 0.001\n",)"
           R"("table_text":"not a table","procs":[2]})",
           // Counts are range-checked before they narrow to int; the
           // table is valid, so the count is the only fault.
           R"({"type":"predict","model_text":"serial time = 0.001\n",)"
           R"("table_text":"pevpm-table v1\n0\n","procs":[4294967298]})",
           R"({"type":"predict","model_text":"serial time = 0.001\n",)"
           R"("table_text":"pevpm-table v1\n0\n","procs":[-2]})",
           R"({"type":"predict","model_text":"serial time = 0.001\n",)"
           R"("table_text":"pevpm-table v1\n0\n","procs":[2],"reps":0})",
           R"({"type":"predict","model_text":"serial time = 0.001\n",)"
           R"("table_text":"pevpm-table v1\n0\n","procs":[2],"reps":-1})",
           R"({"type":"predict","model_text":"serial time = 0.001\n",)"
           R"("table_text":"pevpm-table v1\n0\n","procs":[2],)"
           R"("reps":4294967304})",
           R"({"type":"predict","model_text":"serial time = 0.001\n",)"
           R"("table_text":"pevpm-table v1\n0\n","procs":[2],)"
           R"("contention":"fixed:0"})",
           R"({"type":"predict","model_text":"serial time = 0.001\n",)"
           R"("table_text":"pevpm-table v1\n0\n","procs":[2],)"
           R"("contention":"fixed:-5"})",
       }) {
    const Json response = Json::parse(server_->handle_line(frame));
    EXPECT_EQ(response.find("status")->as_int64(), 400) << frame;
  }
  EXPECT_EQ(server_->service().stats().accepted, 0u);
}

TEST_F(ServeProtocolServer, ClientNamedFilesAreNeverOpened) {
  const std::string path =
      "serve_secret_" + std::to_string(::getpid()) + ".txt";
  const std::string marker = "hunter2-marker";
  {
    std::ofstream out{path};
    out << "secret line one: " << marker << "\n";
  }
  const auto frames = [](const std::string& named) {
    const std::string quoted = Json{named}.dump();
    return std::vector<std::string>{
        R"({"type":"predict","model":)" + quoted +
            R"(,"table_text":"pevpm-table v1\n0\n","procs":[2]})",
        R"({"type":"predict","model_text":"serial time = 0.001\n",)"
        R"("table":)" + quoted + R"(,"procs":[2]})",
        R"({"type":"cluster","cluster":)" + quoted + "}",
    };
  };
  const std::vector<std::string> existing = frames(path);
  const std::vector<std::string> missing = frames(path + ".missing");
  for (std::size_t i = 0; i < existing.size(); ++i) {
    const std::string reply = server_->handle_line(existing[i]);
    EXPECT_EQ(Json::parse(reply).find("status")->as_int64(), 400) << reply;
    EXPECT_EQ(reply.find(marker), std::string::npos) << reply;
    // Nor may the reply tell an existing path from a missing one.
    EXPECT_EQ(server_->handle_line(missing[i]), reply);
  }
  ::unlink(path.c_str());
}

TEST_F(ServeProtocolServer, ClusterRequestsDescribeCachedClusters) {
  const std::string text = "nodes = 8\nnic_latency_us = 30\n";
  std::istringstream in{text};
  const std::string expected =
      net::describe(net::parse_cluster(in, net::perseus(16)));
  Json frame{Json::Object{}};
  frame.set("type", Json{"cluster"});
  frame.set("cluster_text", Json{text});

  const Json first = Json::parse(server_->handle_line(frame.dump()));
  EXPECT_EQ(first.find("status")->as_int64(), 200);
  EXPECT_EQ(first.find("summary")->as_string(), expected);
  const std::uint64_t hits = server_->service().stats().cache.hits;
  const Json again = Json::parse(server_->handle_line(frame.dump()));
  EXPECT_EQ(again.find("summary")->as_string(), expected);
  EXPECT_EQ(server_->service().stats().cache.hits, hits + 1);

  frame.set("cluster_text", Json{"nodes == eight\n"});
  const Json bad = Json::parse(server_->handle_line(frame.dump()));
  EXPECT_EQ(bad.find("status")->as_int64(), 400);
  EXPECT_NE(bad.find("error")->as_string().find("line 1"), std::string::npos)
      << bad.dump();

  const Json missing =
      Json::parse(server_->handle_line(R"({"type":"cluster"})"));
  EXPECT_EQ(missing.find("status")->as_int64(), 400);
  EXPECT_EQ(missing.find("error")->as_string(),
            "request needs \"cluster_text\"");
}

/// The reply to a predict of `model_text` at 2 processes on a valid table
/// with no entries.
Json predict_reply(serve::Server& server, const std::string& model_text) {
  Json frame{Json::Object{}};
  frame.set("type", Json{"predict"});
  frame.set("model_text", Json{model_text});
  frame.set("table_text", Json{"pevpm-table v1\n0\n"});
  frame.set("procs", Json{Json::Array{Json{2}}});
  return Json::parse(server.handle_line(frame.dump()));
}

TEST_F(ServeProtocolServer, ModelEvaluationErrorsAreClientErrors) {
  // A model that parses but cannot be evaluated is the client's input at
  // fault, exactly like one that fails to parse: 400, with the message.
  const std::pair<const char*, const char*> cases[] = {
      {"serial time = 1 / 0\n",
       "PEVPM expression: division by zero"},
      {"serial time = 1 % 0\n",
       "PEVPM expression: modulo by zero"},
      {"serial time = missing\n", "unbound PEVPM variable 'missing'"},
      {"serial time = 1e308 * 10\n", "serial time evaluates to inf"},
  };
  for (const auto& [model, message] : cases) {
    const Json response = predict_reply(*server_, model);
    EXPECT_EQ(response.find("status")->as_int64(), 400) << model;
    const std::string error = response.find("error")->as_string();
    EXPECT_NE(error.find(message), std::string::npos) << error;
  }
  EXPECT_EQ(server_->service().stats().failed, 4u);
  // The same table and procs evaluate a well-formed model.
  EXPECT_EQ(predict_reply(*server_, "serial time = 0.001\n")
                .find("status")
                ->as_int64(),
            200);
}

TEST_F(ServeProtocolServer, OtherEvaluationFailuresStayServerErrors) {
  // No one-way table to draw a delivery time from: not a model error.
  const Json response = predict_reply(
      *server_,
      "runon procnum == 0 {\n  message send size = 8 to = 1\n} else {\n"
      "  message recv size = 8 from = 0\n}\n");
  EXPECT_EQ(response.find("status")->as_int64(), 500);
}

/// Sends `bytes` as-is over a fresh loopback TCP connection and returns
/// the first response line (empty on any transport error, or when no reply
/// comes within 10 s). With `hang_up`, closes without reading any reply.
std::string send_raw(int port, const std::string& bytes,
                     bool hang_up = false) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  const timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  std::string reply;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) == 0) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    char c = 0;
    while (!hang_up && ::read(fd, &c, 1) == 1 && c != '\n') {
      reply.push_back(c);
    }
  }
  ::close(fd);
  return reply;
}

TEST_F(ServeProtocolServer, OverlongRequestLineGets400AndClosesOnlyItself) {
  std::thread accept_thread{[this] { server_->serve(); }};

  // One byte past the cap and no newline: the server reads every byte
  // before it answers, so the send cannot block on a full socket.
  const std::string reply = send_raw(
      server_->tcp_port(), std::string(serve::Server::kMaxLineBytes + 1, ' '));
  serve::Client client =
      serve::Client::connect_tcp("127.0.0.1", server_->tcp_port());
  const Json pong = client.call(Json::parse(R"({"type":"ping"})"));

  server_->request_shutdown();
  accept_thread.join();

  // The same bytes every other 400 carries: canonical dump order.
  EXPECT_EQ(reply, R"({"error":"request line too long","status":400})");
  EXPECT_EQ(pong.find("status")->as_int64(), 200);
}

TEST_F(ServeProtocolServer, PeerThatHangsUpBeforeItsRepliesIsNotFatal) {
  std::thread accept_thread{[this] { server_->serve(); }};

  // The handler answers these pings after the peer has gone, so its
  // writes fail with EPIPE; that must end the connection, not raise
  // SIGPIPE in the process.
  std::string pings;
  for (int i = 0; i < 2000; ++i) pings += "{\"type\":\"ping\"}\n";
  (void)send_raw(server_->tcp_port(), pings, /*hang_up=*/true);
  serve::Client client =
      serve::Client::connect_tcp("127.0.0.1", server_->tcp_port());
  const Json pong = client.call(Json::parse(R"({"type":"ping"})"));

  server_->request_shutdown();
  accept_thread.join();  // joins the hung-up connection's handler too
  EXPECT_EQ(pong.find("status")->as_int64(), 200);
}

}  // namespace
