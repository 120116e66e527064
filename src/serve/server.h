// Socket front end for the prediction service.
//
// Listens on a Unix-domain socket (and optionally a loopback TCP port) and
// speaks newline-delimited JSON: one request object per line, one response
// object per line, in order, per connection. Concurrency comes from
// concurrent connections — each gets a handler thread that blocks in
// Service::predict(), which is where queueing, fairness and admission
// control actually live.
//
// Request objects (all share optional "id", echoed back). Artifacts travel
// as text only; the daemon never opens a file a client names.
//   {"type":"predict", "model_text":TEXT, "model_name":TEXT,
//    "table_text":TEXT, "table_label":TEXT, "procs":[4,8],
//    "mode":"distribution|average|minimum",
//    "contention":"scoreboard|fixed:N", "reps":R, "seed":S,
//    "set":{"name":value,...}, "losses":BOOL, "extrapolate":BOOL,
//    "scaling_text":TEXT, "deadline_ms":D}
//   {"type":"stats"}    -> queue/cache/latency counters
//   {"type":"cluster", "cluster_text":TEXT}
//   {"type":"ping"}
// Unknown members are ignored. predict_frame() and parse_predict_frame()
// below are the only code that knows the predict frame.
// Responses carry "status" (200/400/500/503/504); 200 predict responses
// carry "summary" — byte-identical to the pevpm CLI's stdout block —
// and "deadlocked"; 503 responses carry "retry_after_ms". A line longer
// than Server::kMaxLineBytes answers 400 "request line too long" and
// closes its connection.
//
// shutdown() (or the async-signal-safe request_shutdown(), for SIGTERM
// handlers) stops accepting, drains the service so every in-flight request
// still answers, then unblocks and joins the connection threads.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <thread>

#include "core/thread_annotations.h"
#include "serve/json.h"
#include "serve/service.h"

namespace serve {

/// The predict frame for `request` (no "id", no "deadline_ms"): what
/// `pevpm --server` sends.
[[nodiscard]] Json predict_frame(const pevpm::PredictRequest& request);

/// The request a predict frame carries, its "deadline_ms" (zero when
/// absent) in `deadline`. Members the frame omits keep their
/// PredictRequest defaults, except `model_name` ("model") and
/// `table_label` ("<inline>"). Throws JsonError on a missing text or
/// procs list, a malformed procs, mode, contention or reps, or a member of
/// the wrong JSON type.
[[nodiscard]] pevpm::PredictRequest parse_predict_frame(
    const Json& frame, units::Duration& deadline);

struct ServerOptions {
  /// Path for the Unix-domain listener; empty disables it. An existing
  /// socket file at the path is replaced.
  std::string unix_path;
  /// Loopback TCP port; 0 picks an ephemeral port (see tcp_port()), and a
  /// negative value disables the TCP listener. Above 65535 the constructor
  /// throws.
  int tcp_port = -1;
  ServiceOptions service{};
};

class Server {
 public:
  /// Binds and listens; throws std::runtime_error on socket errors or when
  /// both listeners are disabled.
  explicit Server(const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Accept loop. Returns once shutdown completes (all requests answered,
  /// handler threads joined).
  void serve();

  /// Stops accepting and drains; returns when serve() is about to. Safe
  /// from any thread except a signal handler (use request_shutdown there).
  void shutdown();

  /// Async-signal-safe shutdown nudge: wakes the accept loop via the
  /// self-pipe. serve() then performs the actual drain.
  void request_shutdown() noexcept;

  /// Actual TCP port (useful with tcp_port = 0), or -1 when disabled.
  [[nodiscard]] int tcp_port() const noexcept { return tcp_port_; }

  [[nodiscard]] Service& service() noexcept { return service_; }

  /// Longest request line a connection may send (newline excluded). An
  /// 8-node distribution table is about 8 KB of text.
  static constexpr std::size_t kMaxLineBytes = std::size_t{16} << 20;

  /// Handles one request line and returns the response line (no trailing
  /// newline). Exposed for protocol tests; thread-safe.
  [[nodiscard]] std::string handle_line(const std::string& line);

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void handle_connection(Connection* connection);
  void reap_connections(bool all) EXCLUDES(connections_mu_);
  /// Registers an accepted socket and spawns its handler thread — unless a
  /// shutdown is in progress, in which case the socket is closed and false
  /// is returned. Checking stop_requested_ under connections_mu_ orders
  /// every registration against shutdown()'s half-close sweep, so no
  /// connection can slip in after the sweep and hang the join.
  bool adopt_connection(int fd) EXCLUDES(connections_mu_);
  [[nodiscard]] Json dispatch(const Json& request);
  [[nodiscard]] Json handle_predict(const Json& request);
  [[nodiscard]] Json handle_cluster(const Json& request);
  [[nodiscard]] Json handle_stats() const;

  ServerOptions options_;
  Service service_;
  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int tcp_port_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::atomic<bool> stop_requested_{false};
  pevpm::Mutex connections_mu_;
  std::list<std::unique_ptr<Connection>> connections_
      GUARDED_BY(connections_mu_);
};

}  // namespace serve
