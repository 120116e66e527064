#include "serve/server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "core/version.h"

namespace serve {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error{what + ": " + std::strerror(errno)};
}

int listen_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error{"unix socket path too long: " + path};
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket(AF_UNIX)");
  ::unlink(path.c_str());  // replace a stale socket file
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    throw_errno("bind(" + path + ")");
  }
  if (::listen(fd, 128) < 0) {
    ::close(fd);
    throw_errno("listen(" + path + ")");
  }
  return fd;
}

int listen_tcp(int port, int& bound_port) {
  if (port > 65535) {
    throw std::runtime_error{"tcp port out of range: " + std::to_string(port)};
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket(AF_INET)");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // local service only
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    throw_errno("bind(127.0.0.1:" + std::to_string(port) + ")");
  }
  if (::listen(fd, 128) < 0) {
    ::close(fd);
    throw_errno("listen(tcp)");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    bound_port = ntohs(bound.sin_port);
  } else {
    bound_port = port;
  }
  return fd;
}

/// Writes the whole buffer to a socket, riding out EINTR/partial writes. A
/// peer that has gone away fails the write (EPIPE) instead of raising
/// SIGPIPE in the daemon.
bool write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

Json error_response(int status, std::string message) {
  Json response;
  response.set("status", Json{status});
  response.set("error", Json{std::move(message)});
  return response;
}

Json tail_to_json(const stats::TailSummary& tail) {
  Json out;
  out.set("count", Json{static_cast<std::uint64_t>(tail.count)});
  out.set("mean_ms", Json{tail.mean * 1e3});
  out.set("p50_ms", Json{tail.median * 1e3});
  out.set("p99_ms", Json{tail.p99 * 1e3});
  out.set("p999_ms", Json{tail.p999 * 1e3});
  out.set("max_ms", Json{tail.max * 1e3});
  return out;
}

}  // namespace

Json predict_frame(const pevpm::PredictRequest& request) {
  Json procs{Json::Array{}};
  for (const int p : request.procs) procs.as_array().emplace_back(p);
  Json set{Json::Object{}};
  for (const auto& [name, value] : request.overrides) {
    set.set(name, Json{value});
  }
  Json frame{Json::Object{}};
  frame.set("type", Json{"predict"});
  frame.set("model_text", Json{request.model_text});
  frame.set("model_name", Json{request.model_name});
  frame.set("table_text", Json{request.table_text});
  frame.set("table_label", Json{request.table_label});
  frame.set("procs", std::move(procs));
  frame.set("mode", Json{request.options.sampler.mode ==
                                 pevpm::PredictionMode::kAverage
                             ? "average"
                         : request.options.sampler.mode ==
                                 pevpm::PredictionMode::kMinimum
                             ? "minimum"
                             : "distribution"});
  if (request.options.sampler.contention ==
      pevpm::ContentionSource::kFixed) {
    frame.set("contention",
              Json{"fixed:" + std::to_string(
                                  request.options.sampler.fixed_contention)});
  }
  frame.set("reps", Json{request.options.replications});
  frame.set("seed", Json{request.options.seed});
  frame.set("losses", Json{request.losses});
  if (request.extrapolate) frame.set("extrapolate", Json{true});
  if (!request.scaling_text.empty()) {
    frame.set("scaling_text", Json{request.scaling_text});
  }
  if (!request.overrides.empty()) frame.set("set", std::move(set));
  return frame;
}

pevpm::PredictRequest parse_predict_frame(const Json& frame,
                                          units::Duration& deadline) {
  pevpm::PredictRequest predict;  // model_name defaults to "model"
  predict.table_label = "<inline>";
  deadline = units::Duration{};

  const Json* model = frame.find("model_text");
  if (model == nullptr) throw JsonError{"request needs \"model_text\""};
  predict.model_text = model->as_string();
  const Json* table = frame.find("table_text");
  if (table == nullptr) throw JsonError{"request needs \"table_text\""};
  predict.table_text = table->as_string();
  if (const Json* name = frame.find("model_name")) {
    predict.model_name = name->as_string();
  }
  if (const Json* label = frame.find("table_label")) {
    predict.table_label = label->as_string();
  }

  const Json* procs = frame.find("procs");
  if (procs == nullptr) throw JsonError{"request needs \"procs\""};
  for (const Json& value : procs->as_array()) {
    int count = 0;
    if (!pevpm::positive_int(value.as_int64(), count)) {
      throw JsonError{"bad procs list"};
    }
    predict.procs.push_back(count);
  }

  if (const Json* mode = frame.find("mode")) {
    if (!pevpm::parse_mode(mode->as_string(), predict.options.sampler)) {
      throw JsonError{"bad mode \"" + mode->as_string() + "\""};
    }
  }
  if (const Json* contention = frame.find("contention")) {
    if (!pevpm::parse_contention(contention->as_string(),
                                 predict.options.sampler)) {
      throw JsonError{"bad contention \"" + contention->as_string() + "\""};
    }
  }
  if (const Json* reps = frame.find("reps")) {
    if (!pevpm::positive_int(reps->as_int64(),
                             predict.options.replications)) {
      throw JsonError{"reps must be a positive integer"};
    }
  }
  if (const Json* seed = frame.find("seed")) {
    predict.options.seed = seed->as_uint64();
  }
  if (const Json* losses = frame.find("losses")) {
    predict.losses = losses->as_bool();
  }
  if (const Json* extrapolate = frame.find("extrapolate")) {
    predict.extrapolate = extrapolate->as_bool();
  }
  if (const Json* scaling = frame.find("scaling_text")) {
    predict.scaling_text = scaling->as_string();
    predict.extrapolate = true;
  }
  if (const Json* overrides = frame.find("set")) {
    for (const auto& [name, value] : overrides->as_object()) {
      predict.overrides[name] = value.as_double();
    }
  }
  if (const Json* deadline_json = frame.find("deadline_ms")) {
    deadline = units::Duration::from_millis(deadline_json->as_double());
  }
  return predict;
}

Server::Server(const ServerOptions& options)
    : options_{options}, service_{options.service} {
  if (options_.unix_path.empty() && options_.tcp_port < 0) {
    throw std::runtime_error{"server needs a unix path or a tcp port"};
  }
  if (::pipe(wake_pipe_) != 0) throw_errno("pipe");
  try {
    if (!options_.unix_path.empty()) {
      unix_fd_ = listen_unix(options_.unix_path);
    }
    if (options_.tcp_port >= 0) {
      tcp_fd_ = listen_tcp(options_.tcp_port, tcp_port_);
    }
  } catch (...) {
    if (unix_fd_ >= 0) ::close(unix_fd_);
    ::close(wake_pipe_[0]);
    ::close(wake_pipe_[1]);
    throw;
  }
}

Server::~Server() {
  shutdown();
  if (unix_fd_ >= 0) ::close(unix_fd_);
  if (tcp_fd_ >= 0) ::close(tcp_fd_);
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
}

void Server::request_shutdown() noexcept {
  // Async-signal-safe: one atomic store and one pipe write.
  stop_requested_.store(true, std::memory_order_relaxed);
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
}

void Server::shutdown() {
  request_shutdown();
  // Drain first so every in-flight request still answers; then half-close
  // the connections (SHUT_RD: pending responses still flow out, the next
  // read sees EOF) and join the handlers. adopt_connection() re-checks
  // stop_requested_ under connections_mu_, so every registered connection
  // either predates the sweep below (and gets half-closed) or is refused —
  // a concurrent accept can no longer hand us a handler that never sees
  // EOF and blocks the join forever.
  service_.drain();
  {
    pevpm::MutexLock lock{connections_mu_};
    for (const auto& connection : connections_) {
      ::shutdown(connection->fd, SHUT_RD);
    }
  }
  reap_connections(/*all=*/true);
}

bool Server::adopt_connection(int fd) {
  auto connection = std::make_unique<Connection>();
  connection->fd = fd;
  Connection* raw = connection.get();
  pevpm::MutexLock lock{connections_mu_};
  if (stop_requested_.load(std::memory_order_relaxed)) {
    // Raced with shutdown(): its half-close sweep may already be done, so
    // refuse rather than register a connection nobody would unblock.
    ::close(fd);
    return false;
  }
  connection->thread = std::thread{[this, raw] { handle_connection(raw); }};
  connections_.push_back(std::move(connection));
  return true;
}

void Server::reap_connections(bool all) {
  std::list<std::unique_ptr<Connection>> finished;
  {
    pevpm::MutexLock lock{connections_mu_};
    for (auto it = connections_.begin(); it != connections_.end();) {
      if (all || (*it)->done.load(std::memory_order_acquire)) {
        finished.push_back(std::move(*it));
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const auto& connection : finished) {
    if (connection->thread.joinable()) connection->thread.join();
    if (connection->fd >= 0) ::close(connection->fd);
  }
}

void Server::serve() {
  while (!stop_requested_.load(std::memory_order_relaxed)) {
    pollfd fds[3];
    nfds_t nfds = 0;
    fds[nfds++] = pollfd{wake_pipe_[0], POLLIN, 0};
    if (unix_fd_ >= 0) fds[nfds++] = pollfd{unix_fd_, POLLIN, 0};
    if (tcp_fd_ >= 0) fds[nfds++] = pollfd{tcp_fd_, POLLIN, 0};
    const int ready = ::poll(fds, nfds, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (nfds_t i = 1; i < nfds; ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      const int client = ::accept(fds[i].fd, nullptr, nullptr);
      if (client < 0) continue;
      if (!adopt_connection(client)) break;  // shutting down
    }
    reap_connections(/*all=*/false);
  }
  shutdown();
}

void Server::handle_connection(Connection* connection) {
  std::string buffer;
  std::size_t scanned = 0;  // buffer[0, scanned) holds no newline
  char chunk[4096];
  for (;;) {
    const auto newline = buffer.find('\n', scanned);
    if ((newline == std::string::npos ? buffer.size() : newline) >
        kMaxLineBytes) {
      // error_response(400, ...).dump(), spelled out: building it here
      // trips gcc -fanalyzer's libstdc++ string false positives
      // (tools/analyzer_baseline.txt).
      constexpr std::string_view kReply =
          "{\"error\":\"request line too long\",\"status\":400}\n";
      write_all(connection->fd, kReply.data(), kReply.size());
      ::shutdown(connection->fd, SHUT_RDWR);
      break;
    }
    if (newline != std::string::npos) {
      std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      scanned = 0;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      const std::string response = handle_line(line) + "\n";
      if (!write_all(connection->fd, response.data(), response.size())) {
        break;
      }
      continue;
    }
    scanned = buffer.size();
    const ssize_t n = ::read(connection->fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // peer closed (or shutdown() unblocked us)
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  // The fd stays open (and owned by the Connection) until the reaper has
  // joined this thread — closing here could race shutdown()'s half-close
  // against a recycled descriptor number.
  connection->done.store(true, std::memory_order_release);
}

std::string Server::handle_line(const std::string& line) {
  Json response;
  const Json* id = nullptr;
  Json parsed;
  try {
    parsed = Json::parse(line);
    if (!parsed.is_object()) {
      throw JsonError{"request must be a JSON object"};
    }
    id = parsed.find("id");
    response = dispatch(parsed);
  } catch (const JsonError& e) {
    response = error_response(400, e.what());
  } catch (const std::exception& e) {
    response = error_response(500, e.what());
  }
  if (id != nullptr) response.set("id", *id);
  return response.dump();
}

Json Server::dispatch(const Json& request) {
  const Json* type = request.find("type");
  const std::string kind = type != nullptr ? type->as_string() : "predict";
  if (kind == "predict") return handle_predict(request);
  if (kind == "cluster") return handle_cluster(request);
  if (kind == "stats") return handle_stats();
  if (kind == "ping") {
    Json response;
    response.set("status", Json{200});
    response.set("pong", Json{true});
    response.set("version", Json{pevpm::version_string("pevpmd")});
    return response;
  }
  return error_response(400, "unknown request type \"" + kind + "\"");
}

Json Server::handle_predict(const Json& request) {
  units::Duration deadline{};
  const pevpm::PredictRequest predict = parse_predict_frame(request, deadline);
  const Service::Response result = service_.predict(predict, deadline);
  Json response;
  response.set("status", Json{result.status});
  if (result.status == 200) {
    response.set("summary", Json{result.summary});
    response.set("deadlocked", Json{result.deadlocked});
  } else {
    response.set("error", Json{result.error});
    if (result.status == 503) {
      response.set("retry_after_ms", Json{result.retry_after.to_millis()});
    }
  }
  return response;
}

Json Server::handle_cluster(const Json& request) {
  const Json* text = request.find("cluster_text");
  if (text == nullptr) throw JsonError{"request needs \"cluster_text\""};
  const Service::Response result =
      service_.describe_cluster(text->as_string());
  if (result.status != 200) return error_response(result.status, result.error);
  Json response;
  response.set("status", Json{200});
  response.set("summary", Json{result.summary});
  return response;
}

Json Server::handle_stats() const {
  const ServiceStats stats = service_.stats();
  Json cache;
  cache.set("hits", Json{stats.cache.hits});
  cache.set("misses", Json{stats.cache.misses});
  cache.set("evictions", Json{stats.cache.evictions});
  cache.set("entries", Json{static_cast<std::uint64_t>(stats.cache.entries)});
  cache.set("capacity",
            Json{static_cast<std::uint64_t>(stats.cache.capacity)});
  Json scaling_cache;
  scaling_cache.set("hits", Json{stats.scaling_cache.hits});
  scaling_cache.set("misses", Json{stats.scaling_cache.misses});
  scaling_cache.set("evictions", Json{stats.scaling_cache.evictions});
  scaling_cache.set(
      "entries", Json{static_cast<std::uint64_t>(stats.scaling_cache.entries)});
  Json body;
  body.set("queue_depth", Json{static_cast<std::uint64_t>(stats.queue_depth)});
  body.set("in_flight", Json{static_cast<std::uint64_t>(stats.in_flight)});
  body.set("accepted", Json{stats.accepted});
  body.set("rejected", Json{stats.rejected});
  body.set("completed", Json{stats.completed});
  body.set("deadline_expired", Json{stats.deadline_expired});
  body.set("failed", Json{stats.failed});
  body.set("bad_requests", Json{stats.bad_requests});
  body.set("extrapolations", Json{stats.extrapolations});
  body.set("cache", std::move(cache));
  body.set("scaling_cache", std::move(scaling_cache));
  body.set("predict_latency", tail_to_json(stats.predict_latency));
  body.set("queue_wait", tail_to_json(stats.queue_wait));
  body.set("draining", Json{stats.draining});
  body.set("threads",
           Json{static_cast<std::uint64_t>(service_.threads())});
  Json response;
  response.set("status", Json{200});
  response.set("stats", std::move(body));
  return response;
}

}  // namespace serve
