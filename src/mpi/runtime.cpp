#include "mpi/runtime.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <utility>

#include "mpi/comm.h"

namespace smpi {

Runtime::Runtime(Options options)
    : options_{std::move(options)},
      network_{engine_, options_.cluster},
      transport_{engine_, network_} {
  if (options_.nprocs < 1) throw MpiError{"Runtime: nprocs < 1"};
  if (options_.procs_per_node < 1) {
    throw MpiError{"Runtime: procs_per_node < 1"};
  }
  const long capacity = static_cast<long>(options_.cluster.nodes) *
                        options_.procs_per_node;
  if (options_.nprocs > capacity) {
    std::ostringstream os;
    os << "Runtime: " << options_.nprocs << " ranks exceed capacity "
       << capacity << " (" << options_.cluster.nodes << " nodes x "
       << options_.procs_per_node << " ppn)";
    throw MpiError{os.str()};
  }
  stats::Rng master{options_.seed};
  ranks_.reserve(options_.nprocs);
  comms_.reserve(options_.nprocs);
  for (int r = 0; r < options_.nprocs; ++r) {
    auto state = std::make_unique<detail::RankState>();
    state->rank = units::Rank{r};
    state->node = r / options_.procs_per_node;
    state->rng = master.split();
    state->clock_offset_s = state->rng.uniform(-options_.clock_offset_max_s,
                                               options_.clock_offset_max_s);
    state->clock_drift =
        state->rng.uniform(-options_.clock_drift_max, options_.clock_drift_max);
    ranks_.push_back(std::move(state));
    comms_.push_back(std::make_unique<Comm>(*this, r));
  }
}

Runtime::~Runtime() = default;

int Runtime::node_of(int rank) const {
  if (rank < 0 || rank >= options_.nprocs) {
    throw MpiError{"node_of: rank out of range"};
  }
  return ranks_[rank]->node;
}

detail::RankState& Runtime::rank_state(int rank) { return *ranks_.at(rank); }

stats::Rng& Runtime::rng_of(int rank) { return ranks_.at(rank)->rng; }

void Runtime::run(const std::function<void(Comm&)>& rank_main) {
  if (ran_) throw MpiError{"Runtime::run may only be called once"};
  ran_ = true;
  for (auto& state : ranks_) {
    const int r = state->rank.value();
    Comm& comm = *comms_[static_cast<std::size_t>(r)];
    state->process = std::make_unique<des::Process>(
        engine_, "rank" + std::to_string(r),
        [&rank_main, &comm] { rank_main(comm); });
  }
  engine_.run();
  finish_time_ = engine_.now();

  for (auto& state : ranks_) state->process->rethrow_if_failed();

  std::vector<int> blocked;
  for (auto& state : ranks_) {
    if (!state->process->finished()) {
      blocked.push_back(state->rank.value());
    }
  }
  if (!blocked.empty()) {
    std::ostringstream os;
    os << "deadlock: " << blocked.size() << " rank(s) blocked at t="
       << finish_time_.to_micros() << " us; first blocked rank "
       << blocked.front();
    throw DeadlockError{os.str(), std::move(blocked)};
  }
}

// ---------------------------------------------------------------------------
// Cost model helpers
// ---------------------------------------------------------------------------

des::Duration Runtime::jittered(detail::RankState& rank, des::Duration base) {
  const auto& host = options_.cluster.host;
  double t = static_cast<double>(base.ns());
  if (host.jitter_sigma > 0) {
    t *= std::exp(rank.rng.normal(0.0, host.jitter_sigma));
  }
  if (host.spike_prob > 0 && rank.rng.bernoulli(host.spike_prob)) {
    t += rank.rng.exponential(static_cast<double>(host.spike_mean.ns()));
  }
  // Truncation (not rounding) is deliberate: it is the historical cost-model
  // behaviour and the golden outputs are calibrated to it.
  return des::Duration{static_cast<std::int64_t>(t)};
}

des::Duration Runtime::send_cost(detail::RankState& rank, net::Bytes bytes) {
  const auto& host = options_.cluster.host;
  const des::Duration base{static_cast<std::int64_t>(
      static_cast<double>(host.send_overhead.ns()) +
      host.copy_ns_per_byte * bytes.to_double())};
  return jittered(rank, base);
}

des::Duration Runtime::recv_cost(detail::RankState& rank, net::Bytes bytes) {
  const auto& host = options_.cluster.host;
  const des::Duration base{static_cast<std::int64_t>(
      static_cast<double>(host.recv_overhead.ns()) +
      host.copy_ns_per_byte * bytes.to_double())};
  return jittered(rank, base);
}

// ---------------------------------------------------------------------------
// Point-to-point: process-context entry points
// ---------------------------------------------------------------------------

Request Runtime::isend(int src, std::span<const std::byte> data,
                       net::Bytes bytes, int dst, int tag) {
  detail::RankState& rs = rank_state(src);
  auto req = std::make_shared<detail::RequestState>();
  req->kind = detail::RequestState::Kind::kSend;
  req->owner = src;

  std::shared_ptr<std::vector<std::byte>> payload;
  if (!data.empty()) {
    payload = std::make_shared<std::vector<std::byte>>(data.begin(), data.end());
  }
  ++rs.messages_sent;
  rs.bytes_sent += bytes;

  const auto& mpi = options_.cluster.mpi;
  const int src_node = rs.node;
  const int dst_node = rank_state(dst).node;

  if (src_node == dst_node) {
    // SMP shared-memory channel: always eager; pay the copy, then the
    // message crosses the memory system.
    rs.process->delay(send_cost(rs, bytes));
    const auto& host = options_.cluster.host;
    const des::Duration xfer{static_cast<std::int64_t>(
        static_cast<double>(host.smp_latency.ns()) +
        bytes.to_double() / host.smp_rate.byte_per_sec() * 1e9)};
    des::SimTime arrival = engine_.now() + jittered(rs, xfer);
    // Non-overtaking per sender on the SMP channel.
    detail::RankState& rd = rank_state(dst);
    des::SimTime& last = rd.smp_last_arrival[src];
    arrival = std::max(arrival, last + des::Duration{1});
    last = arrival;
    detail::Inbound inbound{.source = src,
                            .tag = tag,
                            .bytes = bytes,
                            .is_rts = false,
                            .rendezvous = 0,
                            .payload = std::move(payload)};
    engine_.schedule_at(arrival, [this, dst, inbound = std::move(inbound)] {
      arrive(dst, inbound);
    });
    req->complete = true;
    return Request{req};
  }

  if (bytes <= mpi.eager_threshold) {
    rs.process->delay(send_cost(rs, bytes));
    detail::Inbound inbound{.source = src,
                            .tag = tag,
                            .bytes = bytes,
                            .is_rts = false,
                            .rendezvous = 0,
                            .payload = std::move(payload)};
    transport_.send(stream_id(src, dst), src_node, dst_node,
                    bytes + mpi.eager_header,
                    [this, dst, inbound = std::move(inbound)] {
                      arrive(dst, inbound);
                    });
    req->complete = true;  // buffered locally, like MPICH eager sends
    return Request{req};
  }

  // Rendezvous: announce with an RTS; data follows the receiver's CTS. The
  // sender half (request, payload) waits here, filed under an id that
  // encodes the source rank.
  rs.process->delay(jittered(rs, options_.cluster.host.send_overhead));
  const std::uint64_t id = rendezvous_id(src, rs.next_rendezvous++);
  rdv_out_.emplace(id, RendezvousOut{.send_request = req,
                                     .src_rank = src,
                                     .dst_rank = dst,
                                     .bytes = bytes,
                                     .payload = std::move(payload)});
  detail::Inbound rts{.source = src,
                      .tag = tag,
                      .bytes = bytes,
                      .is_rts = true,
                      .rendezvous = id,
                      .payload = nullptr};
  transport_.send(stream_id(src, dst), src_node, dst_node,
                  mpi.rendezvous_ctrl,
                  [this, dst, rts = std::move(rts)] { arrive(dst, rts); });
  return Request{req};
}

Request Runtime::irecv(int dst, std::span<std::byte> buffer,
                       net::Bytes max_bytes, int source, int tag) {
  detail::RankState& rd = rank_state(dst);
  auto req = std::make_shared<detail::RequestState>();
  req->kind = detail::RequestState::Kind::kRecv;
  req->owner = dst;
  req->source = source;
  req->tag = tag;
  req->buffer = buffer;
  req->max_bytes = max_bytes;
  if (!match_posted_against_unexpected(rd, req)) {
    rd.posted_recvs.push_back(req);
  }
  return Request{req};
}

void Runtime::wait(int rank, const Request& request) {
  if (!request.valid()) throw MpiError{"wait: invalid request"};
  detail::RequestState* state = request.state();
  if (state->owner != rank) throw MpiError{"wait: request owned by other rank"};
  detail::RankState& rs = rank_state(rank);
  while (!state->complete) rs.process->park();
  if (!state->error.empty()) throw MpiError{state->error};
}

bool Runtime::test(const Request& request) const noexcept {
  return request.valid() && request.state()->complete;
}

Status Runtime::probe(int rank, int source, int tag) {
  detail::RankState& rs = rank_state(rank);
  for (;;) {
    if (auto status = iprobe(rank, source, tag)) return *status;
    rs.process->park();
  }
}

std::optional<Status> Runtime::iprobe(int rank, int source, int tag) {
  detail::RankState& rs = rank_state(rank);
  detail::RequestState probe_req;
  probe_req.source = source;
  probe_req.tag = tag;
  for (const detail::Inbound& inbound : rs.unexpected) {
    if (envelope_match(probe_req, inbound)) {
      return Status{inbound.source, inbound.tag, inbound.bytes};
    }
  }
  return std::nullopt;
}

void Runtime::compute(int rank, double seconds) {
  if (seconds < 0) throw MpiError{"compute: negative time"};
  detail::RankState& rs = rank_state(rank);
  double t = seconds * 1e9;
  const double sigma = options_.cluster.host.compute_jitter_sigma;
  if (sigma > 0) t *= std::exp(rs.rng.normal(0.0, sigma));
  rs.process->delay(des::Duration{static_cast<std::int64_t>(t)});
}

// ---------------------------------------------------------------------------
// Engine-context message machinery
// ---------------------------------------------------------------------------

bool Runtime::envelope_match(const detail::RequestState& recv,
                             const detail::Inbound& inbound) noexcept {
  return (recv.source == kAnySource || recv.source == inbound.source) &&
         (recv.tag == kAnyTag || recv.tag == inbound.tag);
}

void Runtime::arrive(int dst, detail::Inbound inbound) {
  detail::RankState& rd = rank_state(dst);
  for (auto it = rd.posted_recvs.begin(); it != rd.posted_recvs.end(); ++it) {
    if (envelope_match(**it, inbound)) {
      auto recv = *it;
      rd.posted_recvs.erase(it);
      on_match(rd, recv, inbound);
      return;
    }
  }
  rd.unexpected.push_back(std::move(inbound));
  // Wake a rank parked in probe().
  if (rd.process) rd.process->unpark();
}

bool Runtime::match_posted_against_unexpected(
    detail::RankState& rank,
    const std::shared_ptr<detail::RequestState>& recv) {
  for (auto it = rank.unexpected.begin(); it != rank.unexpected.end(); ++it) {
    if (!envelope_match(*recv, *it)) continue;
    detail::Inbound inbound = std::move(*it);
    rank.unexpected.erase(it);
    on_match(rank, recv, inbound);
    return true;
  }
  return false;
}

void Runtime::on_match(detail::RankState& rank,
                       const std::shared_ptr<detail::RequestState>& recv,
                       const detail::Inbound& inbound) {
  if (inbound.is_rts) {
    grant_rendezvous(rank, recv, inbound);
  } else {
    complete_recv_at(recv, inbound,
                     engine_.now() + recv_cost(rank, inbound.bytes));
  }
}

void Runtime::grant_rendezvous(detail::RankState& rank,
                               const std::shared_ptr<detail::RequestState>& recv,
                               const detail::Inbound& inbound) {
  // File the receiver half, then CTS back on the reverse-direction
  // stream. The id alone lets the CTS
  // handler find the sender half.
  const int src = inbound.source;
  const int dst = rank.rank.value();
  rdv_in_.emplace(inbound.rendezvous, RendezvousIn{.recv_request = recv,
                                                   .src_rank = src,
                                                   .tag = inbound.tag,
                                                   .bytes = inbound.bytes});
  transport_.send(stream_id(dst, src), rank.node, rank_state(src).node,
                  options_.cluster.mpi.rendezvous_ctrl,
                  [this, id = inbound.rendezvous] { cts_arrive(id); });
}

void Runtime::cts_arrive(std::uint64_t rendezvous) {
  // The CTS landed at the sender's node.
  auto it = rdv_out_.find(rendezvous);
  if (it == rdv_out_.end()) {
    throw MpiError{"internal: CTS for unknown rendezvous"};
  }
  RendezvousOut pending = std::move(it->second);
  rdv_out_.erase(it);
  const int src = pending.src_rank;
  detail::RankState& rs = rank_state(src);
  const auto& mpi = options_.cluster.mpi;
  const int dst = pending.dst_rank;
  const std::uint64_t id = rendezvous;
  // The payload travels inside the delivery closure; the receiver half
  // holds everything else it needs.
  transport_.send(stream_id(src, dst), rs.node, rank_state(dst).node,
                  pending.bytes + mpi.eager_header,
                  [this, dst, id, payload = std::move(pending.payload)] {
                    rendezvous_data_arrive(dst, id, payload);
                  });
  // The sender's copy through the socket layer completes the send request.
  const des::Duration copy{
      static_cast<std::int64_t>(options_.cluster.host.copy_ns_per_byte *
                                pending.bytes.to_double())};
  complete_send_at(pending.send_request,
                   engine_.now() + jittered(rs, copy));
}

void Runtime::rendezvous_data_arrive(
    int dst, std::uint64_t rendezvous,
    std::shared_ptr<std::vector<std::byte>> payload) {
  auto it = rdv_in_.find(rendezvous);
  if (it == rdv_in_.end()) {
    throw MpiError{"internal: data for unknown rendezvous"};
  }
  RendezvousIn pending = std::move(it->second);
  rdv_in_.erase(it);
  detail::RankState& rd = rank_state(dst);
  detail::Inbound inbound{.source = pending.src_rank,
                          .tag = pending.tag,
                          .bytes = pending.bytes,
                          .is_rts = false,
                          .rendezvous = 0,
                          .payload = std::move(payload)};
  complete_recv_at(pending.recv_request, inbound,
                   engine_.now() + recv_cost(rd, inbound.bytes));
}

void Runtime::complete_recv_at(
    const std::shared_ptr<detail::RequestState>& recv,
    const detail::Inbound& inbound, des::SimTime when) {
  engine_.schedule_at(when, [this, recv, inbound] {
    recv->status = Status{inbound.source, inbound.tag, inbound.bytes};
    if (inbound.bytes > recv->max_bytes) {
      recv->error = "recv truncation: message of " +
                    std::to_string(inbound.bytes.count()) + " bytes into " +
                    std::to_string(recv->max_bytes.count()) + "-byte buffer";
    } else if (inbound.payload && !recv->buffer.empty()) {
      const std::size_t n = std::min<std::size_t>(inbound.payload->size(),
                                                  recv->buffer.size());
      std::memcpy(recv->buffer.data(), inbound.payload->data(), n);
    }
    recv->complete = true;
    if (auto& process = rank_state(recv->owner).process) process->unpark();
  });
}

void Runtime::complete_send_at(
    const std::shared_ptr<detail::RequestState>& send, des::SimTime when) {
  engine_.schedule_at(when, [this, send] {
    send->complete = true;
    if (auto& process = rank_state(send->owner).process) process->unpark();
  });
}

}  // namespace smpi
