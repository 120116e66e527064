#include "mpi/comm.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace smpi {
namespace {

void check_tag(int tag) {
  if (tag < 0 || tag >= kReservedTagBase) {
    throw MpiError{"tag outside the user range [0, 1<<20)"};
  }
}

/// Tags used by the collective implementations.
enum CollTag : int {
  kTagBarrier = kReservedTagBase,
  kTagBcast,
  kTagReduce,
  kTagGather,
  kTagScatter,
  kTagAllgather,
  kTagAlltoall,
};

}  // namespace

double Comm::wtime() const {
  const auto& state = runtime_.rank_state(rank_);
  // Virtual time: the shared engine's now(), read while this rank's process
  // runs.
  const double t = runtime_.engine().now().to_seconds();
  return t * (1.0 + state.clock_drift) + state.clock_offset_s;
}

des::SimTime Comm::sim_now() const noexcept {
  return runtime_.engine().now();
}

void Comm::compute(double seconds) { runtime_.compute(rank_, seconds); }

void Comm::check_peer(int peer, const char* who) const {
  if (peer < 0 || peer >= size()) {
    throw MpiError{std::string{who} + ": peer rank out of range"};
  }
}


void Comm::send_raw(std::span<const std::byte> data, int dest, int tag) {
  wait(runtime_.isend(rank_, data, net::Bytes{data.size()}, dest, tag));
}

void Comm::recv_raw(std::span<std::byte> buffer, int source, int tag) {
  wait(runtime_.irecv(rank_, buffer, net::Bytes{buffer.size()}, source, tag));
}

void Comm::sendrecv_raw(std::span<const std::byte> send_data, int dest,
                        std::span<std::byte> recv_buffer, int source, int tag,
                        net::Bytes bytes) {
  const Request recv_req =
      runtime_.irecv(rank_, recv_buffer, bytes, source, tag);
  const Request send_req = runtime_.isend(rank_, send_data, bytes, dest, tag);
  wait(send_req);
  wait(recv_req);
}

// ---------------------------------------------------------------------------
// Point-to-point
// ---------------------------------------------------------------------------

Request Comm::isend(std::span<const std::byte> data, int dest, int tag) {
  check_peer(dest, "isend");
  check_tag(tag);
  return runtime_.isend(rank_, data, net::Bytes{data.size()}, dest, tag);
}

Request Comm::isend_bytes(net::Bytes bytes, int dest, int tag) {
  check_peer(dest, "isend_bytes");
  check_tag(tag);
  return runtime_.isend(rank_, {}, bytes, dest, tag);
}

Request Comm::irecv(std::span<std::byte> buffer, int source, int tag) {
  if (source != kAnySource) check_peer(source, "irecv");
  if (tag != kAnyTag) check_tag(tag);
  return runtime_.irecv(rank_, buffer, net::Bytes{buffer.size()}, source,
                        tag);
}

Request Comm::irecv_bytes(net::Bytes max_bytes, int source, int tag) {
  if (source != kAnySource) check_peer(source, "irecv_bytes");
  if (tag != kAnyTag) check_tag(tag);
  return runtime_.irecv(rank_, {}, max_bytes, source, tag);
}

void Comm::send(std::span<const std::byte> data, int dest, int tag) {
  wait(isend(data, dest, tag));
}

void Comm::send_bytes(net::Bytes bytes, int dest, int tag) {
  wait(isend_bytes(bytes, dest, tag));
}

Status Comm::recv(std::span<std::byte> buffer, int source, int tag) {
  return wait_status(irecv(buffer, source, tag));
}

Status Comm::recv_bytes(net::Bytes max_bytes, int source, int tag) {
  return wait_status(irecv_bytes(max_bytes, source, tag));
}

void Comm::wait(const Request& request) { runtime_.wait(rank_, request); }

Status Comm::wait_status(const Request& request) {
  runtime_.wait(rank_, request);
  return request.state()->status;
}

void Comm::waitall(std::span<const Request> requests) {
  for (const Request& request : requests) wait(request);
}

bool Comm::test(const Request& request) { return runtime_.test(request); }

Status Comm::probe(int source, int tag) {
  return runtime_.probe(rank_, source, tag);
}

std::optional<Status> Comm::iprobe(int source, int tag) {
  return runtime_.iprobe(rank_, source, tag);
}

Status Comm::sendrecv(std::span<const std::byte> send_data, int dest,
                      int send_tag, std::span<std::byte> recv_buffer,
                      int source, int recv_tag) {
  const Request recv_req = irecv(recv_buffer, source, recv_tag);
  const Request send_req = isend(send_data, dest, send_tag);
  wait(send_req);
  return wait_status(recv_req);
}

// ---------------------------------------------------------------------------
// Collectives. Internal messages use reserved tags; a "round" stamp is not
// needed because per-pair ordering is guaranteed by the transport.
// ---------------------------------------------------------------------------

void Comm::barrier() {
  const int p = size();
  if (p == 1) return;
  // Dissemination barrier: after round i every rank has heard transitively
  // from 2^(i+1) ranks; ceil(log2 p) rounds synchronise everyone.
  for (int step = 1; step < p; step *= 2) {
    const int to = (rank_ + step) % p;
    const int from = (rank_ - step % p + p) % p;
    sendrecv_raw({}, to, {}, from, kTagBarrier, net::Bytes{});
  }
}

void Comm::bcast(std::span<std::byte> data, int root) {
  check_peer(root, "bcast");
  bcast_tree(data, net::Bytes{data.size()}, root);
}

void Comm::bcast_bytes(net::Bytes bytes, int root) {
  check_peer(root, "bcast_bytes");
  bcast_tree({}, bytes, root);
}

void Comm::bcast_tree(std::span<std::byte> data, net::Bytes bytes, int root) {
  const int p = size();
  if (p == 1) return;
  // Binomial tree on ranks relative to root.
  const int vrank = (rank_ - root + p) % p;
  // Receive from parent (highest set bit of vrank).
  if (vrank != 0) {
    const int parent_v = vrank & (vrank - 1);  // clear lowest set bit
    const int parent = (parent_v + root) % p;
    wait(runtime_.irecv(rank_, data, bytes, parent, kTagBcast));
  }
  // Forward to children: vrank + 2^k for k above our lowest set bit range.
  for (int bit = 1; bit < p; bit *= 2) {
    if (vrank & bit) break;        // bits below our lowest set bit only
    const int child_v = vrank | bit;
    if (child_v == vrank || child_v >= p) continue;
    const int child = (child_v + root) % p;
    wait(runtime_.isend(rank_, data, bytes, child, kTagBcast));
  }
}

void Comm::combine(std::span<double> acc, std::span<const double> in,
                   ReduceOp op) noexcept {
  for (std::size_t i = 0; i < acc.size(); ++i) {
    switch (op) {
      case ReduceOp::kSum: acc[i] += in[i]; break;
      case ReduceOp::kMin: acc[i] = std::min(acc[i], in[i]); break;
      case ReduceOp::kMax: acc[i] = std::max(acc[i], in[i]); break;
    }
  }
}

void Comm::reduce(std::span<const double> in, std::span<double> out,
                  ReduceOp op, int root) {
  check_peer(root, "reduce");
  if (rank_ == root && out.size() != in.size()) {
    throw MpiError{"reduce: out span must match in span at root"};
  }
  const int p = size();
  std::vector<double> acc(in.begin(), in.end());
  std::vector<double> incoming(in.size());
  const int vrank = (rank_ - root + p) % p;
  // Mirror image of the binomial bcast: children send up, parents combine.
  for (int bit = 1; bit < p; bit *= 2) {
    if (vrank & bit) {
      const int parent_v = vrank & ~bit;
      const int parent = (parent_v + root) % p;
      send_raw(std::as_bytes(std::span<const double>{acc}), parent,
               kTagReduce);
      break;
    }
    const int child_v = vrank | bit;
    if (child_v >= p) continue;
    const int child = (child_v + root) % p;
    recv_raw(std::as_writable_bytes(std::span<double>{incoming}), child,
             kTagReduce);
    combine(acc, incoming, op);
  }
  if (rank_ == root) std::copy(acc.begin(), acc.end(), out.begin());
}

void Comm::allreduce(std::span<const double> in, std::span<double> out,
                     ReduceOp op) {
  if (out.size() != in.size()) {
    throw MpiError{"allreduce: span sizes differ"};
  }
  // MPICH 1.2 composed allreduce as reduce-to-0 plus bcast.
  std::vector<double> reduced(in.size());
  reduce(in, reduced, op, 0);
  if (rank_ == 0) std::copy(reduced.begin(), reduced.end(), out.begin());
  bcast(std::as_writable_bytes(std::span<double>{out}), 0);
}

double Comm::allreduce_one(double value, ReduceOp op) {
  double out = 0.0;
  allreduce(std::span<const double>{&value, 1}, std::span<double>{&out, 1},
            op);
  return out;
}

void Comm::gather(std::span<const std::byte> block, std::span<std::byte> recv_all,
                  int root) {
  check_peer(root, "gather");
  const int p = size();
  if (rank_ == root) {
    if (recv_all.size() < block.size() * static_cast<std::size_t>(p)) {
      throw MpiError{"gather: recv buffer too small at root"};
    }
    std::memcpy(recv_all.data() + block.size() * static_cast<std::size_t>(rank_),
                block.data(), block.size());
    for (int r = 0; r < p; ++r) {
      if (r == root) continue;
      recv_raw(recv_all.subspan(block.size() * static_cast<std::size_t>(r),
                                block.size()),
               r, kTagGather);
    }
  } else {
    send_raw(block, root, kTagGather);
  }
}

void Comm::scatter(std::span<const std::byte> send_all,
                   std::span<std::byte> block, int root) {
  check_peer(root, "scatter");
  const int p = size();
  if (rank_ == root) {
    if (send_all.size() < block.size() * static_cast<std::size_t>(p)) {
      throw MpiError{"scatter: send buffer too small at root"};
    }
    for (int r = 0; r < p; ++r) {
      if (r == root) continue;
      send_raw(send_all.subspan(block.size() * static_cast<std::size_t>(r),
                                block.size()),
               r, kTagScatter);
    }
    std::memcpy(block.data(),
                send_all.data() + block.size() * static_cast<std::size_t>(rank_),
                block.size());
  } else {
    recv_raw(block, root, kTagScatter);
  }
}

void Comm::allgather(std::span<const std::byte> block,
                     std::span<std::byte> recv_all) {
  const int p = size();
  const std::size_t bs = block.size();
  if (recv_all.size() < bs * static_cast<std::size_t>(p)) {
    throw MpiError{"allgather: recv buffer too small"};
  }
  std::memcpy(recv_all.data() + bs * static_cast<std::size_t>(rank_),
              block.data(), bs);
  // Ring: in step s, pass along the block that originated s hops upstream.
  const int to = (rank_ + 1) % p;
  const int from = (rank_ - 1 + p) % p;
  for (int step = 0; step < p - 1; ++step) {
    const int send_origin = (rank_ - step + p) % p;
    const int recv_origin = (rank_ - step - 1 + p) % p;
    sendrecv_raw(
        recv_all.subspan(bs * static_cast<std::size_t>(send_origin), bs), to,
        recv_all.subspan(bs * static_cast<std::size_t>(recv_origin), bs), from,
        kTagAllgather, net::Bytes{bs});
  }
}

void Comm::alltoall(std::span<const std::byte> send_all,
                    std::span<std::byte> recv_all, std::size_t block_bytes) {
  const int p = size();
  if (send_all.size() < block_bytes * static_cast<std::size_t>(p) ||
      recv_all.size() < block_bytes * static_cast<std::size_t>(p)) {
    throw MpiError{"alltoall: buffers must hold P blocks"};
  }
  std::memcpy(recv_all.data() + block_bytes * static_cast<std::size_t>(rank_),
              send_all.data() + block_bytes * static_cast<std::size_t>(rank_),
              block_bytes);
  alltoall_rounds(send_all, recv_all, net::Bytes{block_bytes});
}

void Comm::alltoall_bytes(net::Bytes block_bytes) {
  alltoall_rounds({}, {}, block_bytes);
}

void Comm::alltoall_rounds(std::span<const std::byte> send_all,
                           std::span<std::byte> recv_all, net::Bytes block) {
  const int p = size();
  // Rank r's block of a P-block buffer; nothing for the payloadless form.
  const auto block_of = [&](auto all, int r) {
    return all.empty() ? all
                       : all.subspan(block.count() * static_cast<std::size_t>(r),
                                     block.count());
  };
  // Pairwise exchange: in round i talk to rank +- i (xor schedule when P is
  // a power of two keeps every round perfectly paired).
  const bool pow2 = std::has_single_bit(static_cast<unsigned>(p));
  for (int round = 1; round < p; ++round) {
    const int to = pow2 ? (rank_ ^ round) : (rank_ + round) % p;
    const int from = pow2 ? (rank_ ^ round) : (rank_ - round + p) % p;
    sendrecv_raw(block_of(send_all, to), to, block_of(recv_all, from), from,
                 kTagAlltoall, block);
  }
}

}  // namespace smpi
