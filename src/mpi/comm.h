// User-facing communicator for the simulated MPI.
//
// The API mirrors the MPI subset used by the paper's applications, with
// byte-span payloads (data really moves, so application numerics can be
// verified) plus payloadless `_bytes` variants for benchmarking, where only
// message sizes matter.
//
// Every call must be made from the owning rank's process context (i.e.
// inside the rank_main passed to Runtime::run).
//
// Tags: user tags must lie in [0, 1<<20); higher tags are reserved for
// collective implementations.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "mpi/runtime.h"
#include "mpi/types.h"

namespace smpi {

/// Reduction operators for the typed collectives.
enum class ReduceOp { kSum, kMin, kMax };

class Comm {
 public:
  Comm(Runtime& runtime, int rank) : runtime_{runtime}, rank_{rank} {}

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept { return runtime_.nprocs(); }
  [[nodiscard]] int node() const noexcept { return runtime_.node_of(rank_); }

  // ---- time ----

  /// This rank's local clock in seconds (offset + drift included), like
  /// MPI_Wtime on an unsynchronised cluster. MPIBench synchronises these.
  [[nodiscard]] double wtime() const;
  /// Ground-truth virtual time (exact global clock; tests only — real
  /// clusters have no such clock, which is why MPIBench exists).
  [[nodiscard]] des::SimTime sim_now() const noexcept;

  /// Spends `seconds` of virtual CPU time (the Serial directive analogue).
  void compute(double seconds);

  // ---- point-to-point ----

  void send(std::span<const std::byte> data, int dest, int tag = 0);
  void send_bytes(net::Bytes bytes, int dest, int tag = 0);
  Status recv(std::span<std::byte> buffer, int source = kAnySource,
              int tag = kAnyTag);
  Status recv_bytes(net::Bytes max_bytes, int source = kAnySource,
                    int tag = kAnyTag);

  [[nodiscard]] Request isend(std::span<const std::byte> data, int dest,
                              int tag = 0);
  [[nodiscard]] Request isend_bytes(net::Bytes bytes, int dest, int tag = 0);
  [[nodiscard]] Request irecv(std::span<std::byte> buffer,
                              int source = kAnySource, int tag = kAnyTag);
  [[nodiscard]] Request irecv_bytes(net::Bytes max_bytes,
                                    int source = kAnySource, int tag = kAnyTag);

  void wait(const Request& request);
  Status wait_status(const Request& request);
  void waitall(std::span<const Request> requests);
  [[nodiscard]] bool test(const Request& request);
  Status probe(int source = kAnySource, int tag = kAnyTag);
  [[nodiscard]] std::optional<Status> iprobe(int source = kAnySource,
                                             int tag = kAnyTag);

  /// Combined send + receive (distinct buffers), deadlock-free.
  Status sendrecv(std::span<const std::byte> send_data, int dest, int send_tag,
                  std::span<std::byte> recv_buffer, int source, int recv_tag);

  // ---- typed convenience ----

  template <typename T>
  void send_value(const T& value, int dest, int tag = 0) {
    send(std::as_bytes(std::span<const T, 1>{&value, 1}), dest, tag);
  }
  template <typename T>
  T recv_value(int source = kAnySource, int tag = kAnyTag) {
    T value{};
    recv(std::as_writable_bytes(std::span<T, 1>{&value, 1}), source, tag);
    return value;
  }

  // ---- collectives (MPICH 1.2-era algorithms, built on the p2p layer) ----

  /// Dissemination barrier: ceil(log2 P) rounds of paired messages.
  void barrier();
  /// Binomial-tree broadcast of real data.
  void bcast(std::span<std::byte> data, int root);
  /// Binomial-tree broadcast of a payloadless message.
  void bcast_bytes(net::Bytes bytes, int root);
  /// Binomial-tree reduction; `in`/`out` have equal length, result at root.
  void reduce(std::span<const double> in, std::span<double> out, ReduceOp op,
              int root);
  /// Reduce to rank 0 followed by broadcast (the MPICH 1.2 allreduce).
  void allreduce(std::span<const double> in, std::span<double> out,
                 ReduceOp op);
  [[nodiscard]] double allreduce_one(double value, ReduceOp op);
  /// Linear gather: every rank sends `block` bytes of data to root, which
  /// receives them in rank order into `recv` (size = block * P at root).
  void gather(std::span<const std::byte> block, std::span<std::byte> recv,
              int root);
  /// Linear scatter from root.
  void scatter(std::span<const std::byte> send, std::span<std::byte> block,
               int root);
  /// Ring allgather.
  void allgather(std::span<const std::byte> block, std::span<std::byte> recv);
  /// Pairwise-exchange all-to-all; `send`/`recv` are P blocks of
  /// `block_bytes` each.
  void alltoall(std::span<const std::byte> send, std::span<std::byte> recv,
                std::size_t block_bytes);
  void alltoall_bytes(net::Bytes block_bytes);

 private:
  void check_peer(int peer, const char* who) const;
  // Unchecked variants used by collectives (reserved tag space).
  void send_raw(std::span<const std::byte> data, int dest, int tag);
  void recv_raw(std::span<std::byte> buffer, int source, int tag);
  /// Receive and send of `bytes` each (the payload spans are empty for a
  /// payloadless message), then wait for both.
  void sendrecv_raw(std::span<const std::byte> send_data, int dest,
                    std::span<std::byte> recv_buffer, int source, int tag,
                    net::Bytes bytes);
  /// One schedule per collective: the payload forms pass their buffers,
  /// the `_bytes` forms empty spans and the byte count alone.
  void bcast_tree(std::span<std::byte> data, net::Bytes bytes, int root);
  void alltoall_rounds(std::span<const std::byte> send_all,
                       std::span<std::byte> recv_all, net::Bytes block);
  static void combine(std::span<double> acc, std::span<const double> in,
                      ReduceOp op) noexcept;

  Runtime& runtime_;
  int rank_;
};

/// First tag reserved for internal (collective) use.
inline constexpr int kReservedTagBase = 1 << 20;

}  // namespace smpi
