// The simulated MPI runtime.
//
// Ranks are cooperative DES processes placed block-wise onto cluster nodes
// (rank r lives on node r / procs_per_node, as an ordered MPICH machinefile
// would do). Inter-node messages travel through the TCP-lite transport over
// the packet network; intra-node messages use an SMP shared-memory channel.
// The messaging protocol mirrors MPICH 1.2:
//
//   * eager for payloads below ClusterParams::mpi.eager_threshold — the
//     sender pays the software overhead, hands the framed message to the
//     transport and completes locally;
//   * rendezvous at or above the threshold — RTS control message, CTS from
//     the receiver once a matching receive is posted, then the data. This
//     protocol switch is what produces the 16 KB knee in Figure 2.
//
// Each rank also has a skewed local clock (offset + drift); MPIBench's
// clock-synchronisation algorithm runs against these imperfect clocks just
// as the real tool did against unsynchronised node clocks.
//
// The simulation runs on one des::Engine, which the runtime owns. A
// multi-switch cluster orders its trunk crossings and cross-switch
// transport registrations by the cross key of des::Engine::cross_tag
// (net/network.h, DESIGN.md section 9). Rendezvous bookkeeping is split
// into a sender half and a receiver half, each in one map keyed by a
// rendezvous id that is unique across ranks.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "des/engine.h"
#include "des/process.h"
#include "net/cluster.h"
#include "net/network.h"
#include "net/transport.h"
#include "mpi/types.h"
#include "stats/rng.h"

namespace smpi {

class Comm;

namespace detail {

struct RequestState {
  enum class Kind : std::uint8_t { kSend, kRecv };
  Kind kind = Kind::kSend;
  int owner = -1;       ///< rank that owns the request
  bool complete = false;

  // Receive-side matching criteria and destination buffer.
  int source = kAnySource;
  int tag = kAnyTag;
  std::span<std::byte> buffer{};
  net::Bytes max_bytes{};
  Status status{};
  /// Non-empty on failure (e.g. truncation); rethrown by Comm::wait.
  std::string error;
};

/// A message that arrived (eager payload) or announced itself (rendezvous
/// RTS) before a matching receive was posted, or any arrival waiting in
/// envelope order.
struct Inbound {
  int source = -1;
  int tag = kAnyTag;
  net::Bytes bytes{};
  bool is_rts = false;
  std::uint64_t rendezvous = 0;                    ///< RTS id
  std::shared_ptr<std::vector<std::byte>> payload; ///< may be null
};

struct RankState {
  units::Rank rank{};
  int node = -1;
  std::unique_ptr<des::Process> process;
  stats::Rng rng{1};
  double clock_offset_s = 0.0;  ///< local clock = t * (1 + drift) + offset
  double clock_drift = 0.0;

  std::deque<std::shared_ptr<RequestState>> posted_recvs;
  std::deque<Inbound> unexpected;
  /// Enforces non-overtaking arrival order on the SMP channel, per sender.
  std::map<int, des::SimTime> smp_last_arrival;
  /// Rank-local rendezvous counter; combined with the rank it yields ids
  /// that are unique without a shared counter.
  std::uint64_t next_rendezvous = 1;

  // Statistics.
  std::uint64_t messages_sent = 0;
  net::Bytes bytes_sent{};
};

}  // namespace detail

class Runtime {
 public:
  struct Options {
    net::ClusterParams cluster{};
    int nprocs = 2;
    int procs_per_node = 1;
    std::uint64_t seed = 1;
    /// Uninitialised-cluster clock error envelope: offsets are drawn
    /// uniformly in +-clock_offset_max_s, drifts in +-clock_drift_max.
    double clock_offset_max_s = 5e-3;
    double clock_drift_max = 2e-5;
  };

  explicit Runtime(Options options);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Launches `rank_main` on every rank and runs the simulation to
  /// completion. Throws DeadlockError if ranks remain blocked with no
  /// pending events, and rethrows the first rank exception otherwise.
  /// May be called once per Runtime.
  void run(const std::function<void(Comm&)>& rank_main);

  [[nodiscard]] int nprocs() const noexcept { return options_.nprocs; }
  [[nodiscard]] const Options& options() const noexcept { return options_; }
  /// Virtual time at which the last rank finished.
  [[nodiscard]] des::SimTime elapsed() const noexcept { return finish_time_; }

  [[nodiscard]] des::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] net::Network& network() noexcept { return network_; }
  [[nodiscard]] net::Transport& transport() noexcept { return transport_; }
  [[nodiscard]] int node_of(int rank) const;

 private:
  friend class Comm;

  detail::RankState& rank_state(int rank);
  [[nodiscard]] stats::Rng& rng_of(int rank);

  // ---- process-context operations (called via Comm from rank fibers) ----
  Request isend(int src, std::span<const std::byte> data, net::Bytes bytes,
                int dst, int tag);
  Request irecv(int dst, std::span<std::byte> buffer, net::Bytes max_bytes,
                int source, int tag);
  void wait(int rank, const Request& request);
  [[nodiscard]] bool test(const Request& request) const noexcept;
  Status probe(int rank, int source, int tag);
  [[nodiscard]] std::optional<Status> iprobe(int rank, int source, int tag);
  void compute(int rank, double seconds);

  // ---- engine-context message machinery ----
  /// An eager message or a rendezvous RTS reaching `dst`: matched against
  /// the first fitting posted receive (see on_match), else queued as
  /// unexpected.
  void arrive(int dst, detail::Inbound inbound);
  void cts_arrive(std::uint64_t rendezvous);
  void rendezvous_data_arrive(int dst, std::uint64_t rendezvous,
                              std::shared_ptr<std::vector<std::byte>> payload);

  /// Matches a posted receive against an inbound message; returns true and
  /// completes/advances the protocol if they match.
  [[nodiscard]] static bool envelope_match(const detail::RequestState& recv,
                                           const detail::Inbound& inbound) noexcept;
  /// Tries to match a newly-posted receive against the unexpected queue.
  bool match_posted_against_unexpected(detail::RankState& rank,
                                       const std::shared_ptr<detail::RequestState>& recv);
  /// What a match does: an RTS grants the rendezvous; an eager message
  /// completes the receive after the receive overhead.
  void on_match(detail::RankState& rank,
                const std::shared_ptr<detail::RequestState>& recv,
                const detail::Inbound& inbound);
  /// Completes a receive request at `when` (engine event) and unparks.
  void complete_recv_at(const std::shared_ptr<detail::RequestState>& recv,
                        const detail::Inbound& inbound, des::SimTime when);
  void complete_send_at(const std::shared_ptr<detail::RequestState>& send,
                        des::SimTime when);
  /// Receiver-side software cost for a message of `bytes`.
  [[nodiscard]] des::Duration recv_cost(detail::RankState& rank,
                                        net::Bytes bytes);
  [[nodiscard]] des::Duration send_cost(detail::RankState& rank,
                                        net::Bytes bytes);
  /// Lognormal multiplicative jitter plus rare spikes.
  [[nodiscard]] des::Duration jittered(detail::RankState& rank,
                                       des::Duration base);

  /// Sends the CTS for a matched rendezvous and records the waiting recv.
  void grant_rendezvous(detail::RankState& rank,
                        const std::shared_ptr<detail::RequestState>& recv,
                        const detail::Inbound& inbound);

  [[nodiscard]] static std::uint64_t stream_id(int src_rank, int dst_rank) noexcept {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src_rank))
            << 32) |
           static_cast<std::uint32_t>(dst_rank);
  }
  /// Rendezvous ids carry the source rank (biased so id 0 never occurs)
  /// next to the rank-local counter, so they are unique without a shared
  /// counter.
  [[nodiscard]] static std::uint64_t rendezvous_id(int src_rank,
                                                   std::uint64_t n) noexcept {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src_rank) + 1)
            << 32) |
           static_cast<std::uint32_t>(n);
  }

  Options options_;
  des::Engine engine_;
  net::Network network_;
  net::Transport transport_;

  std::vector<std::unique_ptr<detail::RankState>> ranks_;
  std::vector<std::unique_ptr<Comm>> comms_;

  /// Sender-side half of an in-flight rendezvous.
  struct RendezvousOut {
    std::shared_ptr<detail::RequestState> send_request;
    int src_rank = -1;
    int dst_rank = -1;
    net::Bytes bytes{};
    std::shared_ptr<std::vector<std::byte>> payload;
  };
  /// Receiver-side half, from the moment the receive matches the RTS.
  struct RendezvousIn {
    std::shared_ptr<detail::RequestState> recv_request;
    int src_rank = -1;
    int tag = kAnyTag;
    net::Bytes bytes{};
  };
  std::map<std::uint64_t, RendezvousOut> rdv_out_;
  std::map<std::uint64_t, RendezvousIn> rdv_in_;

  des::SimTime finish_time_{};
  bool ran_ = false;
};

}  // namespace smpi
