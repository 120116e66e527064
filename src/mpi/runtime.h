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
// (net/network.h, DESIGN.md section 9). Each rendezvous is one record,
// created by the sender and shared by the RTS, the CTS and the data
// closures that carry it, so no handler looks it up.
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

/// One rendezvous-protocol message, from the sender's RTS until its data
/// lands: the RTS, CTS and data closures each hold it.
struct Rendezvous {
  std::shared_ptr<RequestState> send_request;
  std::shared_ptr<RequestState> recv_request;  ///< set when a receive matches
  int src = -1;
  int dst = -1;
  int tag = kAnyTag;
  net::Bytes bytes{};
  std::shared_ptr<std::vector<std::byte>> payload;  ///< may be null
};

/// A message that arrived (eager payload) or announced itself (rendezvous
/// RTS) before a matching receive was posted, or any arrival waiting in
/// envelope order.
struct Inbound {
  int source = -1;
  int tag = kAnyTag;
  net::Bytes bytes{};
  std::shared_ptr<std::vector<std::byte>> payload;  ///< may be null
  std::shared_ptr<Rendezvous> rts;  ///< set for an RTS, null when eager
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
  /// The CTS reached the sender: sends the data and completes the send.
  void cts_arrive(const std::shared_ptr<detail::Rendezvous>& rendezvous);
  /// The data reached the receiver: completes the matched receive.
  void rendezvous_data_arrive(detail::Rendezvous& rendezvous);

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

  /// Records the matched receive in the rendezvous and sends the CTS.
  void grant_rendezvous(detail::RankState& rank,
                        const std::shared_ptr<detail::RequestState>& recv,
                        const std::shared_ptr<detail::Rendezvous>& rendezvous);

  [[nodiscard]] static std::uint64_t stream_id(int src_rank, int dst_rank) noexcept {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src_rank))
            << 32) |
           static_cast<std::uint32_t>(dst_rank);
  }

  Options options_;
  des::Engine engine_;
  net::Network network_;
  net::Transport transport_;

  std::vector<std::unique_ptr<detail::RankState>> ranks_;
  std::vector<std::unique_ptr<Comm>> comms_;

  des::SimTime finish_time_{};
  bool ran_ = false;
};

}  // namespace smpi
