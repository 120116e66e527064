// The cluster network: per-node NIC links, a chain of switches joined by
// stacking trunks, and hop-by-hop packet forwarding with store-and-forward
// switch latency — the Perseus topology from the paper.
//
// The forwarding hot path is allocation-free in steady state: routes are
// computed once per (src, dst) pair and reused as spans into per-pair
// arrays, and each in-flight packet is tracked by a pool-allocated transit
// record addressed by index, so the per-hop events capture only
// (network, index) and no std::function is built per hop; the user's
// callbacks wait in the record until the packet arrives or is lost.
//
// Partitioned mode (the conservative parallel engine): each switch — its
// node NICs, its forwarding fabric, and the trunk to its upper neighbour —
// is one logical process, and every link is tagged with it
// (Link::partition()). All partitions run on the set's one des::Engine and
// share one transit pool and one route cache; a transit record is touched
// only by the partition its packet is in. A frame whose next hop belongs to
// another partition is resolved at submit time on the last link this
// partition owns (Link::submit_resolved) and the continuation is posted
// through PartitionSet::post, arriving at least min-link-latency +
// switch-latency later — the lookahead (ClusterParams::lookahead()). A
// single-switch cluster is one partition: no boundaries exist and no posts
// happen. The des::Engine constructor puts every switch on one engine with
// no boundaries either; it is the harness for network-level tests and
// benches, not a mode of smpi::Runtime.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "des/engine.h"
#include "des/partitioned_engine.h"
#include "net/calibration.h"
#include "net/link.h"
#include "net/packet.h"

namespace net {

class Network {
 public:
  using DeliverFn = std::function<void(const Packet&)>;
  using DropFn = std::function<void(const Packet&)>;

  /// Single-engine network: every link on one engine, one partition.
  Network(des::Engine& engine, ClusterParams params);

  /// Switch-partitioned network over a conservative parallel engine set,
  /// which must have exactly params.switch_count() partitions.
  Network(des::PartitionSet& sim, ClusterParams params);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] const ClusterParams& params() const noexcept { return params_; }
  [[nodiscard]] int nodes() const noexcept { return params_.nodes; }
  [[nodiscard]] int partitions() const noexcept {
    return sim_ ? sim_->partitions() : 1;
  }
  [[nodiscard]] units::PartitionId partition_of_node(int node) const noexcept {
    return units::PartitionId{sim_ ? params_.switch_of(node) : 0};
  }

  /// Sends a packet from packet.src_node to packet.dst_node. `deliver`
  /// fires at arrival at the destination host; `drop` fires (at the drop
  /// instant) if any hop's queue overflows. src == dst is not routed here
  /// (intra-node traffic uses the SMP channel in the MPI layer). In
  /// partitioned mode the call must come from the source node's partition
  /// context; `deliver` then runs in the destination node's partition.
  void send(const Packet& packet, DeliverFn deliver, DropFn drop);

  /// Number of links a src->dst packet traverses (NICs + trunks). Computed
  /// arithmetically; no route is materialised.
  [[nodiscard]] int hop_count(int src_node, int dst_node) const;

  /// Builds a fresh route (link sequence) for src -> dst. Exposed for
  /// tests; the forwarding path uses the cached route_span() instead.
  [[nodiscard]] std::vector<Link*> route(int src_node, int dst_node) const;

  /// Cached route for src -> dst: computed on first use, stable for the
  /// lifetime of the Network.
  [[nodiscard]] std::span<Link* const> route_span(int src_node, int dst_node);

  // Link accessors for statistics and tests.
  [[nodiscard]] Link& nic_tx(int node) { return *nic_tx_.at(node); }
  [[nodiscard]] Link& nic_rx(int node) { return *nic_rx_.at(node); }
  [[nodiscard]] Link& fabric(int switch_index) {
    return *fabric_.at(switch_index);
  }
  /// Shared (half-duplex) stacking trunk between switch s and s+1.
  [[nodiscard]] Link& trunk(int lower_switch);

  [[nodiscard]] std::uint64_t total_drops() const noexcept;
  /// Packets lost to injected faults across all links (0 when fault
  /// injection is disabled).
  [[nodiscard]] std::uint64_t total_faults() const noexcept;
  [[nodiscard]] std::string stats_csv() const;
  void reset_stats() noexcept;

 private:
  static constexpr std::uint32_t kNil = UINT32_MAX;

  /// One in-flight packet, from send() until delivery or loss; the link at
  /// its current hop belongs to the partition it is in. Pool-allocated and
  /// addressed by index so per-hop callbacks, boundary handoffs included,
  /// capture 16 bytes.
  struct Transit {
    Packet packet{};
    std::span<Link* const> path{};
    std::uint32_t hop = 0;
    std::uint32_t next_free = kNil;
    DeliverFn deliver;
    DropFn drop;
  };

  /// Lazily-filled per-(src,dst) route storage; `len == 0` means unfilled
  /// (every valid route has at least 3 links).
  struct CachedRoute {
    std::unique_ptr<Link*[]> links;
    std::uint32_t len = 0;
  };

  void build_links();
  /// Calls fn(Link&) on every link in construction order (NIC tx, NIC rx,
  /// fabrics, trunks), which fault seeding and the stats rows follow.
  template <typename Fn>
  void for_each_link(Fn&& fn) const {
    for (const auto* links : {&nic_tx_, &nic_rx_, &fabric_, &trunk_}) {
      for (const std::unique_ptr<Link>& link : *links) fn(*link);
    }
  }
  [[nodiscard]] std::uint32_t acquire_transit();
  void release_transit(std::uint32_t index) noexcept;

  /// Submits the transit's packet to the link at its current hop; the
  /// arrival event advances the hop (after the store-and-forward switch
  /// latency) until the final link delivers to the destination host, or a
  /// partition boundary hands the continuation to the neighbour.
  void forward_hop(std::uint32_t index);
  /// Releases the record, then runs its deliver (or drop) callback.
  void finish_transit(std::uint32_t index, bool delivered);

  void check_route_args(int src_node, int dst_node) const;

  des::PartitionSet* sim_ = nullptr;  ///< null in sequential mode
  des::Engine& engine_;  ///< the one engine every partition runs on
  ClusterParams params_;
  std::vector<std::unique_ptr<Link>> nic_tx_;
  std::vector<std::unique_ptr<Link>> nic_rx_;
  /// One shared forwarding fabric per switch; every frame entering the
  /// switch crosses it once.
  std::vector<std::unique_ptr<Link>> fabric_;
  /// trunk_[s] joins switch s and s+1, owned by partition s (both
  /// directions: the 510T stacking matrix behaves as a shared bus — both
  /// directions contend for the same 2.1 Gbit/s, which is what makes the
  /// paper's 24 x 84.25 Mbit/s = 2.02 Gbit/s offered load saturate it).
  std::vector<std::unique_ptr<Link>> trunk_;

  std::vector<CachedRoute> route_cache_;  ///< src * nodes + dst
  std::deque<Transit> transits_;  ///< stable addresses while growing
  std::uint32_t transit_free_ = kNil;
};

}  // namespace net
