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
// Crossings: each link belongs to one switch (Link::switch_index(): a NIC
// to its node's switch, a fabric to its own, a trunk to the lower switch
// it joins). A hop onto a link of another switch is a crossing. Its
// outcome is resolved at submit time on the current link
// (Link::submit_resolved), and its continuation is scheduled at arrival +
// switch latency — at least ClusterParams::lookahead() ahead — under the
// cross key (time, priority, sched, 1, source switch, post order) of
// des::Engine::cross_tag. Every other hop is two plain events. A
// multi-switch cluster therefore has one event order, whoever builds the
// Network (DESIGN.md section 9).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "des/engine.h"
#include "net/calibration.h"
#include "net/link.h"
#include "net/packet.h"

namespace net {

class Network {
 public:
  using DeliverFn = std::function<void(const Packet&)>;
  using DropFn = std::function<void(const Packet&)>;

  /// Throws std::runtime_error when check_cluster() rejects `params`, and
  /// std::invalid_argument when a multi-switch cluster's lookahead()
  /// exceeds its safe_lookahead().
  Network(des::Engine& engine, ClusterParams params);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] const ClusterParams& params() const noexcept { return params_; }
  [[nodiscard]] int nodes() const noexcept { return params_.nodes; }

  /// Sends a packet from packet.src_node to packet.dst_node. `deliver`
  /// fires at arrival at the destination host; `drop` fires (at the drop
  /// instant) if any hop's queue overflows. src == dst is not routed here
  /// (intra-node traffic uses the SMP channel in the MPI layer).
  void send(const Packet& packet, DeliverFn deliver, DropFn drop);

  /// Schedules `fn` at `at` as a crossing out of switch `source`: under
  /// des::Engine::cross_tag(source), so it runs after every untagged event
  /// of equal (time, priority, sched). Both callers (a trunk-crossing hop
  /// and Transport's cross-switch registration) land at least lookahead()
  /// ahead of now by construction; checked builds assert it.
  void post_cross(int source, des::SimTime at, des::SmallFn fn);

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

  /// One in-flight packet, from send() until delivery or loss.
  /// Pool-allocated and addressed by index so per-hop callbacks, crossings
  /// included, capture 16 bytes.
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
  /// latency) until the final link delivers to the destination host; a
  /// hop onto another switch's link goes through post_cross().
  void forward_hop(std::uint32_t index);
  /// Releases the record, then runs its deliver (or drop) callback.
  void finish_transit(std::uint32_t index, bool delivered);

  void check_route_args(int src_node, int dst_node) const;

  des::Engine& engine_;
  ClusterParams params_;
  std::vector<std::unique_ptr<Link>> nic_tx_;
  std::vector<std::unique_ptr<Link>> nic_rx_;
  /// One shared forwarding fabric per switch; every frame entering the
  /// switch crosses it once.
  std::vector<std::unique_ptr<Link>> fabric_;
  /// trunk_[s] joins switch s and s+1, belongs to switch s (both
  /// directions: the 510T stacking matrix behaves as a shared bus — both
  /// directions contend for the same 2.1 Gbit/s, which is what makes the
  /// paper's 24 x 84.25 Mbit/s = 2.02 Gbit/s offered load saturate it).
  std::vector<std::unique_ptr<Link>> trunk_;

  std::vector<CachedRoute> route_cache_;  ///< src * nodes + dst
  std::deque<Transit> transits_;  ///< stable addresses while growing
  std::uint32_t transit_free_ = kNil;
};

}  // namespace net
