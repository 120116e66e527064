#include "net/network.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "net/cluster.h"

namespace net {

Network::Network(des::Engine& engine, ClusterParams params)
    : engine_{engine}, params_{std::move(params)} {
  check_cluster(params_);
  // Compare against the derived bound, not lookahead(): a config override
  // must not be able to vouch for itself.
  if (params_.switch_count() > 1 &&
      params_.lookahead() > params_.safe_lookahead()) {
    throw std::invalid_argument{
        "Network: lookahead exceeds the topology's safe bound"};
  }
  build_links();
}

void Network::build_links() {
  nic_tx_.reserve(params_.nodes);
  nic_rx_.reserve(params_.nodes);
  for (int n = 0; n < params_.nodes; ++n) {
    const int sw = params_.switch_of(n);
    nic_tx_.push_back(std::make_unique<Link>(
        engine_, "nic_tx." + std::to_string(n), params_.nic, sw));
    nic_rx_.push_back(std::make_unique<Link>(
        engine_, "nic_rx." + std::to_string(n), params_.nic, sw));
  }
  const int switches = params_.switch_count();
  for (int s = 0; s < switches; ++s) {
    fabric_.push_back(std::make_unique<Link>(
        engine_, "fabric." + std::to_string(s), params_.fabric, s));
  }
  for (int s = 0; s + 1 < switches; ++s) {
    // The half-duplex trunk belongs to the lower switch, so a descending
    // route reaches it through a crossing.
    trunk_.push_back(std::make_unique<Link>(
        engine_, "trunk." + std::to_string(s), params_.trunk, s));
  }
  // Assigned rather than resized: gcc 12's -fanalyzer misreads the
  // libstdc++ default-append path of resize() as a null dereference.
  route_cache_ = std::vector<CachedRoute>(
      static_cast<std::size_t>(params_.nodes) * params_.nodes);

  // Fault injection: every link gets an independent RNG stream drawn from
  // the master seed in construction order, which is deterministic, so a
  // fixed seed reproduces the exact same loss pattern. With injection
  // disabled no model is installed and the fast path is untouched.
  if (params_.fault.enabled()) {
    stats::Rng seeder{params_.fault.seed};
    for_each_link([&](Link& link) {
      link.install_fault_model(
          std::make_unique<FaultModel>(params_.fault, seeder()));
    });
  }
}

Link& Network::trunk(int lower_switch) { return *trunk_.at(lower_switch); }

void Network::check_route_args(int src_node, int dst_node) const {
  if (src_node < 0 || src_node >= params_.nodes || dst_node < 0 ||
      dst_node >= params_.nodes) {
    throw std::out_of_range{"Network::route: node out of range"};
  }
  if (src_node == dst_node) {
    throw std::invalid_argument{
        "Network::route: intra-node traffic does not use the network"};
  }
}

std::vector<Link*> Network::route(int src_node, int dst_node) const {
  check_route_args(src_node, dst_node);
  std::vector<Link*> path;
  path.push_back(nic_tx_[src_node].get());
  const int s_src = params_.switch_of(src_node);
  const int s_dst = params_.switch_of(dst_node);
  // The forwarding fabric is charged once, where the frame enters the stack
  // from a node port; transit through further matrix cards is covered by
  // the trunk links themselves.
  path.push_back(fabric_[s_src].get());
  for (int s = s_src; s < s_dst; ++s) path.push_back(trunk_[s].get());
  for (int s = s_src; s > s_dst; --s) path.push_back(trunk_[s - 1].get());
  path.push_back(nic_rx_[dst_node].get());
  return path;
}

std::span<Link* const> Network::route_span(int src_node, int dst_node) {
  check_route_args(src_node, dst_node);
  CachedRoute& cached =
      route_cache_[static_cast<std::size_t>(src_node) * params_.nodes +
                   dst_node];
  if (cached.len == 0) {
    const std::vector<Link*> path = route(src_node, dst_node);
    cached.links = std::make_unique<Link*[]>(path.size());
    std::copy(path.begin(), path.end(), cached.links.get());
    cached.len = static_cast<std::uint32_t>(path.size());
  }
  return {cached.links.get(), cached.len};
}

int Network::hop_count(int src_node, int dst_node) const {
  check_route_args(src_node, dst_node);
  // nic_tx + entry fabric + one trunk per switch boundary crossed + nic_rx.
  const int s_src = params_.switch_of(src_node);
  const int s_dst = params_.switch_of(dst_node);
  const int trunks = s_src < s_dst ? s_dst - s_src : s_src - s_dst;
  return 3 + trunks;
}

std::uint32_t Network::acquire_transit() {
  if (transit_free_ != kNil) {
    const std::uint32_t index = transit_free_;
    transit_free_ = transits_[index].next_free;
    return index;
  }
  transits_.emplace_back();
  return static_cast<std::uint32_t>(transits_.size() - 1);
}

void Network::release_transit(std::uint32_t index) noexcept {
  Transit& record = transits_[index];
  record.deliver = nullptr;
  record.drop = nullptr;
  record.path = {};
  record.next_free = transit_free_;
  transit_free_ = index;
}

void Network::send(const Packet& packet, DeliverFn deliver, DropFn drop) {
  const std::span<Link* const> path =
      route_span(packet.src_node, packet.dst_node);
  const std::uint32_t index = acquire_transit();
  Transit& record = transits_[index];
  record.packet = packet;
  record.path = path;
  record.hop = 0;
  record.deliver = std::move(deliver);
  record.drop = std::move(drop);
  forward_hop(index);
}

// LINT:hot-path begin (per-packet forwarding: transit records come from the
// pool, hop events capture (network, index), and a crossing is one tagged
// heap push; nothing allocates; enforced by tools/repro_lint)
void Network::forward_hop(std::uint32_t index) {
  Transit& record = transits_[index];
  Link* link = record.path[record.hop];
  const Link::Resolved resolved = link->submit_resolved(record.packet);
  switch (resolved.outcome) {
    case Link::SubmitOutcome::kDropped:
      finish_transit(index, false);  // tail drop: at the submit instant
      return;
    case Link::SubmitOutcome::kLost:  // drops at the would-be arrival
      engine_.schedule_at(resolved.arrive,
                          [this, index] { finish_transit(index, false); });
      return;
    case Link::SubmitOutcome::kDelivered:
      break;
  }
  if (record.hop + 1 == record.path.size()) {
    engine_.schedule_at(resolved.arrive,
                        [this, index] { finish_transit(index, true); });
    return;
  }
  Link* next = record.path[record.hop + 1];
  if (next->switch_index() != link->switch_index()) {
    // Crossing: the outcome was resolved at the submit instant (queueing,
    // serialisation, fault decision — all state of the current link). The
    // continuation lands at arrival + switch latency, at least one link
    // latency + switch latency ahead of now: the lookahead.
    post_cross(link->switch_index(),
               resolved.arrive + params_.switch_latency, [this, index] {
                 ++transits_[index].hop;
                 forward_hop(index);
               });
    return;
  }
  // Arrival at the switch; the next hop starts after the store-and-forward
  // switch latency. Two events, not one: the continuation's schedule time
  // (its `sched` tie-break key) is the arrival instant.
  engine_.schedule_at(resolved.arrive, [this, index] {
    engine_.schedule_in(params_.switch_latency, [this, index] {
      ++transits_[index].hop;
      forward_hop(index);
    });
  });
}

void Network::post_cross(int source, des::SimTime at, des::SmallFn fn) {
#if PEVPM_UNITS_CHECKED
  if (at < engine_.now() + params_.lookahead()) {
    throw std::logic_error{"Network::post_cross: inside the lookahead"};
  }
#endif
  engine_.schedule_injected(at, std::move(fn), 0,
                            des::Engine::cross_tag(source));
}

void Network::finish_transit(std::uint32_t index, bool delivered) {
  Transit& record = transits_[index];
  const Packet packet = record.packet;
  DeliverFn done = std::move(delivered ? record.deliver : record.drop);
  release_transit(index);
  if (done) done(packet);
}
// LINT:hot-path end

std::uint64_t Network::total_drops() const noexcept {
  std::uint64_t drops = 0;
  for_each_link([&drops](const Link& l) { drops += l.packets_dropped(); });
  return drops;
}

std::uint64_t Network::total_faults() const noexcept {
  std::uint64_t lost = 0;
  for_each_link([&lost](const Link& link) { lost += link.packets_lost(); });
  return lost;
}

std::string Network::stats_csv() const {
  std::ostringstream os;
  os << "link,packets,bytes,drops,lost,peak_backlog,busy_us\n";
  for_each_link([&os](const Link& link) {
    os << link.name() << ',' << link.packets_sent() << ','
       << link.bytes_sent().count() << ',' << link.packets_dropped() << ','
       << link.packets_lost() << ',' << link.peak_backlog().count() << ','
       << link.busy_time().to_micros() << '\n';
  });
  return os.str();
}

void Network::reset_stats() noexcept {
  for_each_link([](Link& link) { link.reset_stats(); });
}

}  // namespace net
