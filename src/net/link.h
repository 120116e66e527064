// A unidirectional link: FIFO server with finite output queue.
//
// This single abstraction models NIC transmit/receive paths and the
// inter-switch stacking trunks. Contention, queueing delay and loss emerge
// here: packets serialise at the link rate, wait behind earlier packets,
// and are dropped when the queued wire bytes would exceed the buffer —
// exactly the resources that produced the paper's contention effects on
// Perseus.
//
// A link schedules no events. A packet's bytes leave the queue when it is
// fully serialised; the link keeps the key that release event would have
// had (des::Engine::reserve_key) and retires it at the next submit or
// backlog read once des::Engine::has_run() says it would have run, ties
// at the same nanosecond included.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "des/engine.h"
#include "net/calibration.h"
#include "net/fault.h"
#include "net/packet.h"

namespace net {

class Link {
 public:
  /// `switch_index` is the cluster switch the link belongs to (a NIC: its
  /// node's switch; a trunk: the lower of the two it joins). A hop onto a
  /// link of another switch is a crossing, which net::Network orders by
  /// the cross key (des::Engine::cross_tag).
  Link(des::Engine& engine, std::string name, LinkParams params,
       int switch_index = 0)
      : engine_{engine},
        name_{std::move(name)},
        params_{params},
        switch_index_{switch_index} {}

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  enum class SubmitOutcome : std::uint8_t { kDropped, kLost, kDelivered };
  struct Resolved {
    SubmitOutcome outcome = SubmitOutcome::kDropped;
    des::SimTime arrive{};    ///< (would-be) arrival; meaningless if dropped
  };

  /// Submits a packet and returns its fate for the caller to schedule: a
  /// tail drop now if the queue is full (kDropped), else arrival after
  /// queueing + serialisation + propagation (kDelivered) — unless an
  /// installed fault model loses it on the wire (kLost), after it paid for
  /// its queue space and serialisation. Resolving at the submit instant is
  /// what puts a crossing at least one lookahead ahead of now.
  [[nodiscard]] Resolved submit_resolved(const Packet& packet);

  /// Installs (or clears, with nullptr) the fault injector for this link.
  void install_fault_model(std::unique_ptr<FaultModel> fault) noexcept {
    fault_ = std::move(fault);
  }
  [[nodiscard]] const FaultModel* fault_model() const noexcept {
    return fault_.get();
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const LinkParams& params() const noexcept { return params_; }
  [[nodiscard]] des::Engine& engine() const noexcept { return engine_; }
  [[nodiscard]] int switch_index() const noexcept { return switch_index_; }

  /// Wire bytes currently queued or being serialised (retires first).
  [[nodiscard]] Bytes backlog() noexcept {
    retire();
    return backlog_;
  }

  // Lifetime statistics.
  [[nodiscard]] std::uint64_t packets_sent() const noexcept { return sent_; }
  [[nodiscard]] std::uint64_t packets_dropped() const noexcept { return dropped_; }
  /// Packets lost to injected faults (disjoint from queue-overflow drops).
  [[nodiscard]] std::uint64_t packets_lost() const noexcept { return lost_; }
  [[nodiscard]] Bytes bytes_sent() const noexcept { return bytes_sent_; }
  [[nodiscard]] Bytes peak_backlog() const noexcept { return peak_backlog_; }
  /// Total time the transmitter was serialising, for utilisation reports.
  [[nodiscard]] des::Duration busy_time() const noexcept {
    return busy_time_;
  }

  void reset_stats() noexcept;

 private:
  /// `bytes` leave the backlog once an event with `key` would have run.
  struct Release {
    des::Engine::Key key{};
    Bytes bytes{};
  };

  /// Applies the releases that would have run by now: a prefix of the
  /// ring, which is in key order (busy_until_ and now() only grow).
  void retire() noexcept;
  void grow_releases();  ///< doubles the full ring, oldest entry first

  des::Engine& engine_;
  std::string name_;
  LinkParams params_;
  int switch_index_ = 0;

  std::unique_ptr<FaultModel> fault_;

  des::SimTime busy_until_{};
  Bytes backlog_{};  ///< includes releases not yet retired
  /// Unretired releases, oldest first; capacity a power of two.
  std::vector<Release> releases_;
  std::size_t release_head_ = 0;
  std::size_t release_count_ = 0;
  Bytes peak_backlog_{};
  std::uint64_t sent_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t lost_ = 0;
  Bytes bytes_sent_{};
  des::Duration busy_time_{};
};

}  // namespace net
