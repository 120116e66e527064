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

#include "core/units.h"
#include "des/engine.h"
#include "net/calibration.h"
#include "net/fault.h"
#include "net/packet.h"

namespace net {

class Link {
 public:
  /// `partition` is the index of the logical process that owns this link
  /// under the conservative parallel engine; every submit must come from
  /// that partition's execution context. Sequential networks leave it 0.
  Link(des::Engine& engine, std::string name, LinkParams params,
       units::PartitionId partition = units::PartitionId{})
      : engine_{engine},
        name_{std::move(name)},
        params_{params},
        partition_{partition} {}

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
  /// what gives the partitioned network its lookahead.
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
  [[nodiscard]] units::PartitionId partition() const noexcept {
    return partition_;
  }

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
  units::PartitionId partition_{};

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
