// TCP-lite reliable byte-stream transport over the packet network.
//
// MPICH 1.2 on Perseus ran over kernel TCP; the paper attributes the
// outliers in the Figure 3/4 distributions to TCP retransmission timeouts
// after congestion loss. This module reproduces that mechanism with a
// deliberately reduced TCP: per-(src,dst) byte streams, MSS segmentation,
// cumulative ACKs, a receive window, slow start + AIMD congestion control,
// fast retransmit on triple duplicate ACKs, and an RTO timer with
// exponential backoff (200 ms floor, as in Linux 2.2). What is left out
// (SACK, Nagle, delayed ACKs, fast-recovery inflation) does not change
// where time goes at this fidelity.
//
// Messages are byte counts; delivery callbacks fire when the last stream
// byte of a message arrives in order at the destination host.
//
// Each stream is one Connection record, holding both ends: the sender's
// sequence numbers, congestion state and RTO timer, and the receiver's
// reassembly state and pending deliveries. Only send() looks a connection
// up; every packet, ACK and timer callback carries a reference to its
// record, and records are never erased. The only sender-to-receiver
// control transfer outside the packet path — registering a message's end
// offset and delivery callback — is immediate when both nodes share a
// switch. Across switches it is a crossing (Network::post_cross) one
// ClusterParams::lookahead() out, which always beats the first data byte
// (end-to-end is at least two NIC latencies plus a switch hop).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <utility>

#include "des/engine.h"
#include "net/network.h"
#include "trace/trace.h"

namespace net {

class Transport {
 public:
  using DeliveredFn = std::function<void()>;

  /// Consecutive RTO firings, with no fresh ACK between them, after which
  /// a connection is dead (every copy of its head segment, or every ACK,
  /// was lost) and gives up: Linux's tcp_retries2 default. With the 2 s
  /// rto_max that is about 25 s of virtual time without progress.
  static constexpr int kMaxConsecutiveTimeouts = 15;

  /// `network` must run on `engine`.
  Transport(des::Engine& engine, Network& network);

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Attaches a tracer (or detaches, with nullptr). While attached and
  /// enabled, every retransmission-related event — RTO firings with their
  /// backed-off interval, fast retransmits, NewReno partial-ACK resends —
  /// is recorded under Category::kTransport with the connection id as
  /// subject, so retransmission forensics can be replayed offline.
  void set_tracer(trace::Tracer* tracer) noexcept { tracer_ = tracer; }

  /// Queues `bytes` (> 0) on stream `stream` from src to dst. A stream is
  /// one TCP-lite connection; MPICH 1.2 (ch_p4) opened one socket per
  /// process pair, so the MPI layer passes a per-rank-pair stream id. All
  /// streams between two nodes still contend for the same NIC and trunk
  /// links. `on_delivered` runs, in engine context, when the final byte
  /// arrives in order at `dst_node`. Messages on one stream are delivered
  /// in submission order. A stream's (src, dst) binding must not change.
  /// A stream that gives up (see kMaxConsecutiveTimeouts) makes the
  /// engine's run() throw std::runtime_error.
  void send(std::uint64_t stream, int src_node, int dst_node, Bytes bytes,
            DeliveredFn on_delivered);

  // Lifetime statistics (read when quiescent).
  [[nodiscard]] std::uint64_t segments_sent() const noexcept {
    return segments_sent_;
  }
  [[nodiscard]] std::uint64_t retransmits() const noexcept {
    return retransmits_;
  }
  [[nodiscard]] std::uint64_t fast_retransmits() const noexcept {
    return fast_retransmits_;
  }
  [[nodiscard]] std::uint64_t timeouts() const noexcept { return timeouts_; }
  [[nodiscard]] std::uint64_t messages_delivered() const noexcept {
    return messages_delivered_;
  }
  void reset_stats() noexcept;

 private:
  /// One TCP-lite connection: both ends of one stream.
  struct Connection {
    std::uint64_t id = 0;
    int src = 0;
    int dst = 0;

    // Sender end.
    SeqNo snd_una{};              ///< oldest unacknowledged byte
    SeqNo snd_nxt{};              ///< next byte to transmit
    SeqNo stream_end{};           ///< total bytes submitted
    double cwnd = 2.0;            ///< congestion window, segments
    double ssthresh = 64.0;       ///< slow-start threshold, segments
    int dupacks = 0;
    bool in_recovery = false;
    SeqNo recover_end{};
    des::Duration rto{};
    des::Engine::EventId rto_timer{};
    int consecutive_timeouts = 0;  ///< RTO firings since the last fresh ACK

    // Receiver end.
    SeqNo rcv_nxt{};
    std::map<SeqNo, Bytes> out_of_order;          ///< start -> length
    std::deque<std::pair<SeqNo, DeliveredFn>> pending;  ///< (end, cb)
  };

  /// Appends one pending message to the receiver end and delivers what is
  /// in order.
  void register_message(Connection& conn, SeqNo end, DeliveredFn cb);
  /// Runs, in order, the callback of every pending message whose final
  /// byte has arrived.
  void deliver_in_order(Connection& conn);

  void pump(Connection& conn);
  void transmit_segment(Connection& conn, SeqNo seq, Bytes len);
  void send_ack(Connection& conn);
  void on_data(Connection& conn, const Packet& packet);
  void on_ack(Connection& conn, const Packet& packet);
  void on_rto(Connection& conn);
  void arm_rto(Connection& conn);
  void disarm_rto(Connection& conn);
  [[nodiscard]] Bytes window_bytes(const Connection& conn) const noexcept;
  void trace_event(const Connection& conn, std::string detail);

  des::Engine& engine_;
  Network& network_;
  const TcpParams tcp_;
  const WireFormat wire_;
  trace::Tracer* tracer_ = nullptr;

  /// Map nodes never move, so callbacks hold Connection references.
  std::map<std::uint64_t, Connection> connections_;
  std::uint64_t next_packet_id_ = 1;
  std::uint64_t segments_sent_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t fast_retransmits_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t messages_delivered_ = 0;
};

}  // namespace net
