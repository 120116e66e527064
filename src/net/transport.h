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
// A connection's sender half (sequence numbers, congestion state, the RTO
// timer) and its receiver half (reassembly, pending deliveries) sit in one
// map per kind. The only sender-to-receiver control transfer outside the
// packet path — registering a message's end offset and delivery callback —
// is immediate when both nodes share a switch. Across switches it is a
// crossing (Network::post_cross) one ClusterParams::lookahead() out, which
// always beats the first data byte (end-to-end is at least two NIC
// latencies plus a switch hop).
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
  /// Sender half of a connection.
  struct Sender {
    std::uint64_t id = 0;
    int src = 0;
    int dst = 0;
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
  };

  /// Receiver half of a connection.
  struct Receiver {
    std::uint64_t id = 0;
    int src = 0;
    int dst = 0;
    SeqNo rcv_nxt{};
    std::map<SeqNo, Bytes> out_of_order;          ///< start -> length
    std::deque<std::pair<SeqNo, DeliveredFn>> pending;  ///< (end, cb)
  };

  [[nodiscard]] Sender& sender(std::uint64_t stream, int src, int dst);
  [[nodiscard]] Sender& sender_of(const Packet& ack_packet);
  [[nodiscard]] Receiver& receiver_of(const Packet& data_packet);
  /// Creates/locates the receiver half and appends one pending message.
  void register_message(std::uint64_t stream, int src, int dst, SeqNo end,
                        DeliveredFn cb);

  void pump(Sender& conn);
  void transmit_segment(Sender& conn, SeqNo seq, Bytes len);
  void send_ack(Receiver& conn);
  void on_data(const Packet& packet);
  void on_ack(const Packet& packet);
  void on_rto(std::uint64_t stream);
  void arm_rto(Sender& conn);
  void disarm_rto(Sender& conn);
  [[nodiscard]] Bytes window_bytes(const Sender& conn) const noexcept;
  void trace_event(const Sender& conn, std::string detail);

  des::Engine& engine_;
  Network& network_;
  const TcpParams tcp_;
  const WireFormat wire_;
  trace::Tracer* tracer_ = nullptr;

  std::map<std::uint64_t, Sender> senders_;
  std::map<std::uint64_t, Receiver> receivers_;
  std::uint64_t next_packet_id_ = 1;
  std::uint64_t segments_sent_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t fast_retransmits_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t messages_delivered_ = 0;
};

}  // namespace net
