#include "net/transport.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace net {

Transport::Transport(des::Engine& engine, Network& network)
    : engine_{engine},
      network_{network},
      tcp_{network.params().tcp},
      wire_{network.params().wire} {}

void Transport::register_message(Connection& conn, SeqNo end,
                                 DeliveredFn cb) {
  conn.pending.emplace_back(end, std::move(cb));
  // Registration always precedes the message's own data (it travels one
  // lookahead ahead of an end-to-end path that is strictly longer), so
  // this delivers nothing; it is a guard, not a code path.
  deliver_in_order(conn);
}

void Transport::deliver_in_order(Connection& conn) {
  while (!conn.pending.empty() && conn.pending.front().first <= conn.rcv_nxt) {
    DeliveredFn cb = std::move(conn.pending.front().second);
    conn.pending.pop_front();
    ++messages_delivered_;
    if (cb) cb();
  }
}

void Transport::send(std::uint64_t stream, int src_node, int dst_node,
                     Bytes bytes, DeliveredFn on_delivered) {
  if (bytes == Bytes{}) {
    throw std::invalid_argument{"Transport::send: zero-byte message"};
  }
  if (src_node == dst_node) {
    throw std::invalid_argument{"Transport::send: src == dst"};
  }
  auto [it, inserted] = connections_.try_emplace(stream);
  Connection& conn = it->second;
  if (inserted) {
    conn.id = stream;
    conn.src = src_node;
    conn.dst = dst_node;
    conn.cwnd = static_cast<double>(tcp_.initial_cwnd);
    conn.rto = tcp_.rto_initial;
  } else if (conn.src != src_node || conn.dst != dst_node) {
    throw std::invalid_argument{
        "Transport::send: stream rebound to new endpoints"};
  }
  conn.stream_end += bytes;
  const int src_switch = network_.params().switch_of(src_node);
  if (src_switch == network_.params().switch_of(dst_node)) {
    register_message(conn, conn.stream_end, std::move(on_delivered));
  } else {
    // A crossing one lookahead out; it beats the first data byte — see
    // the class comment.
    network_.post_cross(src_switch,
                        engine_.now() + network_.params().lookahead(),
                        [this, &conn, end = conn.stream_end,
                         cb = std::move(on_delivered)]() mutable {
                          register_message(conn, end, std::move(cb));
                        });
  }
  pump(conn);
}

Bytes Transport::window_bytes(const Connection& conn) const noexcept {
  const Bytes cwnd_bytes{
      static_cast<std::uint64_t>(conn.cwnd * wire_.mss().to_double())};
  return std::min(cwnd_bytes, tcp_.recv_window);
}

void Transport::pump(Connection& conn) {
  while (conn.snd_nxt < conn.stream_end) {
    const Bytes in_flight = conn.snd_nxt - conn.snd_una;
    const Bytes window = window_bytes(conn);
    if (in_flight >= window) break;
    const Bytes len = std::min({wire_.mss(), conn.stream_end - conn.snd_nxt,
                                window - in_flight});
    transmit_segment(conn, conn.snd_nxt, len);
    conn.snd_nxt += len;
  }
  if (conn.snd_una < conn.snd_nxt && !conn.rto_timer.valid()) arm_rto(conn);
}

void Transport::transmit_segment(Connection& conn, SeqNo seq, Bytes len) {
  Packet packet;
  packet.id = next_packet_id_++;
  packet.src_node = conn.src;
  packet.dst_node = conn.dst;
  packet.seq = seq;
  packet.payload = len;
  packet.wire_bytes = wire_.segment_wire_bytes(len);
  ++segments_sent_;
  network_.send(
      packet,
      [this, &conn](const Packet& arrived) { on_data(conn, arrived); },
      /*drop=*/nullptr);  // loss is detected via ACKs / the RTO timer
}

void Transport::send_ack(Connection& conn) {
  Packet packet;
  packet.id = next_packet_id_++;
  packet.src_node = conn.dst;  // ACKs flow dst -> src
  packet.dst_node = conn.src;
  packet.seq = conn.rcv_nxt;
  packet.payload = Bytes{};
  packet.wire_bytes = wire_.ack_wire_bytes();
  network_.send(
      packet,
      [this, &conn](const Packet& arrived) { on_ack(conn, arrived); },
      /*drop=*/nullptr);  // a lost ACK is covered by later cumulative ACKs
}

void Transport::on_data(Connection& conn, const Packet& packet) {
  const SeqNo seg_end = packet.seq + packet.payload;
  if (seg_end <= conn.rcv_nxt) {
    // Duplicate of already-received data (e.g. a spurious retransmit):
    // re-ACK so the sender can make progress.
    send_ack(conn);
    return;
  }
  if (packet.seq <= conn.rcv_nxt) {
    conn.rcv_nxt = seg_end;
    // Absorb any now-contiguous out-of-order segments.
    for (auto it = conn.out_of_order.begin();
         it != conn.out_of_order.end() && it->first <= conn.rcv_nxt;) {
      conn.rcv_nxt = std::max(conn.rcv_nxt, it->first + it->second);
      it = conn.out_of_order.erase(it);
    }
  } else {
    conn.out_of_order.insert({packet.seq, packet.payload});
  }
  send_ack(conn);
  deliver_in_order(conn);
}

void Transport::on_ack(Connection& conn, const Packet& packet) {
  const SeqNo ackno = packet.seq;
  if (ackno > conn.snd_una) {
    conn.snd_una = ackno;
    conn.dupacks = 0;
    conn.consecutive_timeouts = 0;
    if (conn.in_recovery && ackno >= conn.recover_end) {
      conn.in_recovery = false;
    } else if (conn.in_recovery) {
      // NewReno partial ACK: the next hole is known lost — resend it now
      // rather than stalling until the RTO fires.
      const Bytes len =
          std::min(wire_.mss(), conn.snd_nxt - conn.snd_una);
      ++retransmits_;
      trace_event(conn, "partial_ack_retransmit seq=" +
                            std::to_string(conn.snd_una.value()));
      transmit_segment(conn, conn.snd_una, len);
    }
    if (!conn.in_recovery) {
      if (conn.cwnd < conn.ssthresh) {
        conn.cwnd += 1.0;  // slow start
      } else {
        conn.cwnd += 1.0 / conn.cwnd;  // congestion avoidance
      }
    }
    disarm_rto(conn);
    conn.rto = tcp_.rto_initial;  // fresh ACK: reset backoff
    if (conn.snd_una < conn.snd_nxt) arm_rto(conn);
    pump(conn);
    return;
  }
  if (conn.snd_una < conn.snd_nxt && ackno == conn.snd_una) {
    ++conn.dupacks;
    if (conn.dupacks == tcp_.dupack_threshold && !conn.in_recovery) {
      // Fast retransmit: resend the missing head segment, halve the window.
      const double flight =
          (conn.snd_nxt - conn.snd_una).to_double() / wire_.mss().to_double();
      conn.ssthresh = std::max(flight / 2.0, 2.0);
      conn.cwnd = conn.ssthresh;
      conn.in_recovery = true;
      conn.recover_end = conn.snd_nxt;
      const Bytes len =
          std::min(wire_.mss(), conn.snd_nxt - conn.snd_una);
      ++retransmits_;
      ++fast_retransmits_;
      trace_event(conn, "fast_retransmit seq=" +
                            std::to_string(conn.snd_una.value()));
      transmit_segment(conn, conn.snd_una, len);
    }
  }
}

void Transport::on_rto(Connection& conn) {
  conn.rto_timer = {};
  if (conn.snd_una >= conn.snd_nxt) return;  // everything got acknowledged
  ++timeouts_;
  if (++conn.consecutive_timeouts == kMaxConsecutiveTimeouts) {
    throw std::runtime_error{
        "Transport: stream " + std::to_string(conn.id) + " from node " +
        std::to_string(conn.src) + " to node " + std::to_string(conn.dst) +
        " gave up after " + std::to_string(conn.consecutive_timeouts) +
        " consecutive retransmission timeouts without a fresh ACK"};
  }
  ++retransmits_;
  const double flight =
      (conn.snd_nxt - conn.snd_una).to_double() / wire_.mss().to_double();
  conn.ssthresh = std::max(flight / 2.0, 2.0);
  conn.cwnd = 1.0;
  conn.dupacks = 0;
  conn.in_recovery = false;
  conn.rto = std::min(conn.rto * 2, tcp_.rto_max);  // exponential backoff
  trace_event(conn,
              "rto_retransmit seq=" + std::to_string(conn.snd_una.value()) +
                  " next_rto_ms=" + std::to_string(conn.rto.to_millis()));
  const Bytes len = std::min(wire_.mss(), conn.snd_nxt - conn.snd_una);
  transmit_segment(conn, conn.snd_una, len);
  arm_rto(conn);
}

void Transport::trace_event(const Connection& conn, std::string detail) {
  if (tracer_ == nullptr || !tracer_->enabled()) return;
  tracer_->record(engine_.now(), trace::Category::kTransport,
                  static_cast<std::int64_t>(conn.id), std::move(detail));
}

void Transport::arm_rto(Connection& conn) {
  disarm_rto(conn);
  conn.rto_timer = engine_.schedule_in(std::max(conn.rto, tcp_.rto_min),
                                       [this, &conn] { on_rto(conn); });
}

void Transport::disarm_rto(Connection& conn) {
  if (conn.rto_timer.valid()) {
    engine_.cancel(conn.rto_timer);
    conn.rto_timer = {};
  }
}

void Transport::reset_stats() noexcept {
  segments_sent_ = 0;
  retransmits_ = 0;
  fast_retransmits_ = 0;
  timeouts_ = 0;
  messages_delivered_ = 0;
}

}  // namespace net
