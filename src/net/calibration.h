// Calibration constants for the simulated Perseus cluster.
//
// Every knob of the cost model lives here, next to the paper-derived target
// it exists to hit. The headline shape targets from Grove & Coddington:
//
//   * 2x1 ping-pong behaves like T = l + b/W with tiny variance (Sec. 3);
//     effective per-pair throughput ~81 Mbit/s at 16 KB messages, plus
//     ~3.25 Mbit/s of Ethernet framing overhead (Sec. 3, saturation calc).
//   * A knee at 16 KB caused by MPICH switching from the eager to the
//     rendezvous protocol (Fig. 2 discussion).
//   * ~70% average slowdown for 1 KB messages at 64x1 vs 2x1 (Fig. 1).
//   * Trunk (stacking matrix) saturation once offered inter-switch load
//     reaches ~2.0-2.1 Gbit/s, producing long distribution tails (Fig. 4).
//   * Rare outliers at TCP retransmission-timeout-related values (Sec. 3).
#pragma once

#include "des/time.h"
#include "net/fault.h"
#include "net/units.h"

namespace net {

/// Ethernet / TCP framing constants (Fast Ethernet, 1500-byte MTU).
struct WireFormat {
  Bytes mtu{1500};              ///< IP payload per frame
  Bytes tcp_ip_header{40};      ///< TCP + IPv4 headers
  Bytes eth_overhead{38};       ///< MAC hdr 14 + FCS 4 + preamble 8 + IFG 12
  Bytes min_frame{64};          ///< minimum Ethernet frame (before preamble)

  [[nodiscard]] constexpr Bytes mss() const noexcept {
    return mtu - tcp_ip_header;  // 1460
  }
  /// Wire bytes for a data segment carrying `payload` stream bytes.
  [[nodiscard]] constexpr Bytes segment_wire_bytes(Bytes payload) const noexcept {
    const Bytes frame = payload + tcp_ip_header + Bytes{18};  // MAC hdr + FCS
    const Bytes padded = frame < min_frame ? min_frame : frame;
    return padded + Bytes{20};  // preamble + IFG
  }
  /// Wire bytes for a bare ACK.
  [[nodiscard]] constexpr Bytes ack_wire_bytes() const noexcept {
    return segment_wire_bytes(Bytes{0});
  }
};

/// Host (node + MPICH + kernel TCP stack) software costs. A 500 MHz PIII
/// spends tens of microseconds per message in MPICH/sockets, plus a small
/// per-byte copy cost; jitter models OS scheduling/interrupt noise and
/// gives the PDFs their bounded-minimum, right-tailed shape (Fig. 3).
struct HostParams {
  des::Duration send_overhead = des::Duration::from_micros(22.0);
  des::Duration recv_overhead = des::Duration::from_micros(24.0);
  /// Extra per-byte CPU cost (memory copies through the socket layer);
  /// ~200 MB/s, a PC100-SDRAM-era memcpy. Tuned so a 16 KB eager message
  /// achieves the paper's ~81 Mbit/s per-pair throughput.
  double copy_ns_per_byte = 5.0;
  /// Multiplicative lognormal jitter on software overheads: exp(N(0, s)).
  double jitter_sigma = 0.12;
  /// Rare scheduling spikes: probability per operation and mean size.
  double spike_prob = 0.004;
  des::Duration spike_mean = des::Duration::from_micros(350.0);
  /// Multiplicative jitter on Comm::compute (cache/interrupt noise).
  double compute_jitter_sigma = 0.02;
  /// SMP intra-node channel (shared memory): latency and bandwidth.
  des::Duration smp_latency = des::Duration::from_micros(12.0);
  Rate smp_rate = Rate::mbyte(180.0);
};

/// TCP-lite parameters (Linux 2.2-era defaults).
struct TcpParams {
  Bytes recv_window = 32_KiB;     ///< caps in-flight data per connection
  int initial_cwnd = 2;           ///< segments
  int dupack_threshold = 3;       ///< fast retransmit trigger
  des::Duration rto_initial = des::Duration::from_micros(200e3);  ///< 200 ms
  des::Duration rto_min = des::Duration::from_micros(200e3);
  des::Duration rto_max = des::Duration::from_micros(2e6);  ///< 2 s cap
};

/// MPICH-like messaging protocol parameters.
struct MpiParams {
  Bytes eager_threshold = 16_KiB;  ///< the Fig. 2 knee
  Bytes eager_header{64};          ///< envelope bytes on eager messages
  Bytes rendezvous_ctrl{64};       ///< RTS / CTS control message size
};

/// One link class in the topology.
struct LinkParams {
  Rate rate = Rate::mbit(100.0);
  des::Duration latency = des::Duration::from_micros(2.0);
  Bytes buffer = 64_KiB;  ///< output queue capacity in wire bytes
  /// Fixed per-packet service time on top of serialisation; nonzero for
  /// the switch forwarding fabric, whose cost is packet-dominated.
  des::Duration per_packet{};
};

/// Whole-cluster description. `perseus()` (cluster.h) fills in the machine
/// from the paper; tests and ablations construct variants directly.
struct ClusterParams {
  int nodes = 16;
  int ports_per_switch = 24;

  WireFormat wire{};
  HostParams host{};
  TcpParams tcp{};
  MpiParams mpi{};

  /// Node NIC, each direction (full duplex Fast Ethernet). The buffer is
  /// the kernel interface queue (txqueuelen 100 full frames).
  LinkParams nic{Rate::mbit(100.0), des::Duration::from_micros(1.0),
                 Bytes{100 * 1538}};
  /// Switch port forwarding: store-and-forward latency charged per hop.
  des::Duration switch_latency = des::Duration::from_micros(6.0);
  /// Per-switch shared forwarding fabric, crossed once where a frame enters
  /// the stack. Packet-rate limited (~2 us/frame, ~500 kpps — comfortably
  /// above 24 ports of full-size frames, but a real queueing point for
  /// synchronised bursts of small messages, which is where the paper sees
  /// small-message contention grow with process count).
  LinkParams fabric{Rate::gbit(2.1), des::Duration::from_micros(1.0), 1_MiB,
                    des::Duration::from_micros(2.0)};
  /// Inter-switch stacking trunk, each direction.
  LinkParams trunk{Rate::gbit(2.1), des::Duration::from_micros(2.0), 256_KiB};

  /// Packet-loss fault injection (fault.h). Disabled by default: the
  /// lossless network is the calibrated Perseus baseline, and disabled
  /// injection must leave every result bit-identical.
  FaultParams fault{};

  /// Lookahead override (parse_cluster key `lookahead_us`); 0 means
  /// "derive from the topology", see lookahead().
  des::Duration lookahead_override{};

  [[nodiscard]] int switch_count() const noexcept {
    return (nodes + ports_per_switch - 1) / ports_per_switch;
  }
  [[nodiscard]] int switch_of(int node) const noexcept {
    return node / ports_per_switch;
  }

  /// The least time between a crossing into a neighbouring switch and its
  /// effect there. A crossing frame is resolved when it is submitted to
  /// the last link of its current switch (the trunk when ascending, the
  /// fabric or an earlier trunk when descending), so the earliest it can
  /// land is one link propagation latency plus the store-and-forward
  /// switch hop. The safe bound is therefore min(fabric, trunk latency) +
  /// switch_latency — 7 us for the calibrated Perseus numbers, against
  /// end-to-end message times of 15 us and up. lookahead() is how far
  /// ahead a cross-switch transport registration lands.
  [[nodiscard]] des::Duration safe_lookahead() const noexcept {
    const des::Duration entry =
        fabric.latency < trunk.latency ? fabric.latency : trunk.latency;
    return entry + switch_latency;
  }
  [[nodiscard]] des::Duration lookahead() const noexcept {
    return lookahead_override > des::Duration{} ? lookahead_override
                                               : safe_lookahead();
  }
};

}  // namespace net
