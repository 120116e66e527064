// Cluster presets and a small text format for describing machines.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "net/calibration.h"

namespace net {

/// The machine from the paper: Perseus at the University of Adelaide.
/// 116 dual-PIII nodes on switched 100 Mbit/s Fast Ethernet, five 24-port
/// Intel 510T switches joined by 2.1 Gbit/s stacking matrix cards, MPICH
/// 1.2 over TCP. `nodes` selects how many nodes to instantiate (<= 116).
[[nodiscard]] ClusterParams perseus(int nodes);

/// Human-readable multi-line description of a configuration.
[[nodiscard]] std::string describe(const ClusterParams& params);

/// Sets one configuration key from its text value. This is the only code
/// that knows what a cluster key means and which values it accepts; the
/// `key = value` text below and mpibench's fault and TCP flags both go
/// through it. Values parse strictly (pevpm::parse_number: the whole token,
/// finite, in range). Keys, units and accepted values:
///
///   nodes, ports_per_switch            count         whole int
///   nic_buffer_frames                  1538-B frames whole, fits 64 bits
///   trunk_buffer_kib, eager_threshold_kib,
///   recv_window_kib                    KiB           whole, fits 64 bits
///   nic_mbit                           Mbit/s        finite, >= 0.001
///   trunk_gbit                         Gbit/s        finite, >= 1e-6
///   lookahead_us                       us            (0, 1e6]
///   nic_latency_us, trunk_latency_us, switch_latency_us,
///   send_overhead_us, recv_overhead_us,
///   spike_mean_us                      us            [0, 1e6]
///   rto_ms (sets the initial RTO and its floor)
///                                      ms            [0, 120000]
///   copy_ns_per_byte                   ns/B          [0, 1e6]
///   jitter_sigma                       lognormal s   finite, >= 0
///
/// The caps (one second per latency or overhead, Linux's 120 s maximum
/// RTO) and the rate floors (1 kbit/s) keep a frame's worst-case path
/// latency far inside a des::Duration.
///   spike_prob                         probability   [0, 1]
///
/// Fault-injection keys (fault.h):
///
///   fault_loss_rate, fault_burst_enter, fault_burst_exit,
///   fault_burst_loss                   probability   [0, 1]
///   fault_seed                         RNG seed      whole, all of uint64
///   fault_down_start_ms                ms            finite, >= 0
///   fault_down_end_ms                  ms            finite, >= the start
///
/// Each fault_down_start_ms opens a new outage window (initially unbounded);
/// a following fault_down_end_ms closes it. Throws std::runtime_error,
/// naming the key, on an unknown key or a rejected value; `params` is then
/// unchanged.
void apply_cluster_setting(ClusterParams& params, std::string_view key,
                           std::string_view value);

/// The checks that involve more than one key: nodes and ports_per_switch
/// at least 1, at most des::Engine::kMaxCrossSources (2^19) switches, and
/// a positive lookahead between switches on a multi-switch cluster.
/// Run it once, on the configuration that will run; net::Network's
/// constructor runs it too. Throws std::runtime_error on failure.
void check_cluster(const ClusterParams& params);

/// Parses "key = value" lines ('#' comments allowed) over a base
/// configuration: apply_cluster_setting() per line, then check_cluster()
/// on the result. Errors are prefixed "parse_cluster: line N: " (or
/// "parse_cluster: " for check_cluster's) and thrown as std::runtime_error.
[[nodiscard]] ClusterParams parse_cluster(std::istream& is,
                                          ClusterParams base = {});

}  // namespace net
