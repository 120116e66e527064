#include "net/cluster.h"

#include <cstdint>
#include <istream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/number.h"
#include "des/engine.h"

namespace net {

ClusterParams perseus(int nodes) {
  if (nodes < 1 || nodes > 116) {
    throw std::invalid_argument{"perseus: node count must be in [1, 116]"};
  }
  ClusterParams params;  // defaults in calibration.h are the Perseus fit
  params.nodes = nodes;
  params.ports_per_switch = 24;
  return params;
}

std::string describe(const ClusterParams& params) {
  std::ostringstream os;
  os << "cluster: " << params.nodes << " nodes over " << params.switch_count()
     << " switch(es), " << params.ports_per_switch << " ports each\n";
  os << "  nic:    " << params.nic.rate.bps() / 1e6 << " Mbit/s, "
     << params.nic.latency.to_micros() << " us latency, "
     << params.nic.buffer.count() << " B buffer\n";
  os << "  switch: " << params.switch_latency.to_micros()
     << " us forwarding latency\n";
  os << "  trunk:  " << params.trunk.rate.bps() / 1e9 << " Gbit/s, "
     << params.trunk.latency.to_micros() << " us latency, "
     << params.trunk.buffer.count() << " B buffer\n";
  os << "  host:   send " << params.host.send_overhead.to_micros()
     << " us, recv " << params.host.recv_overhead.to_micros()
     << " us, copy " << params.host.copy_ns_per_byte << " ns/B\n";
  os << "  tcp:    rto " << params.tcp.rto_initial.to_millis()
     << " ms, window " << params.tcp.recv_window.count() << " B\n";
  os << "  mpi:    eager threshold " << params.mpi.eager_threshold.count() << " B\n";
  if (params.fault.enabled()) {
    os << "  fault:  loss " << params.fault.loss_rate;
    if (params.fault.ge_p_enter > 0.0) {
      os << ", burst enter " << params.fault.ge_p_enter << " exit "
         << params.fault.ge_p_exit << " loss " << params.fault.ge_loss_bad;
    }
    if (!params.fault.down.empty()) {
      os << ", " << params.fault.down.size() << " outage window(s)";
    }
    os << ", seed " << params.fault.seed << "\n";
  }
  return os.str();
}

namespace {

[[noreturn]] void reject(std::string_view key, std::string_view value,
                         const char* wanted) {
  throw std::runtime_error{std::string{key} + ": expected " + wanted +
                           ", got '" + std::string{value} + "'"};
}

template <typename T>
T whole(std::string_view key, std::string_view value) {
  T out{};
  if (!pevpm::parse_number(value, out)) reject(key, value, "a whole number in range");
  return out;
}

/// A whole count of `unit`-byte blocks whose byte total fits 64 bits.
Bytes blocks(std::string_view key, std::string_view value,
             std::uint64_t unit) {
  const auto n = whole<std::uint64_t>(key, value);
  if (n > std::numeric_limits<std::uint64_t>::max() / unit) {
    reject(key, value, "a size that fits 64 bits");
  }
  return Bytes{n * unit};
}

/// The accepted interval of a real-valued key and how a rejection names it.
struct Bounds {
  double lo;
  bool lo_open;  ///< lo itself is rejected
  double hi;
  const char* wanted;
};

constexpr double kUnbounded = std::numeric_limits<double>::max();
constexpr Bounds kNonNegative{0.0, false, kUnbounded, "a finite number >= 0"};
constexpr Bounds kProbability{0.0, false, 1.0, "a probability in [0, 1]"};
// Caps on the duration keys and floors on the rate keys. With every
// latency and overhead at its cap and every link at its floor rate, a
// full-size frame's unqueued path across the most switches check_cluster
// admits (2^19) takes under 10^7 s, a thousandth of the 9.2 * 10^9 s a
// Duration holds. The RTO cap is Linux's TCP_RTO_MAX.
constexpr Bounds kMicros{0.0, false, 1e6, "a duration in [0, 1e6] us"};
constexpr Bounds kLookaheadMicros{0.0, true, 1e6,
                                  "a duration in (0, 1e6] us"};
constexpr Bounds kRtoMillis{0.0, false, 120e3,
                            "a duration in [0, 120000] ms"};
constexpr Bounds kMbit{1e-3, false, kUnbounded, "a rate >= 0.001 Mbit/s"};
constexpr Bounds kGbit{1e-6, false, kUnbounded, "a rate >= 1e-6 Gbit/s"};
constexpr Bounds kCopyNs{0.0, false, 1e6, "a cost in [0, 1e6] ns/B"};
// The polar method's normal draws stay within 12.1 (its smallest nonzero
// radius is 2^-104), so exp(N(0, 1)) stays under 2 * 10^5 and a jittered
// overhead at its cap (10^12 ns) under 2 * 10^17 ns.
constexpr Bounds kJitterSigma{0.0, false, 1.0,
                              "a lognormal sigma in [0, 1]"};

double real(std::string_view key, std::string_view value,
            const Bounds& bounds) {
  double x = 0.0;
  const bool ok = pevpm::parse_number(value, x) &&
                  (bounds.lo_open ? x > bounds.lo : x >= bounds.lo) &&
                  x <= bounds.hi;
  if (!ok) reject(key, value, bounds.wanted);
  return x;
}

std::string_view trim(std::string_view s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string_view::npos) return {};
  return s.substr(b, s.find_last_not_of(" \t\r") - b + 1);
}

}  // namespace

void apply_cluster_setting(ClusterParams& p, std::string_view key,
                           std::string_view value) {
  const auto micros = [&] {
    return des::Duration::from_micros(real(key, value, kMicros));
  };
  const auto probability = [&] { return real(key, value, kProbability); };
  if (key == "nodes") {
    p.nodes = whole<int>(key, value);
  } else if (key == "ports_per_switch") {
    p.ports_per_switch = whole<int>(key, value);
  } else if (key == "nic_mbit") {
    p.nic.rate = Rate::mbit(real(key, value, kMbit));
  } else if (key == "nic_latency_us") {
    p.nic.latency = micros();
  } else if (key == "nic_buffer_frames") {
    p.nic.buffer = blocks(key, value, 1538);
  } else if (key == "trunk_gbit") {
    p.trunk.rate = Rate::gbit(real(key, value, kGbit));
  } else if (key == "trunk_latency_us") {
    p.trunk.latency = micros();
  } else if (key == "trunk_buffer_kib") {
    p.trunk.buffer = blocks(key, value, 1024);
  } else if (key == "switch_latency_us") {
    p.switch_latency = micros();
  } else if (key == "lookahead_us") {
    // Overrides the derived lookahead (see ClusterParams::lookahead()).
    // Must not exceed the topology's safe bound — Network's constructor
    // rejects a multi-switch cluster whose override does.
    p.lookahead_override =
        des::Duration::from_micros(real(key, value, kLookaheadMicros));
  } else if (key == "eager_threshold_kib") {
    p.mpi.eager_threshold = blocks(key, value, 1024);
  } else if (key == "send_overhead_us") {
    p.host.send_overhead = micros();
  } else if (key == "recv_overhead_us") {
    p.host.recv_overhead = micros();
  } else if (key == "copy_ns_per_byte") {
    p.host.copy_ns_per_byte = real(key, value, kCopyNs);
  } else if (key == "jitter_sigma") {
    p.host.jitter_sigma = real(key, value, kJitterSigma);
  } else if (key == "spike_prob") {
    p.host.spike_prob = probability();
  } else if (key == "spike_mean_us") {
    p.host.spike_mean = micros();
  } else if (key == "rto_ms") {
    p.tcp.rto_initial =
        des::Duration::from_micros(real(key, value, kRtoMillis) * 1e3);
    p.tcp.rto_min = p.tcp.rto_initial;
  } else if (key == "recv_window_kib") {
    p.tcp.recv_window = blocks(key, value, 1024);
  } else if (key == "fault_loss_rate") {
    p.fault.loss_rate = probability();
  } else if (key == "fault_burst_enter") {
    p.fault.ge_p_enter = probability();
  } else if (key == "fault_burst_exit") {
    p.fault.ge_p_exit = probability();
  } else if (key == "fault_burst_loss") {
    p.fault.ge_loss_bad = probability();
  } else if (key == "fault_seed") {
    p.fault.seed = whole<std::uint64_t>(key, value);
  } else if (key == "fault_down_start_ms") {
    p.fault.down.push_back(DownWindow{
        des::SimTime::from_micros(real(key, value, kNonNegative) * 1e3),
        des::kNever});
  } else if (key == "fault_down_end_ms") {
    const double ms = real(key, value, kNonNegative);
    if (p.fault.down.empty()) {
      throw std::runtime_error{
          "fault_down_end_ms before any fault_down_start_ms"};
    }
    const des::SimTime end = des::SimTime::from_micros(ms * 1e3);
    if (end < p.fault.down.back().start) {
      reject(key, value, "an end no earlier than its window's start");
    }
    p.fault.down.back().end = end;
  } else {
    throw std::runtime_error{"unknown key '" + std::string{key} + "'"};
  }
}

void check_cluster(const ClusterParams& params) {
  if (params.nodes < 1) throw std::runtime_error{"nodes < 1"};
  if (params.ports_per_switch < 1) {
    throw std::runtime_error{"ports_per_switch < 1"};
  }
  // A crossing's key packs its source switch into the field
  // des::Engine::cross_tag has for it.
  if (params.switch_count() > des::Engine::kMaxCrossSources) {
    throw std::runtime_error{
        "more than " + std::to_string(des::Engine::kMaxCrossSources) +
        " switches (2^19, the cross key's source field); raise "
        "ports_per_switch or lower nodes"};
  }
  // The cross key reproduces the event order of the retired window engine,
  // whose crossings land at least one positive lookahead ahead
  // (ClusterParams::safe_lookahead(), DESIGN.md section 9).
  if (params.switch_count() > 1 &&
      params.safe_lookahead() <= des::Duration{}) {
    throw std::runtime_error{
        "a multi-switch cluster needs a positive lookahead; "
        "raise trunk_latency_us or switch_latency_us"};
  }
}

ClusterParams parse_cluster(std::istream& is, ClusterParams base) {
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const std::string_view text =
        std::string_view{line}.substr(0, line.find('#'));
    if (trim(text).empty()) continue;
    const std::string where =
        "parse_cluster: line " + std::to_string(lineno) + ": ";
    const auto eq = text.find('=');
    if (eq == std::string_view::npos) {
      throw std::runtime_error{where + "expected key = value"};
    }
    try {
      apply_cluster_setting(base, trim(text.substr(0, eq)),
                            trim(text.substr(eq + 1)));
    } catch (const std::runtime_error& e) {
      throw std::runtime_error{where + e.what()};
    }
  }
  try {
    check_cluster(base);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error{std::string{"parse_cluster: "} + e.what()};
  }
  return base;
}

}  // namespace net
