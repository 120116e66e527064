#include "net/cluster.h"

#include <istream>
#include <cstdint>
#include <sstream>
#include <stdexcept>

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

ClusterParams parse_cluster(std::istream& is, ClusterParams base) {
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const auto eq = line.find('=');
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    if (eq == std::string::npos) {
      throw std::runtime_error{"parse_cluster: line " + std::to_string(lineno) +
                               ": expected key = value"};
    }
    auto trim = [](std::string s) {
      const auto b = s.find_first_not_of(" \t\r");
      const auto e = s.find_last_not_of(" \t\r");
      return b == std::string::npos ? std::string{} : s.substr(b, e - b + 1);
    };
    const std::string key = trim(line.substr(0, eq));
    const std::string value_str = trim(line.substr(eq + 1));
    double value = 0.0;
    try {
      value = std::stod(value_str);
    } catch (const std::exception&) {
      throw std::runtime_error{"parse_cluster: line " + std::to_string(lineno) +
                               ": bad number '" + value_str + "'"};
    }
    if (key == "nodes") {
      base.nodes = static_cast<int>(value);
    } else if (key == "ports_per_switch") {
      base.ports_per_switch = static_cast<int>(value);
    } else if (key == "nic_mbit") {
      base.nic.rate = Rate::mbit(value);
    } else if (key == "nic_latency_us") {
      base.nic.latency = des::Duration::from_micros(value);
    } else if (key == "nic_buffer_frames") {
      base.nic.buffer = Bytes{static_cast<std::uint64_t>(value) * 1538};
    } else if (key == "trunk_gbit") {
      base.trunk.rate = Rate::gbit(value);
    } else if (key == "trunk_latency_us") {
      base.trunk.latency = des::Duration::from_micros(value);
    } else if (key == "trunk_buffer_kib") {
      base.trunk.buffer = Bytes{static_cast<std::uint64_t>(value) * 1024};
    } else if (key == "switch_latency_us") {
      base.switch_latency = des::Duration::from_micros(value);
    } else if (key == "lookahead_us") {
      // Overrides the derived cross-partition lookahead (see
      // ClusterParams::lookahead()). Must not exceed the topology's safe
      // bound — Network's partitioned constructor rejects it if it does.
      base.lookahead_override = des::Duration::from_micros(value);
      if (base.lookahead_override <= des::Duration{}) {
        throw std::runtime_error{"parse_cluster: line " +
                                 std::to_string(lineno) +
                                 ": lookahead_us must be positive"};
      }
    } else if (key == "eager_threshold_kib") {
      base.mpi.eager_threshold = Bytes{static_cast<std::uint64_t>(value) * 1024};
    } else if (key == "send_overhead_us") {
      base.host.send_overhead = des::Duration::from_micros(value);
    } else if (key == "recv_overhead_us") {
      base.host.recv_overhead = des::Duration::from_micros(value);
    } else if (key == "copy_ns_per_byte") {
      base.host.copy_ns_per_byte = value;
    } else if (key == "jitter_sigma") {
      base.host.jitter_sigma = value;
    } else if (key == "spike_prob") {
      base.host.spike_prob = value;
    } else if (key == "spike_mean_us") {
      base.host.spike_mean = des::Duration::from_micros(value);
    } else if (key == "rto_ms") {
      base.tcp.rto_initial = des::Duration::from_micros(value * 1e3);
      base.tcp.rto_min = base.tcp.rto_initial;
    } else if (key == "recv_window_kib") {
      base.tcp.recv_window = Bytes{static_cast<std::uint64_t>(value) * 1024};
    } else if (key == "fault_loss_rate") {
      base.fault.loss_rate = value;
    } else if (key == "fault_burst_enter") {
      base.fault.ge_p_enter = value;
    } else if (key == "fault_burst_exit") {
      base.fault.ge_p_exit = value;
    } else if (key == "fault_burst_loss") {
      base.fault.ge_loss_bad = value;
    } else if (key == "fault_seed") {
      base.fault.seed = static_cast<std::uint64_t>(value);
    } else if (key == "fault_down_start_ms") {
      base.fault.down.push_back(
          DownWindow{des::SimTime::from_micros(value * 1e3), des::kNever});
    } else if (key == "fault_down_end_ms") {
      if (base.fault.down.empty()) {
        throw std::runtime_error{"parse_cluster: line " +
                                 std::to_string(lineno) +
                                 ": fault_down_end_ms before any "
                                 "fault_down_start_ms"};
      }
      base.fault.down.back().end = des::SimTime::from_micros(value * 1e3);
    } else {
      throw std::runtime_error{"parse_cluster: line " + std::to_string(lineno) +
                               ": unknown key '" + key + "'"};
    }
  }
  if (base.nodes < 1) throw std::runtime_error{"parse_cluster: nodes < 1"};
  if (base.ports_per_switch < 1) {
    throw std::runtime_error{"parse_cluster: ports_per_switch < 1"};
  }
  // The runtime partitions a multi-switch cluster by switch, which needs a
  // positive lookahead between partitions (ClusterParams::safe_lookahead()).
  if (base.switch_count() > 1 && base.safe_lookahead() <= des::Duration{}) {
    throw std::runtime_error{
        "parse_cluster: a multi-switch cluster needs a positive lookahead; "
        "raise trunk_latency_us or switch_latency_us"};
  }
  const auto probability = [](double p) { return p >= 0.0 && p <= 1.0; };
  if (!probability(base.fault.loss_rate) ||
      !probability(base.fault.ge_p_enter) ||
      !probability(base.fault.ge_p_exit) ||
      !probability(base.fault.ge_loss_bad)) {
    throw std::runtime_error{
        "parse_cluster: fault probabilities must be in [0, 1]"};
  }
  return base;
}

}  // namespace net
