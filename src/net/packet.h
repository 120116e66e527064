// The unit of transmission in the network model. No payload data is carried
// — messages are byte *counts* — so a packet is a small value type.
#pragma once

#include <cstdint>

#include "net/units.h"

namespace net {

struct Packet {
  std::uint64_t id = 0;        ///< globally unique, for tracing
  int src_node = 0;
  int dst_node = 0;
  Bytes wire_bytes{};          ///< full cost on the wire incl. all framing

  // Transport fields (TCP-lite).
  SeqNo seq{};                 ///< data: first stream byte;  ack: cumulative
  Bytes payload{};             ///< data: stream bytes carried (0 for acks)
};

}  // namespace net
