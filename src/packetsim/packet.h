// Packet representation for the packet-level simulator.
//
// Packets are small PODs that own no memory: a packet names its source route
// (the sequence of directed-link queues it will traverse) as a slice of the
// network's route table, where each flow's routes are written once when the
// flow starts, plus TCP metadata.
#ifndef CLOUDTALK_SRC_PACKETSIM_PACKET_H_
#define CLOUDTALK_SRC_PACKETSIM_PACKET_H_

#include <cstdint>

#include "src/common/units.h"

namespace cloudtalk {
namespace packetsim {

using FlowId = int64_t;

enum class PacketType : uint8_t {
  kTcpData,
  kTcpAck,
  kDatagram,  // One-shot message (e.g. web-search request fan-out).
};

inline constexpr Bytes kTcpHeaderBytes = 40;
inline constexpr Bytes kDefaultMss = 1460;  // Payload bytes per data packet.

// `size` link ids starting at `begin` in the network's route table.
struct RouteSlice {
  uint32_t begin = 0;
  uint32_t size = 0;
};

struct Packet {
  PacketType type = PacketType::kTcpData;
  FlowId flow = -1;
  int64_t seq = 0;      // Data: packet number. ACK: cumulative ack (next expected).
  Bytes size = 0;       // Wire size including headers.
  RouteSlice route;
  uint32_t hop = 0;     // Position in the route: the next link to enter.
};

}  // namespace packetsim
}  // namespace cloudtalk

#endif  // CLOUDTALK_SRC_PACKETSIM_PACKET_H_
