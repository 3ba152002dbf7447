// Packet-level network simulator (the reproduction's htsim stand-in).
//
// A PacketNetwork instantiates one drop-tail queue per directed topology
// link (queue rate clamped to the attached host's NIC cap on access links),
// routes packets over ECMP shortest paths, and runs TCP Reno sources with
// slow start, fast retransmit and RTO-based recovery. Its purpose in
// CloudTalk is the packet-level query evaluator (Section 4): "very accurate
// and captures packet-level effects such as incast" — the basis of the
// web-search placement study (Section 5.4, Figure 11).
#ifndef CLOUDTALK_SRC_PACKETSIM_NETWORK_H_
#define CLOUDTALK_SRC_PACKETSIM_NETWORK_H_

#include <deque>
#include <functional>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/packetsim/event_queue.h"
#include "src/packetsim/packet.h"
#include "src/topology/topology.h"

namespace cloudtalk {
namespace packetsim {

struct NetworkParams {
  int queue_packets = 50;              // Per-port buffer ("50-packet buffers", §5.4).
  Seconds min_rto = 200 * kMillisecond;  // Classic incast-era minimum RTO.
  double initial_cwnd = 2;             // Packets.
  double max_cwnd = 256;               // Socket-buffer bound, packets.
  Bytes mss = kDefaultMss;
  // Randomization applied to each armed RTO (fractional, +/-). Without it,
  // synchronized incast victims can retransmit in lock-step indefinitely;
  // the default is kept small because incast-era TCP stacks had essentially
  // none — larger values soften the collapse the Figure 11 study measures.
  double rto_jitter = 0.01;
  uint64_t seed = 1;
  // Priority Flow Control (Section 2: "The provider could enable PFC, a
  // layer two mechanism that uses pause messages to prevent loss and
  // completely eliminate incast-related problems. PFC cannot be enabled for
  // all tenants, though, because it reduces throughput for elephant
  // flows."). When on, a queue never drops: a link holds its head packet
  // (pausing, with head-of-line blocking) until the next hop has room.
  bool enable_pfc = false;
  Seconds pfc_poll = 5 * kMicrosecond;  // Pause re-check interval.
};

// One directed link: drop-tail buffer + serialization + propagation. The
// buffer is a ring of packet-pool indices that allocates on its first packet
// and doubles when full, so it holds PFC headroom above `capacity` too.
class LinkQueue {
 public:
  LinkQueue(Bps rate, Seconds delay, int capacity_packets)
      : rate_(rate), delay_(delay), capacity_(static_cast<size_t>(capacity_packets)) {}

  int64_t drops() const { return drops_; }
  size_t depth() const { return size_; }
  bool HasRoom() const { return size_ < capacity_; }
  Bps rate() const { return rate_; }
  int64_t pause_events() const { return pause_events_; }

 private:
  friend class PacketNetwork;

  uint32_t front() const { return ring_[head_]; }
  void Push(uint32_t packet);
  uint32_t Pop() {
    const uint32_t packet = ring_[head_];
    head_ = (head_ + 1) & (ring_.size() - 1);
    --size_;
    return packet;
  }

  Bps rate_;
  Seconds delay_;
  size_t capacity_;
  std::vector<uint32_t> ring_;  // Power-of-two size, or empty.
  size_t head_ = 0;
  size_t size_ = 0;
  bool busy_ = false;
  int64_t drops_ = 0;
  int64_t pause_events_ = 0;
};

class PacketNetwork final : private EventHandler {
 public:
  using FlowCompletionCb = std::function<void(FlowId, Seconds)>;
  using DatagramCb = std::function<void(Seconds)>;

  PacketNetwork(const Topology* topo, NetworkParams params);
  ~PacketNetwork();
  PacketNetwork(const PacketNetwork&) = delete;
  PacketNetwork& operator=(const PacketNetwork&) = delete;

  // Starts a TCP transfer of `bytes` from src to dst at absolute time `at`.
  FlowId StartTcpFlow(NodeId src, NodeId dst, Bytes bytes, Seconds at,
                      FlowCompletionCb on_complete = nullptr);

  // MPTCP-style multipath transfer (Section 2: "The best solutions involve
  // changing the end-host stacks to spread high-throughput elephant
  // connections over multiple paths"): the bytes are striped over
  // `subflows` independent TCP subflows, each hashed onto its own ECMP
  // path; completion fires when the last subflow lands. Returns the first
  // subflow's id.
  FlowId StartMultipathFlow(NodeId src, NodeId dst, Bytes bytes, int subflows, Seconds at,
                            FlowCompletionCb on_complete = nullptr);

  // Fires one unreliable datagram; `on_delivery` runs at arrival (never on
  // drop).
  void SendDatagram(NodeId src, NodeId dst, Bytes size, Seconds at,
                    DatagramCb on_delivery = nullptr);

  EventQueue& events() { return events_; }
  Seconds now() const { return events_.now(); }
  void RunUntil(Seconds t) { events_.RunUntil(t); }
  void RunUntilIdle(Seconds hard_deadline = 1e9) { events_.RunUntilIdle(hard_deadline); }

  const NetworkParams& params() const { return params_; }
  int64_t total_drops() const;
  int64_t total_timeouts() const { return total_timeouts_; }
  int64_t total_pauses() const;

 private:
  // Typed event kinds (EventQueue::kCallback is 0).
  enum EventKind : uint32_t {
    kLinkDone = 1,  // a = link: head packet serialized, or a PFC re-poll.
    kArrive,        // a = packet: it left a link's pipe (or is sent now).
    kTcpStart,      // a = flow.
    kRtoTimeout,    // a = flow, b = timer generation.
  };
  // A TCP flow's source and sink state, or a datagram's delivery callback.
  struct Flow {
    FlowId id = -1;
    // Source.
    RouteSlice route_out;
    int64_t total_packets = 0;
    Bytes last_payload = 0;  // Payload of the final packet.
    FlowCompletionCb on_complete;
    double cwnd = 2;
    double ssthresh = 1e9;
    int64_t highest_sent = 0;  // Next fresh sequence number to send.
    int64_t acked = 0;         // All packets below this are delivered.
    int dupacks = 0;
    bool in_recovery = false;
    int64_t recovery_point = 0;
    bool done = false;
    // RTT estimation (one outstanding sample at a time).
    Seconds srtt = 0;
    Seconds rttvar = 0;
    Seconds rto = 0;
    int64_t sample_seq = -1;
    Seconds sample_time = 0;
    uint64_t timer_generation = 0;
    // Sink.
    RouteSlice route_back;
    int64_t expected = 0;  // Next in-order packet.
    // Buffered future packets, by sequence number; sized at the first gap.
    std::vector<bool> out_of_order;
    // Datagram.
    DatagramCb on_delivery;
  };

  void OnEvent(const Event& event) override;
  RouteSlice RouteOf(NodeId src, NodeId dst, uint64_t salt);
  FlowId NewFlow();
  uint32_t NewPacket(PacketType type, FlowId flow, int64_t seq, Bytes size, RouteSlice route);

  void Forward(uint32_t packet);  // Advance one hop or deliver.
  void Deliver(uint32_t packet);  // The packet reached its final node.
  void Enqueue(int32_t link, uint32_t packet);
  void ServiceNext(int32_t link);
  // After serialization: hand the head packet to the pipe, or — under PFC —
  // pause until the next hop has room.
  void CompleteHead(int32_t link);

  void TcpSend(Flow& flow);  // Push packets while cwnd allows.
  void TcpSendOne(Flow& flow, int64_t seq);
  void TcpOnAck(Flow& flow, int64_t ack);
  void TcpOnData(Flow& flow, int64_t seq);
  void ArmTimer(Flow& flow);
  void OnTimeout(Flow& flow, uint64_t generation);

  const Topology* topo_;
  NetworkParams params_;
  EventQueue events_{this};
  std::vector<LinkQueue> queues_;  // Indexed by LinkId.
  std::vector<int32_t> routes_;    // Every route's link ids; packets hold slices.
  std::vector<Packet> packets_;    // In-flight packet pool.
  std::vector<uint32_t> free_packets_;
  // Indexed by FlowId - 1. A deque so that a flow's state stays put while a
  // completion callback starts new flows.
  std::deque<Flow> flows_;
  int64_t total_timeouts_ = 0;
  Rng rng_;
};

}  // namespace packetsim
}  // namespace cloudtalk

#endif  // CLOUDTALK_SRC_PACKETSIM_NETWORK_H_
