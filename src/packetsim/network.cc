#include "src/packetsim/network.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

namespace cloudtalk {
namespace packetsim {

// ---------------- LinkQueue ----------------

void LinkQueue::Push(uint32_t packet) {
  if (size_ == ring_.size()) {
    std::vector<uint32_t> grown(ring_.empty() ? 16 : 2 * ring_.size());
    for (size_t i = 0; i < size_; ++i) {
      grown[i] = ring_[(head_ + i) & (ring_.size() - 1)];
    }
    ring_ = std::move(grown);
    head_ = 0;
  }
  ring_[(head_ + size_) & (ring_.size() - 1)] = packet;
  ++size_;
}

// ---------------- PacketNetwork ----------------

PacketNetwork::PacketNetwork(const Topology* topo, NetworkParams params)
    : topo_(topo), params_(params), rng_(params.seed) {
  queues_.reserve(topo->num_links());
  for (int l = 0; l < topo->num_links(); ++l) {
    const Link& link = topo->link(l);
    Bps rate = link.capacity;
    int capacity = params_.queue_packets;
    // Access links are clamped to the host NIC caps so per-VM rate limits
    // (EC2 profile) hold in the packet model too.
    if (topo->node(link.from).kind == NodeKind::kHost) {
      rate = std::min(rate, topo->host_caps(link.from).nic_up);
      // A host's egress queue is its NIC/qdisc buffer: effectively deep
      // (Linux txqueuelen-scale), and a local sender is backpressured, not
      // dropped. Shallow buffers belong to switch ports.
      capacity = std::max(capacity, 1000);
    }
    if (topo->node(link.to).kind == NodeKind::kHost) {
      rate = std::min(rate, topo->host_caps(link.to).nic_down);
    }
    queues_.emplace_back(rate, link.delay, capacity);
  }
}

PacketNetwork::~PacketNetwork() = default;

void PacketNetwork::OnEvent(const Event& event) {
  switch (static_cast<EventKind>(event.kind)) {
    case kLinkDone:
      CompleteHead(static_cast<int32_t>(event.a));
      return;
    case kArrive:
      Forward(event.a);
      return;
    case kTcpStart: {
      Flow& flow = flows_[event.a - 1];
      TcpSend(flow);
      ArmTimer(flow);
      return;
    }
    case kRtoTimeout:
      OnTimeout(flows_[event.a - 1], event.b);
      return;
  }
}

RouteSlice PacketNetwork::RouteOf(NodeId src, NodeId dst, uint64_t salt) {
  // Fold the network seed in so ECMP placement varies run to run (flow ids
  // alone are deterministic small integers).
  const uint64_t mixed = salt * 0x9e3779b97f4a7c15ULL + (params_.seed << 17);
  RouteSlice route;
  route.begin = static_cast<uint32_t>(routes_.size());
  for (LinkId link : topo_->PathBetween(src, dst, mixed)) {
    routes_.push_back(link);
  }
  route.size = static_cast<uint32_t>(routes_.size()) - route.begin;
  return route;
}

FlowId PacketNetwork::NewFlow() {
  flows_.emplace_back();
  flows_.back().id = static_cast<FlowId>(flows_.size());
  return flows_.back().id;
}

uint32_t PacketNetwork::NewPacket(PacketType type, FlowId flow, int64_t seq, Bytes size,
                                  RouteSlice route) {
  uint32_t index;
  if (free_packets_.empty()) {
    index = static_cast<uint32_t>(packets_.size());
    packets_.emplace_back();
  } else {
    index = free_packets_.back();
    free_packets_.pop_back();
  }
  Packet& packet = packets_[index];
  packet.type = type;
  packet.flow = flow;
  packet.seq = seq;
  packet.size = size;
  packet.route = route;
  packet.hop = 0;
  return index;
}

FlowId PacketNetwork::StartTcpFlow(NodeId src, NodeId dst, Bytes bytes, Seconds at,
                                   FlowCompletionCb on_complete) {
  const FlowId id = NewFlow();
  Flow& flow = flows_.back();
  flow.route_out = RouteOf(src, dst, static_cast<uint64_t>(id));
  flow.cwnd = params_.initial_cwnd;
  flow.rto = params_.min_rto;
  flow.total_packets =
      std::max<int64_t>(1, static_cast<int64_t>(std::ceil(bytes / params_.mss)));
  const Bytes rem = bytes - (flow.total_packets - 1) * params_.mss;
  flow.last_payload = rem > 0 ? rem : params_.mss;
  flow.on_complete = std::move(on_complete);
  flow.route_back = RouteOf(dst, src, static_cast<uint64_t>(id));
  events_.ScheduleTyped(at, kTcpStart, static_cast<uint32_t>(id));
  return id;
}

FlowId PacketNetwork::StartMultipathFlow(NodeId src, NodeId dst, Bytes bytes, int subflows,
                                         Seconds at, FlowCompletionCb on_complete) {
  subflows = std::max(1, subflows);
  // Shared completion state across subflows.
  auto remaining = std::make_shared<int>(subflows);
  auto first = std::make_shared<FlowId>(-1);
  const Bytes stripe = bytes / subflows;
  for (int s = 0; s < subflows; ++s) {
    const Bytes this_stripe = s == subflows - 1 ? bytes - stripe * (subflows - 1) : stripe;
    const FlowId id = StartTcpFlow(
        src, dst, this_stripe, at,
        [remaining, on_complete, first](FlowId, Seconds t) {
          if (--*remaining == 0 && on_complete) {
            on_complete(*first, t);
          }
        });
    if (*first < 0) {
      *first = id;
    }
  }
  return *first;
}

void PacketNetwork::SendDatagram(NodeId src, NodeId dst, Bytes size, Seconds at,
                                 DatagramCb on_delivery) {
  const FlowId id = NewFlow();
  flows_.back().on_delivery = std::move(on_delivery);
  const RouteSlice route = RouteOf(src, dst, static_cast<uint64_t>(id));
  events_.ScheduleTyped(at, kArrive, NewPacket(PacketType::kDatagram, id, 0, size, route));
}

void PacketNetwork::Forward(uint32_t index) {
  Packet& packet = packets_[index];
  if (packet.hop >= packet.route.size) {
    Deliver(index);
    return;
  }
  const int32_t link = routes_[packet.route.begin + packet.hop];
  packet.hop += 1;
  Enqueue(link, index);
}

void PacketNetwork::Deliver(uint32_t index) {
  const Packet packet = packets_[index];
  free_packets_.push_back(index);
  Flow& flow = flows_[packet.flow - 1];
  switch (packet.type) {
    case PacketType::kTcpData:
      TcpOnData(flow, packet.seq);
      return;
    case PacketType::kTcpAck:
      TcpOnAck(flow, packet.seq);
      return;
    case PacketType::kDatagram: {
      // Moved out: the state is done with, and the callback may send more.
      DatagramCb on_delivery = std::move(flow.on_delivery);
      flow.on_delivery = nullptr;
      if (on_delivery) {
        on_delivery(now());
      }
      return;
    }
  }
}

void PacketNetwork::Enqueue(int32_t link, uint32_t index) {
  LinkQueue& queue = queues_[link];
  if (!queue.HasRoom() && !params_.enable_pfc) {
    ++queue.drops_;
    free_packets_.push_back(index);
    return;
  }
  // Under PFC the sender was paused before overflow; an occasional packet
  // above the nominal capacity is absorbed (PFC headroom).
  queue.Push(index);
  if (!queue.busy_) {
    queue.busy_ = true;
    ServiceNext(link);
  }
}

void PacketNetwork::ServiceNext(int32_t link) {
  // Serialize the head packet; at finish, hand it to the pipe (propagation
  // delay) and start on the next one.
  const LinkQueue& queue = queues_[link];
  const Seconds tx_time = packets_[queue.front()].size * 8.0 / queue.rate_;
  events_.ScheduleTyped(now() + tx_time, kLinkDone, static_cast<uint32_t>(link));
}

void PacketNetwork::CompleteHead(int32_t link) {
  LinkQueue& queue = queues_[link];
  if (params_.enable_pfc) {
    const Packet& head = packets_[queue.front()];
    if (head.hop < head.route.size &&
        !queues_[routes_[head.route.begin + head.hop]].HasRoom()) {
      // Paused: the downstream port has no room. Hold the head (and, with
      // it, everything behind — head-of-line blocking) and re-check shortly.
      ++queue.pause_events_;
      events_.ScheduleTyped(now() + params_.pfc_poll, kLinkDone, static_cast<uint32_t>(link));
      return;
    }
  }
  events_.ScheduleTyped(now() + queue.delay_, kArrive, queue.Pop());
  if (queue.size_ == 0) {
    queue.busy_ = false;
  } else {
    ServiceNext(link);
  }
}

void PacketNetwork::TcpSendOne(Flow& flow, int64_t seq) {
  const Bytes payload = seq == flow.total_packets - 1 ? flow.last_payload : params_.mss;
  Forward(NewPacket(PacketType::kTcpData, flow.id, seq, payload + kTcpHeaderBytes,
                    flow.route_out));
}

void PacketNetwork::TcpSend(Flow& src) {
  src.cwnd = std::min(src.cwnd, params_.max_cwnd);
  while (!src.done && src.highest_sent < src.total_packets &&
         src.highest_sent - src.acked < static_cast<int64_t>(src.cwnd)) {
    // Local backpressure: a real sender blocks when its NIC queue is full
    // instead of dropping its own packets; the ACK clock resumes it.
    if (src.route_out.size > 0 && !queues_[routes_[src.route_out.begin]].HasRoom()) {
      break;
    }
    const int64_t seq = src.highest_sent;
    if (src.sample_seq < 0) {
      src.sample_seq = seq;
      src.sample_time = now();
    }
    src.highest_sent += 1;
    TcpSendOne(src, seq);
  }
}

void PacketNetwork::TcpOnData(Flow& sink, int64_t seq) {
  if (seq == sink.expected) {
    sink.expected += 1;
    while (sink.expected < static_cast<int64_t>(sink.out_of_order.size()) &&
           sink.out_of_order[sink.expected]) {
      sink.expected += 1;
    }
  } else if (seq > sink.expected) {
    if (sink.out_of_order.empty()) {
      sink.out_of_order.resize(sink.total_packets);
    }
    sink.out_of_order[seq] = true;
  }
  Forward(NewPacket(PacketType::kTcpAck, sink.id, sink.expected, kTcpHeaderBytes,
                    sink.route_back));
}

void PacketNetwork::TcpOnAck(Flow& src, int64_t ack) {
  if (src.done) {
    return;
  }
  if (ack > src.acked) {
    const int64_t newly = ack - src.acked;
    src.acked = ack;
    src.dupacks = 0;
    // RTT sample: the outstanding probe is covered by this ACK.
    if (src.sample_seq >= 0 && ack > src.sample_seq) {
      const Seconds rtt = now() - src.sample_time;
      if (src.srtt == 0) {
        src.srtt = rtt;
        src.rttvar = rtt / 2;
      } else {
        src.rttvar = 0.75 * src.rttvar + 0.25 * std::abs(src.srtt - rtt);
        src.srtt = 0.875 * src.srtt + 0.125 * rtt;
      }
      src.rto = std::max(params_.min_rto, src.srtt + 4 * src.rttvar);
      src.sample_seq = -1;
    }
    if (src.in_recovery && ack >= src.recovery_point) {
      src.in_recovery = false;
      src.cwnd = src.ssthresh;
    } else if (src.in_recovery) {
      // NewReno partial ACK: another packet in the pre-loss window is also
      // missing; retransmit the next hole immediately instead of waiting
      // for an RTO.
      if (src.sample_seq >= src.acked) {
        src.sample_seq = -1;  // Sample would span a retransmission.
      }
      TcpSendOne(src, src.acked);
    } else {
      if (src.cwnd < src.ssthresh) {
        src.cwnd += newly;  // Slow start.
      } else {
        src.cwnd += newly / src.cwnd;  // Congestion avoidance.
      }
    }
    if (src.acked >= src.total_packets) {
      src.done = true;
      src.timer_generation += 1;  // Disarm pending timer.
      if (src.on_complete) {
        src.on_complete(src.id, now());
      }
      return;
    }
    ArmTimer(src);
    TcpSend(src);
    return;
  }
  // Duplicate ACK.
  src.dupacks += 1;
  if (src.dupacks > 3 && src.in_recovery) {
    // Window inflation: each further dupack signals a departure, so admit
    // one more packet to keep the pipe full during recovery.
    src.cwnd += 1;
    TcpSend(src);
    return;
  }
  if (src.dupacks == 3 && !src.in_recovery) {
    // Fast retransmit + fast recovery.
    const double inflight = static_cast<double>(src.highest_sent - src.acked);
    src.ssthresh = std::max(2.0, inflight / 2.0);
    src.cwnd = src.ssthresh + 3;
    src.in_recovery = true;
    src.recovery_point = src.highest_sent;
    if (src.sample_seq >= src.acked) {
      src.sample_seq = -1;  // Sample packet is being retransmitted.
    }
    TcpSendOne(src, src.acked);
    ArmTimer(src);
  }
}

void PacketNetwork::ArmTimer(Flow& src) {
  src.timer_generation += 1;
  const uint64_t generation = src.timer_generation;
  const double jitter =
      params_.rto_jitter > 0 ? rng_.Uniform(-params_.rto_jitter, params_.rto_jitter) : 0.0;
  events_.ScheduleTyped(now() + src.rto * (1.0 + jitter), kRtoTimeout,
                        static_cast<uint32_t>(src.id), generation);
}

void PacketNetwork::OnTimeout(Flow& src, uint64_t generation) {
  if (src.done || generation != src.timer_generation || src.acked >= src.total_packets) {
    return;
  }
  ++total_timeouts_;
  // Go-back-N: collapse the window and resend from the hole.
  src.ssthresh = std::max(2.0, src.cwnd / 2.0);
  src.cwnd = 1;
  src.dupacks = 0;
  src.in_recovery = false;
  src.highest_sent = src.acked;
  src.sample_seq = -1;  // An RTT sample across a retransmit would be bogus.
  src.rto = std::min(src.rto * 2, 60.0);
  TcpSend(src);
  ArmTimer(src);
}

int64_t PacketNetwork::total_drops() const {
  int64_t drops = 0;
  for (const LinkQueue& queue : queues_) {
    drops += queue.drops();
  }
  return drops;
}

int64_t PacketNetwork::total_pauses() const {
  int64_t pauses = 0;
  for (const LinkQueue& queue : queues_) {
    pauses += queue.pause_events();
  }
  return pauses;
}

}  // namespace packetsim
}  // namespace cloudtalk
