// Identity golden for the packet engine (contract D506, DESIGN.md).
//
// The packet simulator's output is a pure function of its inputs and seed.
// Every figure and every served `option packet` reply built on it changes if
// the engine's event order, TCP arithmetic or RNG draws change, so a rewrite
// of the engine must reproduce these digests bit for bit. Each scenario
// renders what it observed — completion times in callback order, drop,
// timeout and pause counters — as %.17g text, and the test pins an FNV-1a
// digest of that text. On a mismatch the full text is printed.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/directory.h"
#include "src/core/packet_estimator.h"
#include "src/lang/analysis.h"
#include "src/lang/parser.h"
#include "src/packetsim/network.h"
#include "src/topology/topology.h"
#include "src/websearch/search_cluster.h"

namespace cloudtalk {
namespace {

using packetsim::FlowId;
using packetsim::NetworkParams;
using packetsim::PacketNetwork;

// Text of observed values; each value is written with %.17g, which
// round-trips every double.
class Trace {
 public:
  void Add(const char* label, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s=%.17g\n", label, value);
    text_ += buf;
  }
  // "<label><index>=<value>".
  void Add(const char* label, int64_t index, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%" PRId64 "=%.17g\n", label, index, value);
    text_ += buf;
  }
  void Counters(const PacketNetwork& net) {
    Add("drops", static_cast<double>(net.total_drops()));
    Add("timeouts", static_cast<double>(net.total_timeouts()));
    Add("pauses", static_cast<double>(net.total_pauses()));
  }
  const std::string& text() const { return text_; }
  std::string Digest() const {
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : text_) {
      hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, hash);
    return buf;
  }

 private:
  std::string text_;
};

#define EXPECT_DIGEST(trace, expected) \
  EXPECT_EQ((trace).Digest(), expected) << (trace).text()

SingleSwitchParams Cluster(int hosts) {
  SingleSwitchParams params;
  params.num_hosts = hosts;
  params.link_capacity = 1 * kGbps;
  params.link_delay = 50 * kMicrosecond;
  return params;
}

PacketNetwork::FlowCompletionCb Record(Trace* trace) {
  return [trace](FlowId id, Seconds t) {
    trace->Add("flow", id, t);
  };
}

TEST(PacketGoldenTest, SingleFlowSameRack) {
  const Topology topo = MakeSingleSwitch(Cluster(4));
  PacketNetwork net(&topo, NetworkParams{});
  Trace trace;
  net.StartTcpFlow(topo.hosts()[0], topo.hosts()[1], 1 * kMB, 0, Record(&trace));
  net.RunUntilIdle();
  trace.Counters(net);
  EXPECT_DIGEST(trace, "4aa2142dc3e59422");
}

TEST(PacketGoldenTest, SingleFlowCrossRack) {
  Vl2Params vp;
  vp.num_racks = 3;
  vp.hosts_per_rack = 4;
  const Topology topo = MakeVl2(vp);
  PacketNetwork net(&topo, NetworkParams{});
  Trace trace;
  net.StartTcpFlow(topo.hosts()[0], topo.hosts()[4], 1 * kMB, 0, Record(&trace));
  net.RunUntilIdle();
  trace.Counters(net);
  EXPECT_DIGEST(trace, "5bcfe1d51354f59a");
}

TEST(PacketGoldenTest, TwoFlowsShareBottleneck) {
  const Topology topo = MakeSingleSwitch(Cluster(4));
  PacketNetwork net(&topo, NetworkParams{});
  Trace trace;
  net.StartTcpFlow(topo.hosts()[0], topo.hosts()[2], 2 * kMB, 0, Record(&trace));
  net.StartTcpFlow(topo.hosts()[1], topo.hosts()[2], 2 * kMB, 0.001, Record(&trace));
  net.RunUntilIdle();
  trace.Counters(net);
  EXPECT_DIGEST(trace, "770dce09a32ffd02");
}

Trace Incast(int buffer_packets, bool pfc) {
  const Topology topo = MakeSingleSwitch(Cluster(33));
  NetworkParams params;
  params.queue_packets = buffer_packets;
  params.enable_pfc = pfc;
  PacketNetwork net(&topo, params);
  Trace trace;
  for (int i = 1; i <= 32; ++i) {
    net.StartTcpFlow(topo.hosts()[i], topo.hosts()[0], 64 * kKB, 0, Record(&trace));
  }
  net.RunUntilIdle();
  trace.Counters(net);
  return trace;
}

TEST(PacketGoldenTest, Incast50PacketBuffers) {
  EXPECT_DIGEST(Incast(50, false), "e09310a8d68d0241");
}

TEST(PacketGoldenTest, Incast200PacketBuffers) {
  EXPECT_DIGEST(Incast(200, false), "69d24b58f4b72ae5");
}

TEST(PacketGoldenTest, PfcIncast) {
  EXPECT_DIGEST(Incast(50, true), "96294db8c7000468");
}

TEST(PacketGoldenTest, PfcElephantBesideIncast) {
  Vl2Params vp;
  vp.num_racks = 3;
  vp.hosts_per_rack = 12;
  vp.tor_uplink = 2 * kGbps;
  const Topology topo = MakeVl2(vp);
  NetworkParams params;
  params.enable_pfc = true;
  PacketNetwork net(&topo, params);
  Trace trace;
  net.StartTcpFlow(topo.hosts()[12], topo.hosts()[0], 4 * kMB, 0, Record(&trace));
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 20; ++i) {
      net.StartTcpFlow(topo.hosts()[13 + i], topo.hosts()[1], 30 * kKB, round * 0.01,
                       Record(&trace));
    }
  }
  net.RunUntilIdle(120);
  trace.Counters(net);
  EXPECT_DIGEST(trace, "dfad6b0744e9cda0");
}

Trace Multipath(int subflows) {
  Vl2Params vp;
  vp.num_racks = 2;
  vp.hosts_per_rack = 8;
  vp.tor_uplink = 2 * kGbps;
  const Topology topo = MakeVl2(vp);
  NetworkParams params;
  params.seed = 3;
  PacketNetwork net(&topo, params);
  Trace trace;
  for (int i = 0; i < 8; ++i) {
    net.StartMultipathFlow(topo.hosts()[i], topo.hosts()[8 + i], 2 * kMB, subflows, 0,
                           Record(&trace));
  }
  net.RunUntilIdle(120);
  trace.Counters(net);
  return trace;
}

TEST(PacketGoldenTest, MultipathOneSubflow) {
  EXPECT_DIGEST(Multipath(1), "3e83eaa43d3decdd");
}

TEST(PacketGoldenTest, MultipathFourSubflows) {
  EXPECT_DIGEST(Multipath(4), "b06771ec3c3f0bfb");
}

TEST(PacketGoldenTest, DatagramsDroppedAndDelivered) {
  const Topology topo = MakeSingleSwitch(Cluster(4));
  NetworkParams params;
  params.queue_packets = 4;
  PacketNetwork net(&topo, params);
  Trace trace;
  net.StartTcpFlow(topo.hosts()[0], topo.hosts()[1], 1 * kMB, 0, Record(&trace));
  for (int i = 0; i < 100; ++i) {
    net.SendDatagram(topo.hosts()[2], topo.hosts()[1], 1400, 0.001 + i * 1e-5,
                     [&trace, i](Seconds t) {
                       trace.Add("datagram", i, t);
                     });
  }
  net.RunUntilIdle(60);
  trace.Counters(net);
  EXPECT_DIGEST(trace, "5d5b38d88105ae9a");
}

// 64 bindings of the served packet-level shuffle: one 128-256 KB flow
// between two hosts of a 100-host VL2 (5 racks of 20), each estimated on a
// fresh network the way the exhaustive search estimates a binding.
TEST(PacketGoldenTest, PacketSearchMakespans) {
  Vl2Params vp;
  vp.num_racks = 5;
  vp.hosts_per_rack = 20;
  const Topology topo = MakeVl2(vp);
  TopologyDirectory directory(&topo);
  PacketLevelEstimator estimator(&topo, &directory);
  Rng rng(2017);
  Trace trace;
  for (int i = 0; i < 64; ++i) {
    const int src = static_cast<int>(rng.UniformInt(0, 99));
    int dst = static_cast<int>(rng.UniformInt(0, 98));
    dst += dst >= src ? 1 : 0;
    std::ostringstream text;
    text << "M1 = (" << topo.IpOf(topo.hosts()[src]) << ")\nR1 = ("
         << topo.IpOf(topo.hosts()[dst]) << ")\nshuffle M1 -> R1 size "
         << rng.UniformInt(128, 256) << "K\n";
    auto parsed = lang::Parse(text.str());
    ASSERT_TRUE(parsed.ok());
    auto compiled = lang::CompiledQuery::Compile(parsed.value());
    ASSERT_TRUE(compiled.ok());
    const Binding binding{{"M1", lang::Endpoint::Address(topo.IpOf(topo.hosts()[src]))},
                          {"R1", lang::Endpoint::Address(topo.IpOf(topo.hosts()[dst]))}};
    auto estimate = estimator.EstimateQuery(compiled.value(), binding, {});
    ASSERT_TRUE(estimate.ok()) << estimate.error().ToString();
    trace.Add("makespan", estimate.value().makespan);
    trace.Add("throughput", estimate.value().aggregate_throughput);
  }
  EXPECT_DIGEST(trace, "04e5d4f4a797faea");
}

// Figure 11's fabric (25 racks of 48, oversubscribed 2 Gbps ToR uplinks):
// the single-aggregator placement prediction and one measured load point.
TEST(PacketGoldenTest, Fig11WebSearchPoint) {
  Vl2Params vp;
  vp.num_racks = 25;
  vp.hosts_per_rack = 48;
  vp.tor_uplink = 2 * kGbps;
  const Topology topo = MakeVl2(vp);
  const auto& hosts = topo.hosts();
  std::vector<NodeId> leaves;
  for (int rack = 2; rack < 22; ++rack) {
    for (int i = 0; i < 5; ++i) {
      leaves.push_back(hosts[rack * 48 + i]);
    }
  }
  const NodeId frontend = hosts[0];
  const NodeId agg = hosts[2 * 48 + 40];

  std::ostringstream text;
  for (size_t i = 0; i < leaves.size(); ++i) {
    text << "f" << i << " " << topo.IpOf(leaves[i]) << " -> " << topo.IpOf(agg)
         << " size 10KB\n";
  }
  text << "fm " << topo.IpOf(agg) << " -> " << topo.IpOf(frontend) << " size "
       << static_cast<long long>(leaves.size() * 10 * kKB) << " transfer t(f0)\n";
  auto parsed = lang::Parse(text.str());
  ASSERT_TRUE(parsed.ok());
  auto compiled = lang::CompiledQuery::Compile(parsed.value());
  ASSERT_TRUE(compiled.ok());
  TopologyDirectory directory(&topo);
  PacketLevelEstimator estimator(&topo, &directory);
  auto estimate = estimator.EstimateQuery(compiled.value(), {}, {});
  ASSERT_TRUE(estimate.ok());
  Trace trace;
  trace.Add("single_agg_predicted", estimate.value().makespan);

  SearchCluster cluster(&topo, SingleAggregatorDeployment(leaves, frontend, agg),
                        SearchParams{});
  const SearchStats stats = cluster.RunLoad(/*qps=*/20, /*duration=*/0.5, /*seed=*/99);
  trace.Add("issued", stats.issued);
  trace.Add("completed", stats.completed);
  trace.Add("drops", static_cast<double>(stats.drops));
  trace.Add("timeouts", static_cast<double>(stats.timeouts));
  for (const double latency : stats.latencies) {
    trace.Add("latency", latency);
  }
  EXPECT_DIGEST(trace, "7ce1480e7c6994e9");
}

}  // namespace
}  // namespace cloudtalk
