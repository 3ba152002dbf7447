// The three served-path workloads: seeded query generators, the fleets and
// servers they run against, and the reply oracles.
//
//  wide_pool      flat CloudTalkServer, 1 client, 300-host VL2 fleet with
//                 background transfers; unique HDFS 3-replica pipelines over
//                 100-300-host pools, half `option noreserve`. The language
//                 front end (lint, canon, scope, bound) dominates and grows
//                 with pool size; pools over the sampling threshold are
//                 sampled.
//  packet_search  flat server with a PacketLevelEstimator, 1 client,
//                 eval_threads = 1, 100-host fleet; unique `option packet`
//                 shuffles between two disjoint 2-3-host pools. The
//                 exhaustive engine and the packet simulator do almost all
//                 of the work.
//  sharded_mix    4-shard ShardedServer, 3 clients, 1000-host fleet; small
//                 pools, each client mostly in its own slice of racks, about
//                 a fifth of queries on one rack every client shares (so
//                 conflicting footprints queue at admission), ~80%
//                 reserving (two-phase prepare/commit), the rest heartbeat
//                 polls of which some resend an earlier poll's exact bytes.
//
// Every deployment runs the server's reservation clock off a logical clock
// that advances a fixed step per answered query, so reservations expire and
// the table holds a steady, small share of the fleet.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/core/packet_estimator.h"
#include "src/core/server.h"
#include "src/core/shard.h"
#include "src/harness/cluster.h"
#include "src/topology/topology.h"
#include "timing.h"

namespace perfbench {

enum class Workload { kWidePool, kPacketSearch, kShardedMix };

std::optional<Workload> ParseWorkload(std::string_view name);
const char* WorkloadName(Workload workload);

// Closed-loop client threads the workload runs with.
int ClientsOf(Workload workload);
bool IsSharded(Workload workload);

// One generated query plus what the oracles need to judge its reply.
struct GeneratedQuery {
  std::string text;
  std::vector<std::string> vars;
  std::vector<int> pool_of;  // Per variable: index into `pools`.
  std::vector<std::vector<std::string>> pools;
};

// The fleet a workload runs on (topology only; the generators need no more).
cloudtalk::Topology MakeTopology(Workload workload);

// Seeded query stream for one client. The same (workload, seed, client)
// gives the same bytes, query after query.
class QueryStream {
 public:
  QueryStream(Workload workload, const cloudtalk::Topology* topo, uint64_t seed, int client);

  GeneratedQuery Next();

 private:
  GeneratedQuery NextWidePool();
  GeneratedQuery NextPacketSearch();
  GeneratedQuery NextShardedMix();
  // `count` distinct host addresses drawn from hosts [first, first + span).
  std::vector<std::string> Pool(int first, int span, int count);

  Workload workload_;
  const cloudtalk::Topology* topo_;
  int client_;
  cloudtalk::Rng rng_;
  std::vector<GeneratedQuery> past_polls_;  // sharded_mix resends.
};

// Server reservation clock: a fixed logical step per answered query.
class LogicalClock {
 public:
  cloudtalk::Seconds Now() const;
  void Advance() { ticks_.fetch_add(1, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> ticks_{0};
};

enum class ServerKind { kFlat, kSharded };

// A fleet plus one server over it. Heap-only: the server's clock and the
// decorators point into it.
class Deployment {
 public:
  // `traced` wires the timing decorators between the server and its probe
  // transport / packet estimator.
  Deployment(Workload workload, uint64_t seed, ServerKind kind, bool traced);
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  // Answers and then advances the logical clock one step.
  cloudtalk::Result<cloudtalk::QueryReply> Answer(const std::string& text);
  // Reservations held now (all shards together on the sharded server).
  int ActiveReservations() const;

  cloudtalk::Cluster& fleet() { return *fleet_; }

 private:
  LogicalClock clock_;
  std::unique_ptr<cloudtalk::Cluster> fleet_;
  std::unique_ptr<cloudtalk::PacketLevelEstimator> packet_;
  std::unique_ptr<TimingTransport> timing_transport_;
  std::unique_ptr<TimingEstimator> timing_estimator_;
  std::unique_ptr<cloudtalk::CloudTalkServer> flat_;
  std::unique_ptr<cloudtalk::ShardedServer> sharded_;
};

// Everything a reply exposes, rendered bit-faithfully: ok-ness and error
// text, binding, per-variable scores, makespan (%.17g).
std::string ReplyDigest(const cloudtalk::Result<cloudtalk::QueryReply>& reply);

// FNV-1a over `bytes`, continuing from `hash`.
uint64_t Fnv1a(uint64_t hash, std::string_view bytes);
inline constexpr uint64_t kFnvOffset = 14695981039346656037ull;

// Per-reply oracle: the reply is an answer, and binds every variable to a
// member of its pool, with distinct hosts. Empty when it holds, otherwise
// the reason.
std::string CheckBinding(const GeneratedQuery& query,
                         const cloudtalk::Result<cloudtalk::QueryReply>& reply);

// The minimum makespan over every distinct binding of `query`, each scored
// by `estimator` outside any server (the packet_search oracle: the
// exhaustive reply's makespan must equal it bit for bit).
cloudtalk::Result<double> BruteForceMakespan(const GeneratedQuery& query,
                                             cloudtalk::CompletionEstimator& estimator);

// Whether query `index` of a stream belongs to the seeded oracle subset
// (one in `one_in`).
bool InOracleSubset(uint64_t seed, uint64_t index, int one_in);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
