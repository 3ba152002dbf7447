#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <sstream>
#include <unordered_set>

#include "src/lang/parser.h"

namespace perfbench {
namespace {

using cloudtalk::Seconds;

constexpr int kHostsPerRack = 20;
constexpr int kShards = 4;
constexpr int kShardedClients = 3;
constexpr int kHotRack = 0;
// Logical time per answered query. With the default 300 ms hold only the
// last ~30 answers hold reservations: a few dozen hosts on wide_pool and
// sharded_mix, well under half of either fleet, and a handful of the shared
// rack's 20.
constexpr Seconds kClockStep = 10 * cloudtalk::kMillisecond;
constexpr size_t kPollHistory = 16;

int RacksOf(Workload workload) {
  switch (workload) {
    case Workload::kWidePool:
      return 15;
    case Workload::kPacketSearch:
      return 5;
    case Workload::kShardedMix:
      return 50;
  }
  return 1;
}

std::string JoinPool(const std::vector<std::string>& pool) {
  std::string out = "(";
  for (size_t i = 0; i < pool.size(); ++i) {
    out += (i == 0 ? "" : " ") + pool[i];
  }
  return out + ")";
}

cloudtalk::ServerConfig ServerConfigFor(Workload workload, uint64_t seed) {
  cloudtalk::ServerConfig config;
  config.seed = seed;
  config.eval_threads = 1;
  config.admission_slots = std::max(config.admission_slots, ClientsOf(workload));
  return config;
}

// Seeded background transfers (one per five hosts, 100-900 Mbps between
// random hosts) so probed status differs across the fleet.
void AddBackground(cloudtalk::Cluster* fleet, uint64_t seed) {
  cloudtalk::Rng rng(seed ^ 0x8ebc6af09c88c6e3ull);
  const int hosts = fleet->num_hosts();
  for (int i = 0; i < hosts / 5; ++i) {
    const int a = static_cast<int>(rng.UniformInt(0, hosts - 1));
    const int b = static_cast<int>(rng.UniformInt(0, hosts - 1));
    if (a != b) {
      fleet->AddBackgroundPair(fleet->host(a), fleet->host(b),
                               static_cast<double>(rng.UniformInt(1, 9)) * 100 *
                                   cloudtalk::kMbps);
    }
  }
  fleet->MeasureNow();
}

}  // namespace

std::optional<Workload> ParseWorkload(std::string_view name) {
  for (Workload w : {Workload::kWidePool, Workload::kPacketSearch, Workload::kShardedMix}) {
    if (name == WorkloadName(w)) {
      return w;
    }
  }
  return std::nullopt;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kWidePool:
      return "wide_pool";
    case Workload::kPacketSearch:
      return "packet_search";
    case Workload::kShardedMix:
      return "sharded_mix";
  }
  return "?";
}

int ClientsOf(Workload workload) {
  return workload == Workload::kShardedMix ? kShardedClients : 1;
}

bool IsSharded(Workload workload) { return workload == Workload::kShardedMix; }

cloudtalk::Topology MakeTopology(Workload workload) {
  cloudtalk::Vl2Params params;
  params.num_racks = RacksOf(workload);
  params.hosts_per_rack = kHostsPerRack;
  return cloudtalk::MakeVl2(params);
}

// ---- Generators ----

QueryStream::QueryStream(Workload workload, const cloudtalk::Topology* topo, uint64_t seed,
                         int client)
    : workload_(workload),
      topo_(topo),
      client_(client),
      rng_(seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(client) * 0xbf58476d1ce4e5b9ull +
           static_cast<uint64_t>(workload)) {}

std::vector<std::string> QueryStream::Pool(int first, int span, int count) {
  std::vector<int> picks = rng_.SampleWithoutReplacement(span, count);
  rng_.Shuffle(picks);
  std::vector<std::string> pool;
  pool.reserve(picks.size());
  for (const int p : picks) {
    pool.push_back(topo_->IpOf(topo_->hosts()[first + p]));
  }
  return pool;
}

GeneratedQuery QueryStream::Next() {
  switch (workload_) {
    case Workload::kWidePool:
      return NextWidePool();
    case Workload::kPacketSearch:
      return NextPacketSearch();
    case Workload::kShardedMix:
      return NextShardedMix();
  }
  return {};
}

GeneratedQuery QueryStream::NextWidePool() {
  const int hosts = static_cast<int>(topo_->hosts().size());
  GeneratedQuery q;
  q.pools.push_back(Pool(0, hosts, static_cast<int>(rng_.UniformInt(100, 300))));
  q.vars = {"R1", "R2", "R3"};
  q.pool_of = {0, 0, 0};
  const std::string client =
      topo_->IpOf(topo_->hosts()[static_cast<size_t>(rng_.UniformInt(0, hosts - 1))]);
  std::ostringstream text;
  if (rng_.Bernoulli(0.5)) {
    text << "option noreserve\n";
  }
  text << "R1 = R2 = R3 = " << JoinPool(q.pools[0]) << "\n"
       << "pipe1 " << client << " -> R1 size " << rng_.UniformInt(64, 256) << "M\n"
       << "pipe2 R1 -> R2 transfer t(pipe1)\n"
       << "pipe3 R2 -> R3 transfer t(pipe2)\n";
  q.text = text.str();
  return q;
}

GeneratedQuery QueryStream::NextPacketSearch() {
  const int hosts = static_cast<int>(topo_->hosts().size());
  const int mappers = static_cast<int>(rng_.UniformInt(2, 3));
  const int reducers = static_cast<int>(rng_.UniformInt(2, 3));
  const std::vector<std::string> both = Pool(0, hosts, mappers + reducers);
  GeneratedQuery q;
  q.pools.emplace_back(both.begin(), both.begin() + mappers);
  q.pools.emplace_back(both.begin() + mappers, both.end());
  q.vars = {"M1", "R1"};
  q.pool_of = {0, 1};
  std::ostringstream text;
  text << "option packet\n"
       << "M1 = " << JoinPool(q.pools[0]) << "\n"
       << "R1 = " << JoinPool(q.pools[1]) << "\n"
       << "shuffle M1 -> R1 size " << rng_.UniformInt(128, 256) << "K\n";
  q.text = text.str();
  return q;
}

GeneratedQuery QueryStream::NextShardedMix() {
  const bool reserve = rng_.Bernoulli(0.8);
  if (!reserve && !past_polls_.empty() && rng_.Bernoulli(0.5)) {
    // A heartbeat resent byte for byte.
    return past_polls_[static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(past_polls_.size()) - 1))];
  }
  const int racks = static_cast<int>(topo_->hosts().size()) / kHostsPerRack;
  const int own_racks = (racks - 1) / kShardedClients;
  const int rack = rng_.Bernoulli(0.2)
                       ? kHotRack
                       : 1 + client_ * own_racks +
                             static_cast<int>(rng_.UniformInt(0, own_racks - 1));
  // Pool and the literal peer come from one rack; the peer is never in the
  // pool.
  std::vector<std::string> rack_hosts =
      Pool(rack * kHostsPerRack, kHostsPerRack, kHostsPerRack);
  const int k = static_cast<int>(rng_.UniformInt(2, 8));
  GeneratedQuery q;
  q.pools.emplace_back(rack_hosts.begin(), rack_hosts.begin() + k);
  q.vars = {"A"};
  q.pool_of = {0};
  const std::string& peer = rack_hosts[k];
  std::ostringstream text;
  if (reserve) {
    text << "A = " << JoinPool(q.pools[0]) << "\n"
         << "feed " << peer << " -> A size " << rng_.UniformInt(1, 64) << "M\n"
         << "spill A -> disk size " << rng_.UniformInt(1, 32) << "M\n";
  } else {
    text << "option noreserve\n"
         << "A = " << JoinPool(q.pools[0]) << "\n"
         << "report A -> " << peer << " size " << rng_.UniformInt(1, 8) << "M\n"
         << "log A -> disk size " << rng_.UniformInt(1, 8) << "M\n";
  }
  q.text = text.str();
  if (!reserve) {
    if (past_polls_.size() == kPollHistory) {
      past_polls_.erase(past_polls_.begin());
    }
    past_polls_.push_back(q);
  }
  return q;
}

// ---- Deployments ----

Seconds LogicalClock::Now() const {
  return static_cast<double>(ticks_.load(std::memory_order_relaxed)) * kClockStep;
}

Deployment::Deployment(Workload workload, uint64_t seed, ServerKind kind, bool traced) {
  cloudtalk::ClusterOptions options;
  options.seed = seed;
  options.server = ServerConfigFor(workload, seed);
  fleet_ = std::make_unique<cloudtalk::Cluster>(MakeTopology(workload), options);
  fleet_->StartStatusSweep();
  AddBackground(fleet_.get(), seed);

  cloudtalk::ProbeTransport* transport = &fleet_->transport();
  if (traced) {
    timing_transport_ = std::make_unique<TimingTransport>(transport);
    transport = timing_transport_.get();
  }
  cloudtalk::CompletionEstimator* estimator = nullptr;
  if (workload == Workload::kPacketSearch) {
    packet_ = std::make_unique<cloudtalk::PacketLevelEstimator>(&fleet_->topology(),
                                                                &fleet_->directory());
    estimator = packet_.get();
    if (traced) {
      timing_estimator_ = std::make_unique<TimingEstimator>(estimator);
      estimator = timing_estimator_.get();
    }
  }
  std::function<Seconds()> clock = [this] { return clock_.Now(); };
  if (kind == ServerKind::kFlat) {
    flat_ = std::make_unique<cloudtalk::CloudTalkServer>(
        options.server, &fleet_->directory(), transport, std::move(clock), estimator);
  } else {
    cloudtalk::ShardedConfig config;
    config.server = options.server;
    config.shards = kShards;
    sharded_ = std::make_unique<cloudtalk::ShardedServer>(config, &fleet_->directory(),
                                                          transport, std::move(clock), estimator);
  }
}

cloudtalk::Result<cloudtalk::QueryReply> Deployment::Answer(const std::string& text) {
  cloudtalk::Result<cloudtalk::QueryReply> reply =
      flat_ != nullptr ? flat_->Answer(text) : sharded_->Answer(text);
  clock_.Advance();
  return reply;
}

int Deployment::ActiveReservations() const {
  const Seconds now = clock_.Now();
  if (flat_ != nullptr) {
    return flat_->reservations().ActiveCount(now);
  }
  int active = 0;
  for (int s = 0; s < sharded_->num_shards(); ++s) {
    active += sharded_->shard(s).reservations().ActiveCount(now);
  }
  return active;
}

// ---- Oracles ----

std::string ReplyDigest(const cloudtalk::Result<cloudtalk::QueryReply>& reply) {
  if (!reply.ok()) {
    return "error: " + reply.error().message;
  }
  std::vector<std::string> binding;
  for (const auto& [var, endpoint] : reply.value().binding) {
    binding.push_back(var + "=" + endpoint.name);
  }
  std::sort(binding.begin(), binding.end());
  std::vector<std::string> scores;
  for (const auto& [name, score] : reply.value().scores) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s=%.17g", name.c_str(), score);
    scores.push_back(buf);
  }
  std::sort(scores.begin(), scores.end());
  std::string out = "binding [";
  for (const std::string& b : binding) {
    out += b + " ";
  }
  out += "] scores [";
  for (const std::string& s : scores) {
    out += s + " ";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", reply.value().estimate.makespan);
  return out + "] makespan " + buf;
}

uint64_t Fnv1a(uint64_t hash, std::string_view bytes) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string CheckBinding(const GeneratedQuery& query,
                         const cloudtalk::Result<cloudtalk::QueryReply>& reply) {
  if (!reply.ok()) {
    return "error reply: " + reply.error().message;
  }
  const cloudtalk::Binding& binding = reply.value().binding;
  if (binding.size() != query.vars.size()) {
    return "binding has " + std::to_string(binding.size()) + " variables, query has " +
           std::to_string(query.vars.size());
  }
  std::unordered_set<std::string> used;
  for (size_t v = 0; v < query.vars.size(); ++v) {
    const auto it = binding.find(query.vars[v]);
    if (it == binding.end()) {
      return "variable " + query.vars[v] + " is unbound";
    }
    const std::vector<std::string>& pool = query.pools[static_cast<size_t>(query.pool_of[v])];
    if (std::find(pool.begin(), pool.end(), it->second.name) == pool.end()) {
      return query.vars[v] + " bound to " + it->second.name + ", outside its pool";
    }
    if (!used.insert(it->second.name).second) {
      return query.vars[v] + " bound to " + it->second.name + ", already bound";
    }
  }
  return "";
}

cloudtalk::Result<double> BruteForceMakespan(const GeneratedQuery& query,
                                             cloudtalk::CompletionEstimator& estimator) {
  cloudtalk::Result<cloudtalk::lang::Query> parsed = cloudtalk::lang::Parse(query.text);
  if (!parsed.ok()) {
    return parsed.error();
  }
  cloudtalk::Result<cloudtalk::lang::CompiledQuery> compiled =
      cloudtalk::lang::CompiledQuery::Compile(parsed.value());
  if (!compiled.ok()) {
    return compiled.error();
  }
  const cloudtalk::StatusByAddress no_status;
  std::optional<double> best;
  cloudtalk::Binding binding;
  std::unordered_set<std::string> used;
  // Depth-first walk over every distinct assignment.
  std::function<cloudtalk::Result<bool>(size_t)> walk =
      [&](size_t depth) -> cloudtalk::Result<bool> {
    if (depth == query.vars.size()) {
      cloudtalk::Result<cloudtalk::Estimate> estimate =
          estimator.EstimateQuery(compiled.value(), binding, no_status);
      if (!estimate.ok()) {
        return estimate.error();
      }
      if (!best.has_value() || estimate.value().makespan < *best) {
        best = estimate.value().makespan;
      }
      return true;
    }
    for (const std::string& host : query.pools[static_cast<size_t>(query.pool_of[depth])]) {
      if (!used.insert(host).second) {
        continue;
      }
      binding[query.vars[depth]] = cloudtalk::lang::Endpoint::Address(host);
      cloudtalk::Result<bool> inner = walk(depth + 1);
      used.erase(host);
      if (!inner.ok()) {
        return inner;
      }
    }
    return true;
  };
  cloudtalk::Result<bool> done = walk(0);
  if (!done.ok()) {
    return done.error();
  }
  if (!best.has_value()) {
    return cloudtalk::Error{"no distinct binding exists"};
  }
  return *best;
}

bool InOracleSubset(uint64_t seed, uint64_t index, int one_in) {
  // SplitMix64 of (seed, index): a fixed, seed-dependent subset.
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + index + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z % static_cast<uint64_t>(one_in) == 0;
}

}  // namespace perfbench
