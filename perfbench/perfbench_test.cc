// Tests of the benchmark's own machinery: the percentile rule, generator
// determinism, and the timing estimator decorator's transparency.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/core/directory.h"
#include "src/core/exhaustive.h"
#include "src/core/packet_estimator.h"
#include "src/lang/parser.h"
#include "stats.h"
#include "timing.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) {
    v.push_back(i);
  }
  return v;
}

TEST(PercentileTest, NearestRankIsAnExactSample) {
  EXPECT_EQ(Quantile(OneTo(100), 0.5), 50);
  EXPECT_EQ(Quantile(OneTo(101), 0.5), 51);
  EXPECT_EQ(Quantile(OneTo(1000), 0.99), 990);
  EXPECT_EQ(Quantile({7}, 0.99), 7);
  EXPECT_EQ(Quantile({}, 0.5), 0);
}

TEST(PercentileTest, RequiresTenSamplesBeyond) {
  // A p99 needs 1000 samples: 990 at or below it, 10 beyond.
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(1001, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_EQ(Percentile(OneTo(1000), 0.99), 990);
  EXPECT_FALSE(Percentile(OneTo(999), 0.99).has_value());
  EXPECT_FALSE(Percentile({}, 0.5).has_value());
  EXPECT_EQ(Percentile(OneTo(20), 0.5), 10);
  EXPECT_FALSE(Percentile(OneTo(19), 0.5).has_value());
}

std::vector<std::string> Texts(Workload w, uint64_t seed, int client, int n) {
  const cloudtalk::Topology topo = MakeTopology(w);
  QueryStream stream(w, &topo, seed, client);
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(stream.Next().text);
  }
  return out;
}

TEST(GeneratorTest, SameSeedSameBytesOtherSeedOtherBytes) {
  for (Workload w : {Workload::kWidePool, Workload::kPacketSearch, Workload::kShardedMix}) {
    SCOPED_TRACE(WorkloadName(w));
    EXPECT_EQ(Texts(w, 7, 0, 40), Texts(w, 7, 0, 40));
    EXPECT_NE(Texts(w, 7, 0, 40), Texts(w, 8, 0, 40));
  }
  EXPECT_NE(Texts(Workload::kShardedMix, 7, 0, 40), Texts(Workload::kShardedMix, 7, 1, 40));
}

TEST(GeneratorTest, QueriesParseAndPoolsMatchTheText) {
  for (Workload w : {Workload::kWidePool, Workload::kPacketSearch, Workload::kShardedMix}) {
    SCOPED_TRACE(WorkloadName(w));
    const cloudtalk::Topology topo = MakeTopology(w);
    QueryStream stream(w, &topo, 3, 0);
    for (int i = 0; i < 50; ++i) {
      const GeneratedQuery q = stream.Next();
      ASSERT_TRUE(cloudtalk::lang::Parse(q.text).ok()) << q.text;
      ASSERT_EQ(q.vars.size(), q.pool_of.size());
      for (const std::vector<std::string>& pool : q.pools) {
        for (const std::string& host : pool) {
          EXPECT_NE(q.text.find(host), std::string::npos);
        }
      }
    }
  }
}

TEST(TimingEstimatorTest, ExhaustiveResultsAreByteIdentical) {
  const cloudtalk::Topology topo = MakeTopology(Workload::kPacketSearch);
  const cloudtalk::TopologyDirectory directory(&topo);
  QueryStream stream(Workload::kPacketSearch, &topo, 11, 0);
  for (int i = 0; i < 6; ++i) {
    const GeneratedQuery q = stream.Next();
    const cloudtalk::Result<cloudtalk::lang::Query> parsed = cloudtalk::lang::Parse(q.text);
    ASSERT_TRUE(parsed.ok());
    const cloudtalk::Result<cloudtalk::lang::CompiledQuery> compiled =
        cloudtalk::lang::CompiledQuery::Compile(parsed.value());
    ASSERT_TRUE(compiled.ok());
    const cloudtalk::StatusByAddress status;
    for (int threads : {1, 2}) {
      cloudtalk::ExhaustiveParams params;
      params.threads = threads;
      params.optimize = true;
      cloudtalk::PacketLevelEstimator bare(&topo, &directory);
      cloudtalk::PacketLevelEstimator inner(&topo, &directory);
      TimingEstimator timed(&inner);
      LayerTally tally;
      const cloudtalk::Result<cloudtalk::ExhaustiveResult> want =
          cloudtalk::EvaluateExhaustive(compiled.value(), status, bare, params);
      cloudtalk::Result<cloudtalk::ExhaustiveResult> got = cloudtalk::Error{"unset"};
      {
        ScopedTally scoped(&tally);
        got = cloudtalk::EvaluateExhaustive(compiled.value(), status, timed, params);
      }
      ASSERT_TRUE(want.ok());
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(std::memcmp(&want.value().estimate.makespan, &got.value().estimate.makespan,
                            sizeof(double)),
                0);
      EXPECT_EQ(want.value().winner_rank, got.value().winner_rank);
      for (const auto& [var, endpoint] : want.value().binding) {
        EXPECT_EQ(got.value().binding.at(var).name, endpoint.name);
      }
      EXPECT_EQ(want.value().counters.evaluations, got.value().counters.evaluations);
      EXPECT_EQ(tally.estimator_calls.load(), got.value().counters.evaluations);
      EXPECT_GT(tally.estimator_ns.load(), 0);
      // Brute force agrees with the engine bit for bit.
      const cloudtalk::Result<double> brute = BruteForceMakespan(q, bare);
      ASSERT_TRUE(brute.ok());
      EXPECT_EQ(std::memcmp(&brute.value(), &want.value().estimate.makespan, sizeof(double)), 0);
    }
  }
}

TEST(TimingEstimatorTest, ForwardsWithoutTimingWhenNoTally) {
  const cloudtalk::Topology topo = MakeTopology(Workload::kPacketSearch);
  const cloudtalk::TopologyDirectory directory(&topo);
  cloudtalk::PacketLevelEstimator inner(&topo, &directory);
  TimingEstimator timed(&inner);
  EXPECT_EQ(timed.BoundAvailabilityFraction(), inner.BoundAvailabilityFraction());
  EXPECT_EQ(timed.EstimatesArePermutationInvariant(), inner.EstimatesArePermutationInvariant());
  EXPECT_NE(timed.CloneForThread(), nullptr);
}

}  // namespace
}  // namespace perfbench
