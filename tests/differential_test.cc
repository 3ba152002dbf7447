// Tests for the shared differential-check pieces (src/harness/differential.h):
// the result and reply digests every D500-D505 check compares through, the
// synthetic status snapshot, the twin cluster, and the seed driver's
// artifact and summary format.
#include "src/harness/differential.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/lang/parser.h"

namespace cloudtalk {
namespace {

QueryReply MakeReply(const std::vector<std::string>& vars) {
  QueryReply reply;
  for (const std::string& var : vars) {
    reply.binding.emplace(var, lang::Endpoint::Address("10.0.0." + var.substr(1)));
    reply.scores.emplace_back(var, 0.25 * static_cast<double>(var.size()));
  }
  reply.estimate.makespan = 1.5;
  reply.estimate.aggregate_throughput = 8e8;
  return reply;
}

std::vector<std::string> Vars(int n) {
  std::vector<std::string> vars;
  for (int i = 1; i <= n; ++i) {
    vars.push_back("v" + std::to_string(i));
  }
  return vars;
}

TEST(DifferentialDigestTest, EqualBindingsInOppositeOrderDigestEqually) {
  std::vector<std::string> forward = Vars(24);
  std::vector<std::string> backward(forward.rbegin(), forward.rend());
  const QueryReply a = MakeReply(forward);
  const QueryReply b = MakeReply(backward);
  EXPECT_EQ(ReplyDigest(a), ReplyDigest(b));

  ExhaustiveResult ra;
  ra.binding = a.binding;
  ra.estimate = a.estimate;
  ExhaustiveResult rb;
  rb.binding = b.binding;
  rb.estimate = b.estimate;
  EXPECT_EQ(ResultDigest(ra), ResultDigest(rb));
  EXPECT_EQ(RenderBinding(a.binding), RenderBinding(b.binding));
}

TEST(DifferentialDigestTest, DigestRendersSortedBindingScoresAndEstimate) {
  EXPECT_EQ(ReplyDigest(MakeReply({"v2", "v1"})),
            "binding [v1=10.0.0.1 v2=10.0.0.2] scores [v1=0.5 v2=0.5] "
            "makespan 1.5 throughput 800000000");
  EXPECT_EQ(ReplyDigest(Result<QueryReply>(Error{"no legal binding"})),
            "error: no legal binding");
}

TEST(DifferentialDigestTest, LastUlpSignedZeroAndThroughputChangeTheDigest) {
  const QueryReply base = MakeReply(Vars(2));
  QueryReply ulp = base;
  ulp.estimate.makespan = std::nextafter(base.estimate.makespan, 2.0);
  EXPECT_NE(ReplyDigest(base), ReplyDigest(ulp));

  QueryReply zero = base;
  zero.estimate.makespan = 0.0;
  QueryReply negative_zero = base;
  negative_zero.estimate.makespan = -0.0;
  EXPECT_NE(ReplyDigest(zero), ReplyDigest(negative_zero));

  QueryReply throughput = base;
  throughput.estimate.aggregate_throughput = 7e8;
  EXPECT_NE(ReplyDigest(base), ReplyDigest(throughput));

  ExhaustiveResult a;
  a.estimate = base.estimate;
  for (const Estimate& changed : {ulp.estimate, throughput.estimate}) {
    ExhaustiveResult b = a;
    b.estimate = changed;
    EXPECT_NE(ResultDigest(a), ResultDigest(b));
  }
  ExhaustiveResult pos = a;
  pos.estimate.makespan = 0.0;
  ExhaustiveResult neg = a;
  neg.estimate.makespan = -0.0;
  EXPECT_NE(ResultDigest(pos), ResultDigest(neg));
}

TEST(DifferentialDigestTest, RenameAppliesToBindingAndScores) {
  QueryReply canonical = MakeReply({"v1"});
  const VariableRename rename = [](const std::string& var) {
    return var == "v1" ? std::string("A") : var;
  };
  EXPECT_EQ(ReplyDigest(canonical, rename),
            "binding [A=10.0.0.1] scores [A=0.5] makespan 1.5 throughput 800000000");
}

TEST(DifferentialDigestTest, DiffResultsTreatsTwoFailuresAsAgreement) {
  const Result<ExhaustiveResult> fail_a = Error{"variable 'A' has no address candidates"};
  const Result<ExhaustiveResult> fail_b = Error{"variable 'v0' has no address candidates"};
  EXPECT_EQ(DiffResults("a", fail_a, "b", fail_b), "");

  ExhaustiveResult won;
  won.binding.emplace("A", lang::Endpoint::Address("10.0.0.1"));
  won.estimate.makespan = 2.0;
  const Result<ExhaustiveResult> ok = won;
  EXPECT_EQ(DiffResults("a", ok, "b", ok), "");
  EXPECT_EQ(DiffResults("left", ok, "right", fail_a),
            "left [binding [A=10.0.0.1] makespan 2 throughput 0] vs right [error: variable "
            "'A' has no address candidates]");
}

TEST(DifferentialDigestTest, CanonicalToOriginalMapsThroughTheCertificate) {
  const Result<lang::Query> query = lang::Parse(
      "Zed = (10.0.0.1 10.0.0.2)\n"
      "f Zed -> 10.0.0.3 size 1M\n");
  ASSERT_TRUE(query.ok());
  const Result<lang::CanonicalQuery> canon = lang::Canonicalize(query.value());
  ASSERT_TRUE(canon.ok());
  ASSERT_FALSE(canon.value().variable_map.empty());
  const VariableRename rename = CanonicalToOriginal(canon.value());
  EXPECT_EQ(rename(canon.value().variable_map.front().second), "Zed");
  EXPECT_EQ(rename("not_a_variable"), "not_a_variable");
}

TEST(SynthesizeStatusTest, NullLoadIsTheIdleSnapshotInPoolThenFlowOrder) {
  const Result<lang::Query> query = lang::Parse(
      "A = (10.0.0.3 10.0.0.1)\n"
      "B = (10.0.0.1 10.0.0.2)\n"
      "f1 10.0.0.9 -> A size 1M\n"
      "f2 A -> B size 1M\n");
  ASSERT_TRUE(query.ok());
  const Result<lang::CompiledQuery> compiled = lang::CompiledQuery::Compile(query.value());
  ASSERT_TRUE(compiled.ok());
  const StatusByAddress status = SynthesizeStatus(compiled.value(), nullptr);
  ASSERT_EQ(status.size(), 4u);
  const std::vector<std::string> order = {"10.0.0.3", "10.0.0.1", "10.0.0.2", "10.0.0.9"};
  for (size_t i = 0; i < order.size(); ++i) {
    const StatusReport& r = status.at(order[i]);
    EXPECT_EQ(r.host, static_cast<NodeId>(i + 1)) << order[i];
    EXPECT_EQ(r.nic_tx_cap, 1e9);
    EXPECT_EQ(r.nic_rx_cap, 1e9);
    EXPECT_EQ(r.disk_read_cap, 4e9);
    EXPECT_EQ(r.disk_write_cap, 4e9);
    EXPECT_EQ(r.nic_tx_use, 0);
    EXPECT_EQ(r.nic_rx_use, 0);
    EXPECT_EQ(r.disk_read_use, 0);
    EXPECT_EQ(r.disk_write_use, 0);
    EXPECT_EQ(r.cpu_cores_total, 0);
    EXPECT_EQ(r.mem_total, 0);
  }
}

TEST(SynthesizeStatusTest, LoadedSnapshotIsDeterministicPerStream) {
  const Result<lang::Query> query = lang::Parse("A = (10.0.0.1 10.0.0.2 10.0.0.3)\n"
                                                "f1 A -> 10.0.0.4 size 1M\n");
  ASSERT_TRUE(query.ok());
  const Result<lang::CompiledQuery> compiled = lang::CompiledQuery::Compile(query.value());
  ASSERT_TRUE(compiled.ok());
  Rng first(7);
  Rng second(7);
  const StatusByAddress a = SynthesizeStatus(compiled.value(), &first);
  const StatusByAddress b = SynthesizeStatus(compiled.value(), &second);
  ASSERT_EQ(a.size(), 4u);
  for (const auto& [address, report] : a) {
    const StatusReport& other = b.at(address);
    EXPECT_EQ(report.nic_tx_use, other.nic_tx_use);
    EXPECT_EQ(report.disk_write_use, other.disk_write_use);
    EXPECT_EQ(report.cpu_cores_used, other.cpu_cores_used);
    EXPECT_GE(report.nic_tx_use, 0);
    EXPECT_LE(report.nic_tx_use, 9e8);
    EXPECT_EQ(report.nic_tx_cap, 1e9);
    EXPECT_EQ(report.disk_read_cap, 4e9);
  }
}

TEST(TwinClusterTest, TwinsAnswerIdentically) {
  Cluster a = MakeTwinCluster(/*seed=*/4, /*scope_probe_pruning=*/true, 0);
  Cluster b = MakeTwinCluster(/*seed=*/4, /*scope_probe_pruning=*/true, 0);
  EXPECT_EQ(a.num_hosts(), kTwinClusterHosts);
  a.AddBackgroundPair(a.host(1), a.host(2), 5e8);
  b.AddBackgroundPair(b.host(1), b.host(2), 5e8);
  a.MeasureNow();
  b.MeasureNow();
  const std::string query = "A = (10.0.0.2 10.0.0.3 10.0.0.4)\nf1 A -> 10.0.0.1 size 16M\n";
  const Result<QueryReply> ra = a.cloudtalk().Answer(query);
  ASSERT_TRUE(ra.ok()) << ra.error().ToString();
  EXPECT_EQ(ReplyDigest(ra), ReplyDigest(b.cloudtalk().Answer(query)));
}

std::string DivergeOnSeedThree(uint64_t seed, std::string* query_text) {
  *query_text = "A = (10.0.0." + std::to_string(seed) + ")\n";
  return seed == 3 ? "winner differs" : "";
}

constexpr DiffCheck kFakeCheck = {"fake", "D999", "fake divergence", DivergeOnSeedThree};

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(RunDiffSeedsTest, SavesTheDivergentSeedAndReportsIt) {
  const std::filesystem::path out = std::filesystem::path(testing::TempDir()) / "diff_seeds";
  std::filesystem::remove_all(out);
  std::filesystem::create_directories(out);

  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  const int exit_code = RunDiffSeeds(kFakeCheck, /*seeds=*/5, /*seed_base=*/1, out.string(),
                                     /*json=*/false);
  const std::string stdout_text = testing::internal::GetCapturedStdout();
  const std::string stderr_text = testing::internal::GetCapturedStderr();

  EXPECT_EQ(exit_code, 1);
  EXPECT_EQ(stdout_text, "ctcheck --diff-fake: 5 seed(s), 1 divergent\n");
  const std::filesystem::path saved = out / "difffake_3.ct";
  EXPECT_EQ(stderr_text, "seed 3: D999 fake divergence: winner differs, query saved to " +
                             saved.string() + "\n");
  EXPECT_EQ(ReadFile(saved),
            "# ctcheck --diff-fake divergence, seed 3 (D999)\n"
            "# winner differs\n"
            "A = (10.0.0.3)\n");
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(out)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1);
}

TEST(RunDiffSeedsTest, JsonSummaryCleanRangeAndNoSeeds) {
  const std::string out = testing::TempDir();
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  EXPECT_EQ(RunDiffSeeds(kFakeCheck, 2, /*seed_base=*/1, out, /*json=*/true), 0);
  EXPECT_EQ(RunDiffSeeds(kFakeCheck, 0, /*seed_base=*/1, out, /*json=*/true), 2);
  EXPECT_EQ(testing::internal::GetCapturedStdout(),
            "{\"mode\":\"diff-fake\",\"scenarios\":2,\"violating\":0}\n");
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "ctcheck: --seeds must be positive\n");
}

}  // namespace
}  // namespace cloudtalk
