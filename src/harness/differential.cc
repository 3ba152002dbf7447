#include "src/harness/differential.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <vector>

#include "src/topology/topology.h"

namespace cloudtalk {
namespace {

std::string Exact(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string EstimateDigest(const Estimate& estimate) {
  return "makespan " + Exact(estimate.makespan) + " throughput " +
         Exact(estimate.aggregate_throughput);
}

}  // namespace

VariableRename CanonicalToOriginal(const lang::CanonicalQuery& canon) {
  return [&canon](const std::string& var) {
    const std::string* original = canon.OriginalVariable(var);
    return original != nullptr ? *original : var;
  };
}

std::string RenderBinding(const Binding& binding, const VariableRename& rename) {
  std::vector<std::string> parts;
  parts.reserve(binding.size());
  for (const auto& [var, endpoint] : binding) {
    parts.push_back((rename ? rename(var) : var) + "=" + endpoint.ToString());
  }
  std::sort(parts.begin(), parts.end());
  std::string out;
  for (const std::string& part : parts) {
    out += (out.empty() ? "" : " ") + part;
  }
  return out;
}

std::string ResultDigest(const Result<ExhaustiveResult>& result, const VariableRename& rename) {
  if (!result.ok()) {
    return "error: " + result.error().message;
  }
  return "binding [" + RenderBinding(result.value().binding, rename) + "] " +
         EstimateDigest(result.value().estimate);
}

std::string ReplyDigest(const Result<QueryReply>& reply, const VariableRename& rename) {
  if (!reply.ok()) {
    return "error: " + reply.error().message;
  }
  std::vector<std::string> scores;
  for (const auto& [var, score] : reply.value().scores) {
    scores.push_back((rename ? rename(var) : var) + "=" + Exact(score));
  }
  std::sort(scores.begin(), scores.end());
  std::string out = "binding [" + RenderBinding(reply.value().binding, rename) + "] scores [";
  for (size_t i = 0; i < scores.size(); ++i) {
    out += (i > 0 ? " " : "") + scores[i];
  }
  return out + "] " + EstimateDigest(reply.value().estimate);
}

std::string DiffResults(const char* label_a, const Result<ExhaustiveResult>& a,
                        const char* label_b, const Result<ExhaustiveResult>& b,
                        const VariableRename& rename) {
  if (!a.ok() && !b.ok()) {
    return "";
  }
  const std::string digest_a = ResultDigest(a);
  const std::string digest_b = ResultDigest(b, rename);
  if (digest_a == digest_b) {
    return "";
  }
  return std::string(label_a) + " [" + digest_a + "] vs " + label_b + " [" + digest_b + "]";
}

StatusByAddress SynthesizeStatus(const lang::CompiledQuery& compiled, Rng* load) {
  StatusByAddress status;
  NodeId next = 1;
  const auto add = [&](const lang::Endpoint& e) {
    if (e.kind != lang::Endpoint::Kind::kAddress || status.count(e.name) > 0) {
      return;
    }
    StatusReport r;
    r.host = next++;
    r.nic_tx_cap = r.nic_rx_cap = 1e9;
    r.disk_read_cap = r.disk_write_cap = 4e9;
    if (load != nullptr) {
      r.nic_tx_use = load->Uniform(0, 9e8);
      r.nic_rx_use = load->Uniform(0, 9e8);
      r.disk_read_use = load->Uniform(0, 2e9);
      r.disk_write_use = load->Uniform(0, 2e9);
      if (load->Bernoulli(0.5)) {
        r.cpu_cores_total = 8;
        r.cpu_cores_used = load->Uniform(0, 8);
        r.mem_total = static_cast<Bytes>(16.0 * kGB);
        r.mem_used = static_cast<Bytes>(load->Uniform(0, 16.0 * kGB));
      }
    }
    status[e.name] = r;
  };
  for (const lang::VarComm& var : compiled.variables()) {
    for (const lang::Endpoint& e : var.pool) {
      add(e);
    }
  }
  for (const lang::CompiledFlow& flow : compiled.flows()) {
    add(flow.src);
    add(flow.dst);
  }
  return status;
}

Cluster MakeTwinCluster(uint64_t seed, bool scope_probe_pruning, Seconds reservation_hold) {
  SingleSwitchParams params;
  params.num_hosts = kTwinClusterHosts;
  params.host_caps.nic_up = 1 * kGbps;
  params.host_caps.nic_down = 1 * kGbps;
  params.host_caps.disk_read = 4 * kGbps;
  params.host_caps.disk_write = 4 * kGbps;
  ClusterOptions options;
  options.seed = seed;
  options.server.seed = seed;
  options.server.eval_threads = 1;
  options.server.reservation_hold = reservation_hold;
  options.server.scope_probe_pruning = scope_probe_pruning;
  Cluster cluster(MakeSingleSwitch(params), options);
  cluster.StartStatusSweep();
  return cluster;
}

int RunDiffSeeds(const DiffCheck& check, int seeds, uint64_t seed_base,
                 const std::string& out_dir, bool json) {
  if (seeds <= 0) {
    std::fprintf(stderr, "ctcheck: --seeds must be positive\n");
    return 2;
  }
  int violating = 0;
  for (int i = 0; i < seeds; ++i) {
    const uint64_t seed = seed_base + static_cast<uint64_t>(i);
    std::string query_text;
    const std::string detail = check.run(seed, &query_text);
    if (detail.empty()) {
      continue;
    }
    ++violating;
    std::string saved_to =
        out_dir + "/diff" + check.name + "_" + std::to_string(seed) + ".ct";
    std::ofstream out(saved_to);
    if (out) {
      out << "# ctcheck --diff-" << check.name << " divergence, seed " << seed << " ("
          << check.code << ")\n"
          << "# " << detail << "\n"
          << query_text;
    } else {
      std::fprintf(stderr, "ctcheck: cannot write '%s'\n", saved_to.c_str());
      saved_to.clear();
    }
    std::fprintf(stderr, "seed %llu: %s %s: %s%s%s\n", static_cast<unsigned long long>(seed),
                 check.code, check.label, detail.c_str(),
                 saved_to.empty() ? "" : ", query saved to ", saved_to.c_str());
  }
  if (json) {
    std::printf("{\"mode\":\"diff-%s\",\"scenarios\":%d,\"violating\":%d}\n", check.name, seeds,
                violating);
  } else {
    std::printf("ctcheck --diff-%s: %d seed(s), %d divergent\n", check.name, seeds, violating);
  }
  return violating > 0 ? 1 : 0;
}

}  // namespace cloudtalk
