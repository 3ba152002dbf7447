// Differential checks: one query, two configurations, byte-identical reply.
//
// Contracts D500-D505 (DESIGN.md) all have that shape, and so do the
// single-shot identity checks of ctopt, ctbound, `ctcanon --exec` and
// `ctscope --exec`. This file holds the pieces they share, once each: the
// digests that define "byte-identical", the synthetic status snapshot, the
// twin cluster both sides of a cluster-level check run on, and the driver
// that runs one check over a seed range and reports its divergences.
#ifndef CLOUDTALK_SRC_HARNESS_DIFFERENTIAL_H_
#define CLOUDTALK_SRC_HARNESS_DIFFERENTIAL_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/core/exhaustive.h"
#include "src/core/server.h"
#include "src/harness/cluster.h"
#include "src/lang/canon.h"

namespace cloudtalk {

// Maps a variable name before it is rendered; empty means identity.
using VariableRename = std::function<std::string(const std::string&)>;

// Canonical variable names back to the original ones through the
// certificate of `canon` (which must outlive the result). Names the
// certificate does not know pass through unchanged.
VariableRename CanonicalToOriginal(const lang::CanonicalQuery& canon);

// "var=endpoint ..." sorted by variable, so equal bindings render equally in
// whatever order their unordered map iterates.
std::string RenderBinding(const Binding& binding, const VariableRename& rename = {});

// Everything a result shows a client, rendered bit-faithfully: the error
// message, or the sorted binding, the sorted per-variable scores (replies
// only), and makespan plus aggregate throughput printed with %.17g, which
// round-trips every double and tells -0.0 from 0.0. Search counters, probe
// stats and traces are left out: they differ between the two sides of every
// check by design.
std::string ResultDigest(const Result<ExhaustiveResult>& result,
                         const VariableRename& rename = {});
std::string ReplyDigest(const Result<QueryReply>& reply, const VariableRename& rename = {});

// Compares two exhaustive searches through their digests, with `rename`
// applied to side b. Both failing counts as agreement: the error text may
// name a variable side b renamed, or come from a pass that rejected the
// query earlier. Returns "" on agreement, else the two labelled digests.
std::string DiffResults(const char* label_a, const Result<ExhaustiveResult>& a,
                        const char* label_b, const Result<ExhaustiveResult>& b,
                        const VariableRename& rename = {});

// A status report for every address `compiled` can touch, node ids 1, 2, ...
// in pool-then-flow order, each with a 1 Gbps NIC and a 4 Gbps disk. With a
// null `load` every host is idle (the snapshot ctopt and ctbound report
// against); otherwise NIC and disk use are drawn from `load`, and half the
// hosts also report 8 cores and 16 GB with random use, so requirement
// pruning has something to prune.
StatusByAddress SynthesizeStatus(const lang::CompiledQuery& compiled, Rng* load);

// Hosts 10.0.0.1 .. 10.0.0.16 of every twin cluster.
inline constexpr int kTwinClusterHosts = 16;

// One side of a cluster-level check: a single switch over
// kTwinClusterHosts hosts with 1 Gbps NICs and 4 Gbps disks, one evaluation
// thread, status sweep started. Two calls with the same arguments build
// clusters that answer identically, so any difference between the two sides
// of a check comes from the configuration under test.
Cluster MakeTwinCluster(uint64_t seed, bool scope_probe_pruning, Seconds reservation_hold);

// One row of ctcheck's differential table.
struct DiffCheck {
  const char* name;   // Flag --diff-<name>; artifacts diff<name>_<seed>.ct.
  const char* code;   // The contract it enforces, e.g. "D500".
  const char* label;  // What a divergence is, e.g. "optimisation divergence".
  // Runs one seed: "" on agreement, else the divergence detail, with
  // *query_text set to the query (or queries) that reproduce it.
  std::string (*run)(uint64_t seed, std::string* query_text);
};

// Runs `check` over seeds seed_base .. seed_base + seeds - 1. Each divergent
// seed is reported on stderr and saved to <out_dir>/diff<name>_<seed>.ct
// under a "# ctcheck --diff-<name> divergence" header; a one-line summary
// (JSON with `json`) goes to stdout. Returns 0 when every seed agrees, 1 on
// any divergence, 2 when `seeds` is not positive.
int RunDiffSeeds(const DiffCheck& check, int seeds, uint64_t seed_base,
                 const std::string& out_dir, bool json);

}  // namespace cloudtalk

#endif  // CLOUDTALK_SRC_HARNESS_DIFFERENTIAL_H_
