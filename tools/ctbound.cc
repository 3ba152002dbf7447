// ctbound: sound makespan-bound report and branch-and-bound verification.
//
// Runs the src/lang/bound analysis over a query and a synthetic all-idle
// status snapshot and reports the sound completion-time interval [LB, UB]
// per chain group and for the whole query — the intervals ctlint's
// E080/W080/W081 rules, the server's admission fast path, and the
// exhaustive engine's O500 branch-and-bound pruning are built on. Unless
// told otherwise it then *executes* the search twice — O500 off and on —
// and verifies the byte-identity contract: same result digest
// (src/harness/differential.h) and a winner makespan inside the query
// interval.
//
//   ctbound query.ct             bound breakdown + identity check
//   ctbound --report query.ct    bound breakdown only (no execution)
//   ctbound --json query.ct      machine-readable breakdown for CI
//   ctbound --fraction F         availability fraction (default 0.1)
//   ctbound -                    read the query from stdin
//
// Exit code: 0 = ok, 1 = identity or soundness check failed (the bound
// analysis is unsound — file a bug), 2 = unusable input or usage error.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/exhaustive.h"
#include "src/harness/differential.h"
#include "src/lang/bound.h"
#include "src/lang/diagnostics.h"
#include "src/lang/opt.h"
#include "src/lang/parser.h"
#include "tools/cli_common.h"

namespace {

using cloudtalk::ExhaustiveParams;
using cloudtalk::ExhaustiveResult;
using cloudtalk::FlowLevelEstimator;
using cloudtalk::Result;
using cloudtalk::StatusByAddress;
using cloudtalk::lang::BoundAnalysis;
using cloudtalk::lang::BoundInterval;
using cloudtalk::lang::BoundOptions;
using cloudtalk::lang::CompiledQuery;
using cloudtalk::lang::DiagnosticSink;
using cloudtalk::lang::GroupBound;
using cloudtalk::lang::Query;

struct Options {
  bool json = false;
  bool report_only = false;
  double fraction = 0.1;
  std::vector<std::string> files;
};

// Above this the unoptimised reference walk is too slow to be a check.
constexpr double kExecSpaceLimit = 1e6;

void PrintUsage(std::ostream& os) {
  os << "usage: ctbound [--report] [--json] [--fraction F] <query.ct ...|->\n"
        "\n"
        "Sound makespan bounds for CloudTalk queries: the [LB, UB] interval\n"
        "guaranteed to contain the flow-level estimator's makespan for every\n"
        "binding, per chain group and for the whole query, plus a differential\n"
        "check that O500 branch-and-bound pruning returns a byte-identical\n"
        "answer.\n"
        "\n"
        "  --report      print the bound breakdown; skip execution\n"
        "  --json        machine-readable output (one JSON object per input)\n"
        "  --fraction F  availability fraction of the modelled estimator\n"
        "                (default 0.1, FlowLevelEstimator's default)\n"
        "  -             read a query from standard input\n"
        "\n"
        "exit code: 0 = ok, 1 = identity/soundness check failed, 2 = unusable input\n";
}

std::string FormatSeconds(double seconds) {
  if (std::isinf(seconds)) {
    return "inf";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", seconds);
  return buf;
}

// JSON number or null for infinities (JSON has no inf literal).
std::string JsonSeconds(double seconds) {
  return std::isfinite(seconds) ? FormatSeconds(seconds) : std::string("null");
}

// First member flow of a group, for display.
std::string GroupFlowName(const CompiledQuery& compiled, int g) {
  const auto& indices = compiled.groups()[g].flow_indices;
  return indices.empty() ? std::string("?") : compiled.flows()[indices.front()].name;
}

int BoundOne(const std::string& source, const std::string& display_name,
             const Options& options) {
  DiagnosticSink parse_sink;
  const Query query = cloudtalk::lang::ParseWithDiagnostics(source, &parse_sink);
  std::optional<CompiledQuery> compiled;
  if (!parse_sink.has_errors()) {
    compiled = CompiledQuery::Compile(query, &parse_sink);
  }
  if (parse_sink.has_errors() || !compiled.has_value()) {
    parse_sink.SortByPosition();
    std::cerr << FormatDiagnostics(parse_sink.diagnostics(), source, display_name);
    std::cerr << display_name << ": query does not compile; nothing to bound\n";
    return 2;
  }

  const StatusByAddress status = cloudtalk::SynthesizeStatus(*compiled, /*load=*/nullptr);
  BoundOptions bound_options;
  bound_options.min_available_fraction = options.fraction;
  const BoundAnalysis bounds = BoundAnalysis::Build(*compiled, status, bound_options);
  const BoundInterval& q = bounds.query_bounds();

  if (options.json) {
    std::ostringstream os;
    os << "{\"query\":{\"lb\":" << JsonSeconds(q.lb) << ",\"ub\":" << JsonSeconds(q.ub)
       << "},\"groups\":[";
    for (size_t i = 0; i < bounds.group_bounds().size(); ++i) {
      const GroupBound& gb = bounds.group_bounds()[i];
      os << (i ? "," : "") << "{\"group\":" << gb.group << ",\"flow\":\""
         << GroupFlowName(*compiled, gb.group) << "\",\"lb\":" << JsonSeconds(gb.interval.lb)
         << ",\"ub\":" << JsonSeconds(gb.interval.ub)
         << ",\"deadline\":" << JsonSeconds(gb.deadline)
         << ",\"provably_infeasible\":" << (gb.provably_infeasible ? "true" : "false")
         << ",\"trivially_satisfied\":" << (gb.trivially_satisfied ? "true" : "false") << "}";
    }
    os << "]}";
    std::cout << os.str() << "\n";
  } else {
    std::cout << display_name << ": query bounds [" << FormatSeconds(q.lb) << "s, "
              << FormatSeconds(q.ub) << "s]\n";
    for (const GroupBound& gb : bounds.group_bounds()) {
      std::cout << "  group " << gb.group << " (flow '" << GroupFlowName(*compiled, gb.group)
                << "'): [" << FormatSeconds(gb.interval.lb) << "s, "
                << FormatSeconds(gb.interval.ub) << "s]";
      if (std::isfinite(gb.deadline)) {
        std::cout << " deadline " << FormatSeconds(gb.deadline) << "s";
        if (gb.provably_infeasible) {
          std::cout << " PROVABLY INFEASIBLE";
        } else if (gb.trivially_satisfied) {
          std::cout << " trivially satisfied";
        }
      }
      std::cout << "\n";
    }
  }

  if (options.report_only || options.json) {
    return 0;
  }

  // Differential execution: O100-O400 only vs. all passes including O500,
  // both against the same idle snapshot and a FlowLevelEstimator built with
  // the requested fraction (so the engine's rebuilt analysis matches the
  // reported one).
  cloudtalk::lang::OptimizeParams opt_params;
  opt_params.distinct = !query.options.allow_same_binding;
  opt_params.bound_fraction = options.fraction;
  opt_params.passes = cloudtalk::lang::kOptAllPasses & ~cloudtalk::lang::kOptBoundPruning;
  const cloudtalk::lang::PrunedSpace plan_off = Optimize(*compiled, status, opt_params);
  opt_params.passes = cloudtalk::lang::kOptAllPasses;
  const cloudtalk::lang::PrunedSpace plan_on = Optimize(*compiled, status, opt_params);
  if (plan_off.space_before > kExecSpaceLimit) {
    std::cout << display_name << ": identity check skipped (space too large)\n";
    return 0;
  }

  FlowLevelEstimator estimator(options.fraction);
  ExhaustiveParams params;
  params.distinct_bindings = true;
  params.threads = 1;
  params.optimize = true;
  params.plan = &plan_off;
  const Result<ExhaustiveResult> off = EvaluateExhaustive(*compiled, status, estimator, params);
  params.plan = &plan_on;
  const Result<ExhaustiveResult> on = EvaluateExhaustive(*compiled, status, estimator, params);

  std::string detail = cloudtalk::DiffResults("unpruned", off, "bound-pruned", on);
  bool agree = detail.empty();
  if (agree && on.ok() && !q.Contains(on.value().estimate.makespan)) {
    agree = false;
    detail = "winner makespan " + FormatSeconds(on.value().estimate.makespan) +
             "s escapes the query interval [" + FormatSeconds(q.lb) + "s, " +
             FormatSeconds(q.ub) + "s] (invariant D502)";
  } else if (agree && on.ok()) {
    const ExhaustiveResult& a = off.value();
    const ExhaustiveResult& b = on.value();
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "winner [%s] makespan %.6g s in bounds; enumerated %lld vs %lld "
                  "(bound_prunes %lld)",
                  cloudtalk::RenderBinding(a.binding).c_str(), a.estimate.makespan,
                  static_cast<long long>(a.counters.enumerated),
                  static_cast<long long>(b.counters.enumerated),
                  static_cast<long long>(b.counters.bound_prunes));
    detail = buf;
  } else if (agree) {
    detail = "both searches report no legal binding";
  }
  std::cout << display_name << ": identity check " << (agree ? "passed" : "FAILED") << ": "
            << detail << "\n";
  return agree ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      options.json = true;
    } else if (arg == "--report") {
      options.report_only = true;
    } else if (arg == "--fraction") {
      if (i + 1 >= argc) {
        PrintUsage(std::cerr);
        return 2;
      }
      options.fraction = std::atof(argv[++i]);
      if (options.fraction < 0 || options.fraction > 1) {
        std::cerr << "ctbound: --fraction must be in [0, 1]\n";
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(std::cout);
      return 0;
    } else if (arg.size() > 1 && arg[0] == '-') {
      std::cerr << "ctbound: unknown flag '" << arg << "'\n";
      PrintUsage(std::cerr);
      return 2;
    } else {
      options.files.push_back(arg);
    }
  }
  if (options.files.empty()) {
    PrintUsage(std::cerr);
    return 2;
  }

  return cloudtalk::cli::ForEachInput(
      "ctbound", options.files, /*open_error_exit=*/2,
      [&options](const std::string& source, const std::string& display_name) {
        return BoundOne(source, display_name, options);
      });
}
