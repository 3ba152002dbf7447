// Served-path benchmark program: one workload, one seed, one measured window.
//
//   perfbench --workload <wide_pool|packet_search|sharded_mix> --seed N
//             --seconds S --trace <0|1>
//
// Untraced (--trace 0): closed-loop clients time every Answer() and the
// last stdout line reports the end-to-end metrics. Traced (--trace 1): the
// same loop wires the timing decorators into the server and, in alternating
// blocks of queries, re-runs the language front end's public functions on
// each query's bytes and reads the reply's trace spans and counters; the
// last line reports the per-layer metrics. Alternate blocks answer with
// tracing switched off, which gives the tracing overhead within one run.
//
// Every run checks every reply (an answer, bound inside its pools, distinct
// hosts) and, after the window, runs the seeded-subset oracles: packet
// replies against a brute-force minimum, flat vs 4-shard twin digests. A
// digest of the warm-up replies is printed so traced and untraced runs of a
// seed can be compared.
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/core/shard.h"
#include "src/lang/canon.h"
#include "src/lang/lint.h"
#include "src/lang/parser.h"
#include "src/lang/scope.h"
#include "stats.h"
#include "timing.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetupRepsBefore = 5;
constexpr int kSetupRepsAfter = 4;
constexpr int kTraceBlock = 32;         // Queries per traced / untraced block.
constexpr int kPacketOracleOneIn = 16;  // packet_search subset share.
constexpr size_t kPacketOracleCap = 64;
constexpr int kTwinScan = 96;           // Stream prefix the twin subset is drawn from.
constexpr int kTwinOneIn = 4;

int WarmupQueries(Workload workload) {
  switch (workload) {
    case Workload::kWidePool:
      return 100;
    case Workload::kPacketSearch:
      return 100;
    case Workload::kShardedMix:
      return 600;
  }
  return 0;
}

double Us(Clock::duration d) { return std::chrono::duration<double, std::micro>(d).count(); }

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// Per-layer observations from traced answers.
struct LayerSamples {
  std::vector<double> parse, lint, canon, effects, compile, scope;
  std::vector<double> traced_answer, untraced_answer;
  double frontend_sum = 0;
  double answer_sum = 0;
  double bind_sum = 0;
  int64_t traced = 0;
  int64_t lint_diagnostics = 0;
  int64_t footprint_hosts = 0;
  int64_t probe_calls = 0;
  int64_t probe_targets = 0;
  int64_t probe_replies = 0;
  std::vector<double> probe_us;
  std::map<std::string, std::vector<double>> spans;
  int64_t span_count = 0;
  int64_t exhaustive = 0;
  cloudtalk::SearchCounters counters;
  int64_t estimator_calls = 0;
  std::vector<double> estimator_us;
  std::vector<double> exhaustive_self_us;
  int64_t shard_batches = 0;
  int64_t shard_fanout = 0;

  void Merge(const LayerSamples& o) {
    for (auto [mine, theirs] :
         {std::pair{&parse, &o.parse}, {&lint, &o.lint}, {&canon, &o.canon},
          {&effects, &o.effects}, {&compile, &o.compile}, {&scope, &o.scope},
          {&traced_answer, &o.traced_answer}, {&untraced_answer, &o.untraced_answer},
          {&probe_us, &o.probe_us}, {&estimator_us, &o.estimator_us},
          {&exhaustive_self_us, &o.exhaustive_self_us}}) {
      mine->insert(mine->end(), theirs->begin(), theirs->end());
    }
    for (const auto& [name, values] : o.spans) {
      spans[name].insert(spans[name].end(), values.begin(), values.end());
    }
    frontend_sum += o.frontend_sum;
    answer_sum += o.answer_sum;
    bind_sum += o.bind_sum;
    traced += o.traced;
    lint_diagnostics += o.lint_diagnostics;
    footprint_hosts += o.footprint_hosts;
    probe_calls += o.probe_calls;
    probe_targets += o.probe_targets;
    probe_replies += o.probe_replies;
    span_count += o.span_count;
    exhaustive += o.exhaustive;
    counters.enumerated += o.counters.enumerated;
    counters.evaluations += o.counters.evaluations;
    counters.memo_hits += o.counters.memo_hits;
    counters.bindings_pruned += o.counters.bindings_pruned;
    counters.bound_prunes += o.counters.bound_prunes;
    estimator_calls += o.estimator_calls;
    shard_batches += o.shard_batches;
    shard_fanout += o.shard_fanout;
  }
};

// Times the front end's public functions on `text`, in Answer()'s order.
// `with_effects`: the flat server runs AnalyzeEffects; the sharded one does
// not, so it is timed but left out of the front-end share there.
void TimeFrontend(const std::string& text, bool with_effects, LayerSamples* out) {
  namespace lang = cloudtalk::lang;
  const Clock::time_point t0 = Clock::now();
  lang::DiagnosticSink sink;
  const lang::Query query = lang::ParseWithDiagnostics(text, &sink);
  const Clock::time_point t1 = Clock::now();
  lang::RunLint(query, &sink);
  const Clock::time_point t2 = Clock::now();
  const cloudtalk::Result<lang::CanonicalQuery> canon = lang::Canonicalize(query);
  const Clock::time_point t3 = Clock::now();
  const lang::ScopeEffects effects = lang::AnalyzeEffects(query);
  const Clock::time_point t4 = Clock::now();
  const cloudtalk::Result<lang::CompiledQuery> compiled = lang::CompiledQuery::Compile(query);
  const Clock::time_point t5 = Clock::now();
  size_t footprint = 0;
  if (compiled.ok()) {
    footprint = lang::AnalyzeScope(compiled.value()).footprint.size();
  }
  const Clock::time_point t6 = Clock::now();
  out->parse.push_back(Us(t1 - t0));
  out->lint.push_back(Us(t2 - t1));
  out->canon.push_back(Us(t3 - t2));
  out->effects.push_back(Us(t4 - t3));
  out->compile.push_back(Us(t5 - t4));
  out->scope.push_back(Us(t6 - t5));
  out->frontend_sum += Us(t6 - t0) - (with_effects ? 0 : Us(t4 - t3));
  out->lint_diagnostics += static_cast<int64_t>(sink.diagnostics().size());
  out->footprint_hosts += static_cast<int64_t>(footprint);
  (void)canon;
  (void)effects;
}

// Reads one traced reply: its spans, counters, and the decorators' tally.
void RecordTraced(const cloudtalk::Result<cloudtalk::QueryReply>& reply, const LayerTally& tally,
                  double answer_us, bool sharded, LayerSamples* out) {
  out->traced += 1;
  out->traced_answer.push_back(answer_us);
  out->answer_sum += answer_us;
  out->probe_calls += tally.probe_calls;
  out->probe_targets += tally.probe_targets;
  out->probe_replies += tally.probe_replies;
  if (tally.probe_calls > 0) {
    out->probe_us.push_back(static_cast<double>(tally.probe_ns) / 1e3);
  }
  if (sharded) {
    for (const cloudtalk::ShardRouter::Batch& batch : cloudtalk::ShardRouter::LastBatches()) {
      out->shard_batches += 1;
      out->shard_fanout += batch.fanout;
    }
  }
  if (!reply.ok()) {
    return;
  }
  const cloudtalk::QueryReply& r = reply.value();
  out->span_count += static_cast<int64_t>(r.trace.spans.size());
  std::map<std::string_view, double> by_name;
  for (const cloudtalk::obs::TraceSpan& span : r.trace.spans) {
    by_name[span.name()] += span.duration * 1e6;
  }
  for (const char* name : {"sample", "bound", "bind", "reserve", "route", "aggregate"}) {
    const auto it = by_name.find(name);
    if (it != by_name.end()) {
      out->spans[name].push_back(it->second);
    }
  }
  const auto bind = by_name.find("bind");
  const double bind_us = bind != by_name.end() ? bind->second : 0;
  out->bind_sum += bind_us;
  if (r.used_exhaustive) {
    out->exhaustive += 1;
    out->counters.enumerated += r.counters.enumerated;
    out->counters.evaluations += r.counters.evaluations;
    out->counters.memo_hits += r.counters.memo_hits;
    out->counters.bindings_pruned += r.counters.bindings_pruned;
    out->counters.bound_prunes += r.counters.bound_prunes;
    const double estimator_us = static_cast<double>(tally.estimator_ns) / 1e3;
    out->estimator_calls += tally.estimator_calls;
    out->estimator_us.push_back(estimator_us);
    out->exhaustive_self_us.push_back(bind_us - estimator_us);
  }
}

// One client's share of a run.
struct ClientRun {
  std::vector<double> latency_us;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string first_failure;
  LayerSamples layers;
  std::vector<std::pair<GeneratedQuery, double>> packet_checks;  // (query, reply makespan)
};

// kTimed: untraced run, the latency is kept. kTraced: front end re-run,
// decorators on, spans read. kOverhead: the traced run's tracing-off
// blocks, timed only for core.trace_overhead_frac.
enum class Mode { kTimed, kTraced, kOverhead };

// Answers one query, checks the reply and records it per `mode`.
cloudtalk::Result<cloudtalk::QueryReply> AnswerOne(Deployment& d, const GeneratedQuery& q,
                                                   Mode mode, bool sharded, ClientRun* run) {
  const bool traced = mode == Mode::kTraced;
  if (traced) {
    TimeFrontend(q.text, !sharded, &run->layers);
  }
  LayerTally tally;
  Clock::time_point start;
  Clock::time_point end;
  cloudtalk::Result<cloudtalk::QueryReply> reply = cloudtalk::Error{"unanswered"};
  {
    std::optional<ScopedTally> scoped;
    if (traced) {
      scoped.emplace(&tally);
    }
    start = Clock::now();
    reply = d.Answer(q.text);
    end = Clock::now();
  }
  const double us = Us(end - start);
  run->attempted += 1;
  const std::string problem = CheckBinding(q, reply);
  if (!problem.empty()) {
    run->failed += 1;
    if (run->first_failure.empty()) {
      run->first_failure = problem + "\nquery:\n" + q.text;
    }
  }
  switch (mode) {
    case Mode::kTimed:
      run->latency_us.push_back(us);
      break;
    case Mode::kTraced:
      RecordTraced(reply, tally, us, sharded, &run->layers);
      break;
    case Mode::kOverhead:
      run->layers.untraced_answer.push_back(us);
      break;
  }
  return reply;
}

struct Args {
  Workload workload = Workload::kWidePool;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      const std::optional<Workload> w = ParseWorkload(value);
      if (!w.has_value()) {
        return false;
      }
      args->workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (!(args->seconds > 0)) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return false;
      }
      args->trace = value == "1";
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

// A deployment after set-up: fleet, server, warmed-up client streams.
struct Prepared {
  std::unique_ptr<Deployment> deployment;
  std::vector<QueryStream> streams;
  uint64_t digest = kFnvOffset;
  ClientRun warmup;
};

std::unique_ptr<Prepared> Setup(const Args& args) {
  auto p = std::make_unique<Prepared>();
  const ServerKind kind = IsSharded(args.workload) ? ServerKind::kSharded : ServerKind::kFlat;
  p->deployment = std::make_unique<Deployment>(args.workload, args.seed, kind, args.trace);
  const int clients = ClientsOf(args.workload);
  for (int c = 0; c < clients; ++c) {
    p->streams.emplace_back(args.workload, &p->deployment->fleet().topology(), args.seed, c);
  }
  // Warm-up, one query at a time round-robin over the clients: the replies
  // are deterministic for a seed, so their digest is too.
  for (int i = 0; i < WarmupQueries(args.workload); ++i) {
    const GeneratedQuery q = p->streams[static_cast<size_t>(i % clients)].Next();
    const cloudtalk::Result<cloudtalk::QueryReply> reply =
        AnswerOne(*p->deployment, q, args.trace ? Mode::kTraced : Mode::kTimed,
                  IsSharded(args.workload), &p->warmup);
    p->digest = Fnv1a(Fnv1a(p->digest, ReplyDigest(reply)), "\n");
  }
  return p;
}

// Flat and 4-shard twins over identically seeded fleets answer the same
// seeded subset one query at a time; every digest must match (D505).
// Returns the number of mismatching replies; `checked` counts the subset.
int TwinCheck(const Args& args, int* checked) {
  Deployment flat(args.workload, args.seed, ServerKind::kFlat, false);
  Deployment sharded(args.workload, args.seed, ServerKind::kSharded, false);
  const int clients = ClientsOf(args.workload);
  std::vector<QueryStream> streams;
  for (int c = 0; c < clients; ++c) {
    streams.emplace_back(args.workload, &flat.fleet().topology(), args.seed, c);
  }
  int mismatches = 0;
  for (int i = 0; i < kTwinScan * clients; ++i) {
    const GeneratedQuery q = streams[static_cast<size_t>(i % clients)].Next();
    if (!InOracleSubset(args.seed ^ 0x5a5a5a5aull, static_cast<uint64_t>(i), kTwinOneIn)) {
      continue;
    }
    *checked += 1;
    const std::string want = ReplyDigest(flat.Answer(q.text));
    const std::string got = ReplyDigest(sharded.Answer(q.text));
    if (got != want) {
      ++mismatches;
      std::fprintf(stderr, "twin mismatch on query %d:\n  flat:    %s\n  sharded: %s\n", i,
                   want.c_str(), got.c_str());
    }
  }
  return mismatches;
}

std::string Num(double v) {
  if (!std::isfinite(v)) {
    v = 0;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double Mean(double total, int64_t n) { return n > 0 ? total / static_cast<double>(n) : 0; }

double TailOrZero(const std::vector<double>& samples, double q, const char* name) {
  if (samples.empty()) {
    return 0;
  }
  const std::optional<double> v = Percentile(samples, q);
  if (!v.has_value()) {
    std::fprintf(stderr, "perfbench: %s has %zu samples, too few for p%g; reporting 0\n", name,
                 samples.size(), q * 100);
    return 0;
  }
  return *v;
}

std::vector<Metric> LayerMetrics(const LayerSamples& l, int active_reservations) {
  std::vector<Metric> m = {
      {"lang.parse_us", Quantile(l.parse, 0.5), "us"},
      {"lang.lint_us", Quantile(l.lint, 0.5), "us"},
      {"lang.canon_us", Quantile(l.canon, 0.5), "us"},
      {"lang.effects_us", Quantile(l.effects, 0.5), "us"},
      {"lang.compile_us", Quantile(l.compile, 0.5), "us"},
      {"lang.scope_us", Quantile(l.scope, 0.5), "us"},
      {"lang.frontend_share", l.answer_sum > 0 ? l.frontend_sum / l.answer_sum : 0, "ratio"},
      {"lang.lint_diagnostics", Mean(static_cast<double>(l.lint_diagnostics), l.traced),
       "count"},
      {"lang.footprint_hosts", Mean(static_cast<double>(l.footprint_hosts), l.traced), "count"},
      {"status.probe_calls", Mean(static_cast<double>(l.probe_calls), l.traced), "count"},
      {"status.probe_targets", Mean(static_cast<double>(l.probe_targets), l.traced), "count"},
      {"status.probe_us", Quantile(l.probe_us, 0.5), "us"},
      {"status.reply_frac",
       l.probe_targets > 0
           ? static_cast<double>(l.probe_replies) / static_cast<double>(l.probe_targets)
           : 0,
       "ratio"},
  };
  for (const char* span : {"sample", "bound", "bind", "reserve", "route", "aggregate"}) {
    const auto it = l.spans.find(span);
    const std::vector<double> none;
    const std::vector<double>& samples = it != l.spans.end() ? it->second : none;
    const std::string base = std::string("core.") + span + "_us";
    m.push_back({base + ".p50", Quantile(samples, 0.5), "us"});
    m.push_back({base + ".p99", TailOrZero(samples, 0.99, span), "us"});
  }
  const double scored = static_cast<double>(l.counters.evaluations + l.counters.memo_hits);
  m.insert(
      m.end(),
      {
          {"core.bind_share", l.answer_sum > 0 ? l.bind_sum / l.answer_sum : 0, "ratio"},
          {"core.exhaustive.enumerated",
           Mean(static_cast<double>(l.counters.enumerated), l.exhaustive), "count"},
          {"core.exhaustive.evaluations",
           Mean(static_cast<double>(l.counters.evaluations), l.exhaustive), "count"},
          {"core.exhaustive.memo_hit_frac",
           scored > 0 ? static_cast<double>(l.counters.memo_hits) / scored : 0, "ratio"},
          {"core.exhaustive.bindings_pruned",
           Mean(static_cast<double>(l.counters.bindings_pruned), l.exhaustive), "count"},
          {"core.exhaustive.bound_prunes",
           Mean(static_cast<double>(l.counters.bound_prunes), l.exhaustive), "count"},
          {"core.estimator.calls", Mean(static_cast<double>(l.estimator_calls), l.exhaustive),
           "count"},
          {"core.estimator_us", Quantile(l.estimator_us, 0.5), "us"},
          {"core.exhaustive.self_us", Quantile(l.exhaustive_self_us, 0.5), "us"},
          {"core.shard.batches", Mean(static_cast<double>(l.shard_batches), l.traced), "count"},
          {"core.shard.fanout",
           Mean(static_cast<double>(l.shard_fanout), l.shard_batches), "count"},
          {"core.reservations.active", static_cast<double>(active_reservations), "count"},
          {"obs.spans_per_answer", Mean(static_cast<double>(l.span_count), l.traced), "count"},
      });
  const double untraced = Quantile(l.untraced_answer, 0.5);
  m.push_back({"core.trace_overhead_frac",
               untraced > 0 ? Quantile(l.traced_answer, 0.5) / untraced - 1 : 0, "ratio"});
  return m;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <wide_pool|packet_search|sharded_mix> "
                 "--seed N --seconds S --trace <0|1>\n");
    return 2;
  }
  const char* name = WorkloadName(args.workload);
  const bool sharded = IsSharded(args.workload);
  const int clients = ClientsOf(args.workload);

  // Set-up, repeated: the last of the first kSetupRepsBefore is measured.
  // The rest run after the window, so the reported median samples the
  // machine's speed over the whole run, not over the first second or two.
  std::vector<double> setup_s;
  std::optional<uint64_t> digest;
  bool digests_agree = true;
  auto timed_setup = [&] {
    const Clock::time_point start = Clock::now();
    std::unique_ptr<Prepared> p = Setup(args);
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - start).count());
    digests_agree = digests_agree && digest.value_or(p->digest) == p->digest;
    digest = p->digest;
    return p;
  };
  std::unique_ptr<Prepared> prepared;
  for (int rep = 0; rep < kSetupRepsBefore; ++rep) {
    prepared.reset();
    prepared = timed_setup();
  }
  std::printf("digest %s seed=%llu %016llx\n", name, static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(*digest));

  // The measured window: closed-loop clients, each on its own stream.
  Deployment& d = *prepared->deployment;
  std::vector<ClientRun> runs(static_cast<size_t>(clients));
  const double cpu_start = CpuSeconds();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  auto client = [&](int c) {
    ClientRun& run = runs[static_cast<size_t>(c)];
    QueryStream& stream = prepared->streams[static_cast<size_t>(c)];
    uint64_t index = static_cast<uint64_t>(WarmupQueries(args.workload));
    for (int64_t n = 0; Clock::now() < deadline; ++n, ++index) {
      const GeneratedQuery q = stream.Next();
      const Mode mode = !args.trace                       ? Mode::kTimed
                        : (n / kTraceBlock) % 2 == 0 ? Mode::kTraced
                                                      : Mode::kOverhead;
      const cloudtalk::Result<cloudtalk::QueryReply> reply = AnswerOne(d, q, mode, sharded, &run);
      if (args.workload == Workload::kPacketSearch && reply.ok() &&
          run.packet_checks.size() < kPacketOracleCap &&
          InOracleSubset(args.seed, index, kPacketOracleOneIn)) {
        run.packet_checks.emplace_back(q, reply.value().estimate.makespan);
      }
    }
  };
  std::vector<std::thread> threads;
  for (int c = 1; c < clients; ++c) {
    threads.emplace_back(client, c);
  }
  client(0);
  for (std::thread& t : threads) {
    t.join();
  }
  const double elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  const double cpu = CpuSeconds() - cpu_start;
  const double peak_rss_mb = PeakRssMb();
  const int active_reservations = d.ActiveReservations();

  ClientRun all = std::move(prepared->warmup);
  all.latency_us.clear();  // Warm-up answers are not in the window.
  all.layers = LayerSamples();
  const int64_t warmup_attempted = all.attempted;
  for (ClientRun& run : runs) {
    all.latency_us.insert(all.latency_us.end(), run.latency_us.begin(), run.latency_us.end());
    all.attempted += run.attempted;
    all.failed += run.failed;
    if (all.first_failure.empty()) {
      all.first_failure = run.first_failure;
    }
    all.layers.Merge(run.layers);
    all.packet_checks.insert(all.packet_checks.end(), run.packet_checks.begin(),
                             run.packet_checks.end());
  }
  const int64_t window_answers = all.attempted - warmup_attempted;
  prepared.reset();
  for (int rep = 0; rep < kSetupRepsAfter; ++rep) {
    timed_setup();
  }

  // Seeded-subset oracles, after the window so they do not perturb it.
  bool correct = digests_agree;
  if (!digests_agree) {
    std::fprintf(stderr, "perfbench: warm-up digests differ between set-ups of one seed\n");
  }
  int oracle_checks = 0;
  if (args.workload == Workload::kPacketSearch) {
    const cloudtalk::Topology topo = MakeTopology(args.workload);
    const cloudtalk::TopologyDirectory directory(&topo);
    cloudtalk::PacketLevelEstimator standalone(&topo, &directory);
    for (const auto& [q, makespan] : all.packet_checks) {
      ++oracle_checks;
      const cloudtalk::Result<double> best = BruteForceMakespan(q, standalone);
      if (!best.ok() || std::memcmp(&best.value(), &makespan, sizeof(double)) != 0) {
        ++all.failed;
        correct = false;
        std::fprintf(stderr, "packet oracle: reply makespan %.17g, brute force %s\nquery:\n%s",
                     makespan, best.ok() ? Num(best.value()).c_str() : best.error().message.c_str(),
                     q.text.c_str());
      }
    }
  } else {
    const int mismatches = TwinCheck(args, &oracle_checks);
    all.failed += mismatches;
    correct = correct && mismatches == 0;
  }
  if (!all.first_failure.empty()) {
    std::fprintf(stderr, "perfbench: first failed reply: %s\n", all.first_failure.c_str());
  }
  all.attempted += oracle_checks;
  correct = correct && all.failed == 0 && oracle_checks > 0;
  std::printf("%s: %lld answers in %.3f s window (%d client(s)), %d oracle checks, %lld failed\n",
              name, static_cast<long long>(window_answers), elapsed, clients, oracle_checks,
              static_cast<long long>(all.failed));

  std::vector<Metric> metrics;
  if (!args.trace) {
    const std::optional<double> p50 = Percentile(all.latency_us, 0.5);
    const std::optional<double> p99 = Percentile(all.latency_us, 0.99);
    if (!p50.has_value() || !p99.has_value()) {
      std::fprintf(stderr, "perfbench: %zu latency samples, too few for a p99 with %zu beyond\n",
                   all.latency_us.size(), kMinTailSamples);
      return 1;
    }
    std::printf("latency samples: %zu (p99 has %zu beyond it)\n", all.latency_us.size(),
                SamplesBeyond(all.latency_us.size(), 0.99));
    metrics = {
        {"latency_p50_us", *p50, "us"},
        {"latency_p99_us", *p99, "us"},
        {"qps", static_cast<double>(window_answers) / elapsed, "1/s"},
        {"cpu_us_per_answer", cpu * 1e6 / static_cast<double>(window_answers), "us"},
        {"setup_s", Quantile(setup_s, 0.5), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
  } else {
    std::printf("traced answers: %lld, tracing-off answers: %zu\n",
                static_cast<long long>(all.layers.traced), all.layers.untraced_answer.size());
    metrics = LayerMetrics(all.layers, active_reservations);
  }
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(all.attempted) +
                     ", \"failed\": " + std::to_string(all.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
