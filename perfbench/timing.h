// Benchmark-side tracing: timing decorators for the two layers the server
// reaches through an interface (status probing and completion estimation),
// and a per-query tally they write into.
//
// The decorators sit between the server and the real implementation, so the
// server code is untouched. They only time and count while the calling
// thread has a tally installed (ScopedTally); otherwise they forward
// without reading the clock, which is how the traced run measures its own
// overhead against untraced answers on the same server.
#ifndef PERFBENCH_TIMING_H_
#define PERFBENCH_TIMING_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/estimator.h"
#include "src/status/transport.h"

namespace perfbench {

// What one Answer() did inside the decorated layers. Atomic because the
// exhaustive engine may hand estimator clones to pool threads.
struct LayerTally {
  std::atomic<int64_t> probe_calls{0};
  std::atomic<int64_t> probe_targets{0};
  std::atomic<int64_t> probe_replies{0};
  std::atomic<int64_t> probe_ns{0};
  std::atomic<int64_t> estimator_calls{0};
  std::atomic<int64_t> estimator_ns{0};
};

// Installs `tally` as the calling thread's current tally for its lifetime.
class ScopedTally {
 public:
  explicit ScopedTally(LayerTally* tally);
  ~ScopedTally();
  ScopedTally(const ScopedTally&) = delete;
  ScopedTally& operator=(const ScopedTally&) = delete;

 private:
  LayerTally* previous_;
};

// Times every Probe() of the wrapped transport.
class TimingTransport : public cloudtalk::ProbeTransport {
 public:
  explicit TimingTransport(cloudtalk::ProbeTransport* inner) : inner_(inner) {}

  cloudtalk::ProbeOutcome Probe(const std::vector<cloudtalk::NodeId>& targets,
                                cloudtalk::Seconds timeout) override;

 private:
  cloudtalk::ProbeTransport* inner_;
};

// Times every EstimateQuery() of the wrapped estimator and forwards every
// other virtual unchanged, so the search behaves exactly as with the bare
// estimator (the benchmark's tests hold it to byte-identical results).
class TimingEstimator : public cloudtalk::CompletionEstimator {
 public:
  explicit TimingEstimator(cloudtalk::CompletionEstimator* inner) : inner_(inner) {}

  cloudtalk::Result<cloudtalk::Estimate> EstimateQuery(
      const cloudtalk::lang::CompiledQuery& query, const cloudtalk::Binding& binding,
      const cloudtalk::StatusByAddress& status) override;
  void BeginQuery(const cloudtalk::lang::CompiledQuery& query,
                  const cloudtalk::StatusByAddress& status) override {
    inner_->BeginQuery(query, status);
  }
  void EndQuery() override { inner_->EndQuery(); }
  std::unique_ptr<cloudtalk::CompletionEstimator> CloneForThread() const override;
  bool EstimatesArePermutationInvariant() const override {
    return inner_->EstimatesArePermutationInvariant();
  }
  void BeginHintedWalk(const std::vector<std::string>& vars_in_walk_order) override {
    inner_->BeginHintedWalk(vars_in_walk_order);
  }
  void HintChangedSuffix(size_t first_changed_depth) override {
    inner_->HintChangedSuffix(first_changed_depth);
  }
  cloudtalk::SolverStats TakeSolverStats() override { return inner_->TakeSolverStats(); }
  double BoundAvailabilityFraction() const override {
    return inner_->BoundAvailabilityFraction();
  }

 private:
  // A clone owns its inner clone and writes to the tally that was current
  // when it was made (the clone runs on a pool thread without one).
  TimingEstimator(std::unique_ptr<cloudtalk::CompletionEstimator> owned, LayerTally* tally)
      : inner_(owned.get()), owned_(std::move(owned)), clone_tally_(tally) {}

  cloudtalk::CompletionEstimator* inner_;
  std::unique_ptr<cloudtalk::CompletionEstimator> owned_;
  LayerTally* clone_tally_ = nullptr;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_H_
