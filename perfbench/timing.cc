#include "timing.h"

#include <chrono>

namespace perfbench {
namespace {

thread_local LayerTally* tls_tally = nullptr;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ScopedTally::ScopedTally(LayerTally* tally) : previous_(tls_tally) { tls_tally = tally; }

ScopedTally::~ScopedTally() { tls_tally = previous_; }

cloudtalk::ProbeOutcome TimingTransport::Probe(const std::vector<cloudtalk::NodeId>& targets,
                                               cloudtalk::Seconds timeout) {
  LayerTally* tally = tls_tally;
  if (tally == nullptr) {
    return inner_->Probe(targets, timeout);
  }
  const int64_t start = NowNs();
  cloudtalk::ProbeOutcome outcome = inner_->Probe(targets, timeout);
  tally->probe_ns += NowNs() - start;
  tally->probe_calls += 1;
  tally->probe_targets += static_cast<int64_t>(targets.size());
  tally->probe_replies += static_cast<int64_t>(outcome.reports.size());
  return outcome;
}

cloudtalk::Result<cloudtalk::Estimate> TimingEstimator::EstimateQuery(
    const cloudtalk::lang::CompiledQuery& query, const cloudtalk::Binding& binding,
    const cloudtalk::StatusByAddress& status) {
  LayerTally* tally = clone_tally_ != nullptr ? clone_tally_ : tls_tally;
  if (tally == nullptr) {
    return inner_->EstimateQuery(query, binding, status);
  }
  const int64_t start = NowNs();
  cloudtalk::Result<cloudtalk::Estimate> estimate = inner_->EstimateQuery(query, binding, status);
  tally->estimator_ns += NowNs() - start;
  tally->estimator_calls += 1;
  return estimate;
}

std::unique_ptr<cloudtalk::CompletionEstimator> TimingEstimator::CloneForThread() const {
  std::unique_ptr<cloudtalk::CompletionEstimator> inner = inner_->CloneForThread();
  if (inner == nullptr) {
    return nullptr;
  }
  LayerTally* tally = clone_tally_ != nullptr ? clone_tally_ : tls_tally;
  return std::unique_ptr<TimingEstimator>(new TimingEstimator(std::move(inner), tally));
}

}  // namespace perfbench
