#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {
namespace {

// 1-based nearest rank of the q-percentile among n samples.
size_t NearestRank(size_t n, double q) {
  const double exact = q * static_cast<double>(n);
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

size_t SamplesBeyond(size_t n, double q) { return n == 0 ? 0 : n - NearestRank(n, q); }

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0;
  }
  const size_t index = NearestRank(samples.size(), q) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

std::optional<double> Percentile(std::vector<double> samples, double q) {
  if (samples.empty() || SamplesBeyond(samples.size(), q) < kMinTailSamples) {
    return std::nullopt;
  }
  return Quantile(std::move(samples), q);
}

}  // namespace perfbench
