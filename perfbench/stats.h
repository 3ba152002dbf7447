// Exact sample statistics for the served-path benchmark.
//
// Latencies are reported as exact order statistics of the benchmark's own
// samples (nearest rank), never interpolated and never read off histogram
// bucket edges. A percentile is only reportable when at least
// kMinTailSamples samples lie strictly beyond it: a p99 needs >= 1000
// samples, so the reported tail is made of real observations.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

inline constexpr size_t kMinTailSamples = 10;

// Nearest-rank percentile: the smallest sample with at least q * n samples
// at or below it (q in (0, 1]). Returns nullopt for an empty sample or when
// fewer than kMinTailSamples samples lie beyond the chosen rank. `samples`
// is taken by value and partially sorted.
std::optional<double> Percentile(std::vector<double> samples, double q);

// Same rank rule without the tail requirement; for medians of small sets
// (e.g. repeated set-up times) and per-layer summaries. 0 when empty.
double Quantile(std::vector<double> samples, double q);

// Number of samples strictly beyond the nearest-rank q-percentile of n.
size_t SamplesBeyond(size_t n, double q);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
