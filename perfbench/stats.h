#ifndef CROWDRL_PERFBENCH_STATS_H_
#define CROWDRL_PERFBENCH_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace crowdrl::perfbench {

/// Quantile `q` in [0, 1] of `values` by linear interpolation between the
/// closest ranks (the "type 7" estimator numpy and R use by default): with
/// h = (n - 1) q over the sorted values x, the result is
/// x[floor h] + (h - floor h) (x[floor h + 1] - x[floor h]). 0 for an empty
/// input.
double Quantile(std::vector<double> values, double q);

/// How a timing sample set is reported: its median, and the highest of
/// the standard percentiles (50, 75, 90, 95, 99, 99.9, 99.99) that still
/// has at least ten samples strictly above it, with the sample count.
/// A tail percentile with fewer samples beyond it is one or two outliers,
/// not a tail, so it is not reported.
struct TailSummary {
  size_t count = 0;
  double median = 0.0;
  /// Percentile of `tail` (e.g. 99.0); 0 when fewer than ten samples lie
  /// above even the median.
  double tail_percentile = 0.0;
  double tail = 0.0;
  /// Samples strictly above `tail`.
  size_t beyond_tail = 0;

  /// "n=5123 p50=0.412 p99=3.104 (51 beyond)", values printed as given.
  std::string ToString() const;
};

TailSummary SummarizeTail(const std::vector<double>& values);

}  // namespace crowdrl::perfbench

#endif  // CROWDRL_PERFBENCH_STATS_H_
