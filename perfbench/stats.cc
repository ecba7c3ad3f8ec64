#include "perfbench/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace crowdrl::perfbench {
namespace {

constexpr double kTailPercentiles[] = {50.0, 75.0, 90.0, 95.0,
                                       99.0, 99.9, 99.99};
constexpr size_t kMinBeyond = 10;

double SortedQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double h = static_cast<double>(sorted.size() - 1) * q;
  const size_t lo = static_cast<size_t>(std::floor(h));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (h - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return SortedQuantile(values, q);
}

TailSummary SummarizeTail(const std::vector<double>& values) {
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  TailSummary summary;
  summary.count = sorted.size();
  summary.median = SortedQuantile(sorted, 0.5);
  for (double p : kTailPercentiles) {
    const double value = SortedQuantile(sorted, p / 100.0);
    const size_t beyond = static_cast<size_t>(
        sorted.end() - std::upper_bound(sorted.begin(), sorted.end(), value));
    if (beyond < kMinBeyond) break;
    summary.tail_percentile = p;
    summary.tail = value;
    summary.beyond_tail = beyond;
  }
  return summary;
}

std::string TailSummary::ToString() const {
  char buf[160];
  if (tail_percentile == 0.0) {
    std::snprintf(buf, sizeof(buf), "n=%zu p50=%.4g (no tail: <%zu beyond)",
                  count, median, kMinBeyond);
  } else {
    std::snprintf(buf, sizeof(buf), "n=%zu p50=%.4g p%g=%.4g (%zu beyond)",
                  count, median, tail_percentile, tail, beyond_tail);
  }
  return buf;
}

}  // namespace crowdrl::perfbench
