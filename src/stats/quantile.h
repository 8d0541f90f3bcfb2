// Exact quantile/percentile computation with linear interpolation.
//
// Percentile semantics follow MATLAB's `prctile` (the paper's toolchain):
// for a sorted sample x_1..x_n the q-quantile interpolates between the points
// (i - 0.5)/n, so percentile positions map stably onto data values. All
// injection and trimming positions in the paper are expressed as data
// percentiles (Section VI-A), which makes this module the numeric foundation
// of the whole defense.
#ifndef ITRIM_STATS_QUANTILE_H_
#define ITRIM_STATS_QUANTILE_H_

#include <cstddef>
#include <vector>

#include "common/status.h"

namespace itrim {

/// \brief q-quantile (q in [0,1]) of `sorted` (ascending), MATLAB prctile
/// interpolation. Requires a non-empty, sorted input.
double QuantileSorted(const std::vector<double>& sorted, double q);

/// \brief Where QuantileSorted reads for a given (sample size, q): it
/// depends on n and q only, so callers evaluating one q over many sorted
/// columns of the same length compute it once.
struct QuantilePoint {
  size_t lo = 0;
  double frac = 0.0;
  bool interpolate = false;  ///< false: the value is sorted[lo] exactly
};

/// \brief The read point of QuantileSorted(sorted, q) for sorted.size() ==
/// n (n >= 1).
QuantilePoint QuantilePointOf(size_t n, double q);

/// \brief Evaluates a read point: bit-identical to QuantileSorted(sorted,
/// q) when `point` is QuantilePointOf(sorted.size(), q).
double QuantileAt(const std::vector<double>& sorted, const QuantilePoint& point);

/// \brief q-quantile of an unsorted sample (copies + sorts internally).
double Quantile(std::vector<double> values, double q);

/// \brief Multiple quantiles of one sample with a single sort.
std::vector<double> Quantiles(std::vector<double> values,
                              const std::vector<double>& qs);

/// \brief Rank of `x` within `sorted` as a percentile in [0,1].
double PercentileRankSorted(const std::vector<double>& sorted, double x);

}  // namespace itrim

#endif  // ITRIM_STATS_QUANTILE_H_
