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

/// \brief Fraction of `values` that are <= x (empirical CDF).
double EmpiricalCdf(const std::vector<double>& values, double x);

/// \brief Rank of `x` within `sorted` as a percentile in [0,1].
double PercentileRankSorted(const std::vector<double>& sorted, double x);

/// \brief Streaming quantile estimator (P-squared algorithm, Jain & Chlamtac
/// 1985): estimates one fixed quantile with O(1) memory.
///
/// Used on the public board so the collector's reference quantiles can be
/// maintained over an unbounded stream without retaining all observations.
class P2Quantile {
 public:
  /// Creates an estimator for quantile `q` in (0, 1).
  explicit P2Quantile(double q);

  /// \brief Absorbs one observation.
  void Add(double x);

  /// \brief Current estimate; exact until 5 samples are seen.
  /// Returns 0 when empty.
  double Estimate() const;

  /// \brief Number of samples absorbed.
  size_t count() const { return count_; }

 private:
  void AdjustMarkers();
  double Parabolic(int i, double d) const;
  double Linear(int i, double d) const;

  double q_;
  size_t count_ = 0;
  // Marker heights, positions, and desired positions (P² state).
  double heights_[5] = {0, 0, 0, 0, 0};
  double positions_[5] = {1, 2, 3, 4, 5};
  double desired_[5] = {1, 1, 1, 1, 1};
  double increments_[5] = {0, 0, 0, 0, 0};
  std::vector<double> initial_;
};

}  // namespace itrim

#endif  // ITRIM_STATS_QUANTILE_H_
