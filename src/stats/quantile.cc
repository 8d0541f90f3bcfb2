#include "stats/quantile.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/math_util.h"

namespace itrim {

QuantilePoint QuantilePointOf(size_t n, double q) {
  assert(n > 0);
  q = Clamp(q, 0.0, 1.0);
  QuantilePoint point;
  if (n == 1) return point;
  // MATLAB prctile: breakpoints at (i - 0.5) / n for i = 1..n, clamped ends.
  double pos = q * static_cast<double>(n) - 0.5;
  if (pos <= 0.0) return point;
  if (pos >= static_cast<double>(n - 1)) {
    point.lo = n - 1;
    return point;
  }
  point.lo = static_cast<size_t>(pos);
  point.frac = pos - static_cast<double>(point.lo);
  point.interpolate = true;
  return point;
}

double QuantileAt(const std::vector<double>& sorted,
                  const QuantilePoint& point) {
  if (!point.interpolate) return sorted[point.lo];
  return Lerp(sorted[point.lo], sorted[point.lo + 1], point.frac);
}

double QuantileSorted(const std::vector<double>& sorted, double q) {
  assert(!sorted.empty());
  return QuantileAt(sorted, QuantilePointOf(sorted.size(), q));
}

double Quantile(std::vector<double> values, double q) {
  assert(!values.empty());
  std::sort(values.begin(), values.end());
  return QuantileSorted(values, q);
}

std::vector<double> Quantiles(std::vector<double> values,
                              const std::vector<double>& qs) {
  assert(!values.empty());
  std::sort(values.begin(), values.end());
  std::vector<double> out;
  out.reserve(qs.size());
  for (double q : qs) out.push_back(QuantileSorted(values, q));
  return out;
}

double PercentileRankSorted(const std::vector<double>& sorted, double x) {
  if (sorted.empty()) return 0.0;
  auto it = std::upper_bound(sorted.begin(), sorted.end(), x);
  return static_cast<double>(it - sorted.begin()) /
         static_cast<double>(sorted.size());
}

}  // namespace itrim
