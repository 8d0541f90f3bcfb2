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

double EmpiricalCdf(const std::vector<double>& values, double x) {
  if (values.empty()) return 0.0;
  size_t count = 0;
  for (double v : values) {
    if (v <= x) ++count;
  }
  return static_cast<double>(count) / static_cast<double>(values.size());
}

double PercentileRankSorted(const std::vector<double>& sorted, double x) {
  if (sorted.empty()) return 0.0;
  auto it = std::upper_bound(sorted.begin(), sorted.end(), x);
  return static_cast<double>(it - sorted.begin()) /
         static_cast<double>(sorted.size());
}

P2Quantile::P2Quantile(double q) : q_(Clamp(q, 1e-6, 1.0 - 1e-6)) {
  increments_[0] = 0.0;
  increments_[1] = q_ / 2.0;
  increments_[2] = q_;
  increments_[3] = (1.0 + q_) / 2.0;
  increments_[4] = 1.0;
}

void P2Quantile::Add(double x) {
  ++count_;
  if (count_ <= 5) {
    initial_.push_back(x);
    if (count_ == 5) {
      std::sort(initial_.begin(), initial_.end());
      for (int i = 0; i < 5; ++i) heights_[i] = initial_[i];
      desired_[0] = 1;
      desired_[1] = 1 + 2 * q_;
      desired_[2] = 1 + 4 * q_;
      desired_[3] = 3 + 2 * q_;
      desired_[4] = 5;
    }
    return;
  }

  int k;
  if (x < heights_[0]) {
    heights_[0] = x;
    k = 0;
  } else if (x >= heights_[4]) {
    heights_[4] = x;
    k = 3;
  } else {
    k = 0;
    for (int i = 1; i < 5; ++i) {
      if (x < heights_[i]) {
        k = i - 1;
        break;
      }
    }
  }
  for (int i = k + 1; i < 5; ++i) positions_[i] += 1.0;
  for (int i = 0; i < 5; ++i) desired_[i] += increments_[i];
  AdjustMarkers();
}

void P2Quantile::AdjustMarkers() {
  for (int i = 1; i <= 3; ++i) {
    double d = desired_[i] - positions_[i];
    bool up = d >= 1.0 && positions_[i + 1] - positions_[i] > 1.0;
    bool down = d <= -1.0 && positions_[i - 1] - positions_[i] < -1.0;
    if (up || down) {
      double step = up ? 1.0 : -1.0;
      double candidate = Parabolic(i, step);
      if (heights_[i - 1] < candidate && candidate < heights_[i + 1]) {
        heights_[i] = candidate;
      } else {
        heights_[i] = Linear(i, step);
      }
      positions_[i] += step;
    }
  }
}

double P2Quantile::Parabolic(int i, double d) const {
  double np1 = positions_[i + 1], nm1 = positions_[i - 1], n = positions_[i];
  return heights_[i] +
         d / (np1 - nm1) *
             ((n - nm1 + d) * (heights_[i + 1] - heights_[i]) / (np1 - n) +
              (np1 - n - d) * (heights_[i] - heights_[i - 1]) / (n - nm1));
}

double P2Quantile::Linear(int i, double d) const {
  int j = i + static_cast<int>(d);
  return heights_[i] + d * (heights_[j] - heights_[i]) /
                           (positions_[j] - positions_[i]);
}

double P2Quantile::Estimate() const {
  if (count_ == 0) return 0.0;
  if (count_ < 5) {
    std::vector<double> v(initial_);
    std::sort(v.begin(), v.end());
    return QuantileSorted(v, q_);
  }
  return heights_[2];
}

}  // namespace itrim
