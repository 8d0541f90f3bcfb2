#include "ml/linreg.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>
#include <utility>

#include "game/kernels.h"
#include "obs/metrics.h"

namespace itrim {

namespace {

constexpr double kPivotEpsilon = 1e-12;

/// Mean squared residual of the model over all rows, written per-row into
/// `r2` (resized). Predictions go through LaneDot, so the residual stream
/// is bit-identical to the batched kernel path for the same model.
double SquaredResiduals(const RegressionData& data, const LinearModel& model,
                        std::vector<double>* r2) {
  const size_t n = data.size();
  r2->resize(n);
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double pred = kernels::LaneDot(model.weights.data(),
                                         data.xs.data() + i * data.dims,
                                         data.dims) +
                        model.bias;
    const double r = data.ys[i] - pred;
    (*r2)[i] = r * r;
    sum += r * r;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

// Normal equations of the augmented design [x, 1]: one sequential pass over
// the rows `row_at(0..n)`, each entry its own running sum in row order (no
// kernels, no reassociation — the fit is the same bits on every thread
// count and kernel variant). `normal` and `rhs` arrive zeroed; only the
// upper triangle (i <= j) is filled.
template <typename RowAt>
void AccumulateNormal(size_t n, size_t dims, RowAt row_at, double* normal,
                      double* rhs) {
  const size_t aug = dims + 1;
  for (size_t r = 0; r < n; ++r) {
    const auto [x, y] = row_at(r);
    for (size_t i = 0; i < aug; ++i) {
      const double xi = i < dims ? x[i] : 1.0;
      for (size_t j = i; j < aug; ++j) {
        const double xj = j < dims ? x[j] : 1.0;
        normal[i * aug + j] += xi * xj;
      }
      rhs[i] += xi * y;
    }
  }
}

// Rounds up to this size take the insertion sort, larger ones the radix
// sort, whose fixed cost (eight 256-entry histograms and their prefix sums)
// dominates small rounds. Measured per sort on refit-like keys (|N(0, 1)|
// residuals, x86-64 Xeon): insertion 0.8 vs radix 2.2 us at 32 rows, 2.1 vs
// 3.0 us at 64, 3.6 vs 4.0 us at 96, 6.4 vs 5.0 us at 128. The benchmark's
// rounds (30 and 500 rows) fall on either side.
constexpr size_t kInsertionSortMax = 64;
constexpr uint64_t kInfBits = 0x7ff0000000000000ULL;

// A key's ordered bit pattern: the sign bit cleared (so -0.0 ties +0.0),
// and every NaN pattern — all above +inf's — clamped onto +inf's.
uint64_t OrderedBits(double key) {
  return std::min(std::bit_cast<uint64_t>(key) & ~(uint64_t{1} << 63),
                  kInfBits);
}

Status CheckRegressionData(const RegressionData& data) {
  if (data.dims == 0) {
    return Status::InvalidArgument("regression data needs dims >= 1");
  }
  if (data.xs.size() != data.ys.size() * data.dims) {
    return Status::InvalidArgument(
        "regression data shape mismatch: xs must hold size() * dims doubles");
  }
  if (data.size() == 0) {
    return Status::InvalidArgument("regression data is empty");
  }
  return Status::OK();
}

}  // namespace

double LinearModel::Predict(std::span<const double> x) const {
  return kernels::LaneDot(weights.data(), x.data(), weights.size()) + bias;
}

Status LinearRegressor::FitClosedForm(std::span<const double> xs,
                                      std::span<const double> ys, size_t dims,
                                      LinearModel* out) {
  if (dims == 0) return Status::InvalidArgument("FitClosedForm: dims == 0");
  const size_t n = ys.size();
  if (n == 0) return Status::InvalidArgument("FitClosedForm: no rows");
  if (xs.size() != n * dims) {
    return Status::InvalidArgument(
        "FitClosedForm: xs must hold ys.size() * dims doubles");
  }

  const size_t aug = dims + 1;
  normal_.assign(aug * aug, 0.0);
  rhs_.assign(aug, 0.0);
  AccumulateNormal(
      n, dims,
      [&](size_t r) {
        return std::pair<const double*, double>(xs.data() + r * dims, ys[r]);
      },
      normal_.data(), rhs_.data());
  return Solve(dims, out);
}

Status LinearRegressor::FitClosedFormRows(std::span<const double> rows,
                                          size_t width,
                                          std::span<const size_t> selected,
                                          LinearModel* out) {
  if (width < 2) {
    return Status::InvalidArgument("FitClosedFormRows: width must be >= 2");
  }
  if (rows.size() % width != 0) {
    return Status::InvalidArgument(
        "FitClosedFormRows: rows must hold whole rows of width doubles");
  }
  const size_t n = selected.size();
  if (n == 0) return Status::InvalidArgument("FitClosedFormRows: no rows");
  const size_t row_count = rows.size() / width;
  for (size_t idx : selected) {
    if (idx >= row_count) {
      return Status::InvalidArgument(
          "FitClosedFormRows: selected row index out of range");
    }
  }
  const size_t dims = width - 1;
  const size_t aug = dims + 1;
  normal_.assign(aug * aug, 0.0);
  rhs_.assign(aug, 0.0);
  AccumulateNormal(
      n, dims,
      [&](size_t r) {
        const double* row = rows.data() + selected[r] * width;
        return std::pair<const double*, double>(row, row[dims]);
      },
      normal_.data(), rhs_.data());
  return Solve(dims, out);
}

Status LinearRegressor::FitClosedForm(std::span<const double> xs,
                                      std::span<const double> ys, size_t dims,
                                      std::span<const size_t> selected,
                                      LinearModel* out) {
  if (dims == 0) return Status::InvalidArgument("FitClosedForm: dims == 0");
  if (xs.size() != ys.size() * dims) {
    return Status::InvalidArgument(
        "FitClosedForm: xs must hold ys.size() * dims doubles");
  }
  const size_t n = selected.size();
  if (n == 0) return Status::InvalidArgument("FitClosedForm: no rows");
  for (size_t idx : selected) {
    if (idx >= ys.size()) {
      return Status::InvalidArgument(
          "FitClosedForm: selected row index out of range");
    }
  }
  const size_t aug = dims + 1;
  normal_.assign(aug * aug, 0.0);
  rhs_.assign(aug, 0.0);
  AccumulateNormal(
      n, dims,
      [&](size_t r) {
        const size_t idx = selected[r];
        return std::pair<const double*, double>(xs.data() + idx * dims,
                                                ys[idx]);
      },
      normal_.data(), rhs_.data());
  return Solve(dims, out);
}

size_t LinearRegressor::HeapBytes() const {
  return (normal_.capacity() + rhs_.capacity() + gradient_.capacity()) *
             sizeof(double) +
         perm_.capacity() * sizeof(size_t);
}

Status LinearRegressor::Solve(size_t dims, LinearModel* out) {
  const size_t aug = dims + 1;
  // Mirror the upper triangle (the accumulation filled i <= j).
  for (size_t i = 0; i < aug; ++i) {
    for (size_t j = 0; j < i; ++j) normal_[i * aug + j] = normal_[j * aug + i];
  }

  // Gaussian elimination with partial pivoting, sequential and in place.
  for (size_t col = 0; col < aug; ++col) {
    size_t pivot = col;
    double best = std::fabs(normal_[col * aug + col]);
    for (size_t row = col + 1; row < aug; ++row) {
      const double mag = std::fabs(normal_[row * aug + col]);
      if (mag > best) {
        best = mag;
        pivot = row;
      }
    }
    if (!(best > kPivotEpsilon)) {
      return Status::FailedPrecondition(
          "FitClosedForm: singular normal equations (need more than dims "
          "independent rows)");
    }
    if (pivot != col) {
      for (size_t j = 0; j < aug; ++j) {
        std::swap(normal_[col * aug + j], normal_[pivot * aug + j]);
      }
      std::swap(rhs_[col], rhs_[pivot]);
    }
    const double inv = 1.0 / normal_[col * aug + col];
    for (size_t row = col + 1; row < aug; ++row) {
      const double factor = normal_[row * aug + col] * inv;
      if (factor == 0.0) continue;
      for (size_t j = col; j < aug; ++j) {
        normal_[row * aug + j] -= factor * normal_[col * aug + j];
      }
      rhs_[row] -= factor * rhs_[col];
    }
  }
  out->weights.resize(dims);
  double* solution = rhs_.data();
  for (size_t col = aug; col-- > 0;) {
    double acc = solution[col];
    for (size_t j = col + 1; j < aug; ++j) {
      acc -= normal_[col * aug + j] * solution[j];
    }
    solution[col] = acc / normal_[col * aug + col];
  }
  std::copy(solution, solution + dims, out->weights.begin());
  out->bias = solution[dims];
  return Status::OK();
}

void ResidualOrder::Release() {
  std::vector<uint64_t>().swap(bits_);
  std::vector<uint64_t>().swap(bits_alt_);
  std::vector<size_t>().swap(index_alt_);
}

size_t ResidualOrder::HeapBytes() const {
  return (bits_.capacity() + bits_alt_.capacity()) * sizeof(uint64_t) +
         index_alt_.capacity() * sizeof(size_t);
}

void ResidualOrder::Sort(std::span<const double> keys,
                         std::vector<size_t>* order) {
  // Both sorts are stable and start from index order, so equal keys keep
  // ascending indices.
  const size_t n = keys.size();
  order->resize(n);
  size_t* index = order->data();
  std::iota(index, index + n, size_t{0});
  bits_.resize(n);
  uint64_t* bits = bits_.data();
  for (size_t k = 0; k < n; ++k) bits[k] = OrderedBits(keys[k]);

  if (n <= kInsertionSortMax) {
    for (size_t k = 1; k < n; ++k) {
      const uint64_t b = bits[k];
      const size_t i = index[k];
      size_t m = k;
      for (; m > 0 && bits[m - 1] > b; --m) {
        bits[m] = bits[m - 1];
        index[m] = index[m - 1];
      }
      bits[m] = b;
      index[m] = i;
    }
    return;
  }

  // LSD radix sort, one byte per pass. One sweep histograms all eight
  // bytes; a byte whose bucket holds every key is the same for all of them,
  // and its pass is skipped. (32-bit counts: a round never nears 2^32 rows.)
  uint32_t counts[8][256] = {};
  for (size_t k = 0; k < n; ++k) {
    for (unsigned d = 0; d < 8; ++d) ++counts[d][(bits[k] >> (8 * d)) & 0xff];
  }
  const uint64_t first = bits[0];
  bits_alt_.resize(n);
  index_alt_.resize(n);
  uint64_t* src_bits = bits;
  size_t* src_index = index;
  uint64_t* dst_bits = bits_alt_.data();
  size_t* dst_index = index_alt_.data();
  for (unsigned d = 0; d < 8; ++d) {
    const unsigned shift = 8 * d;
    uint32_t* offsets = counts[d];
    if (offsets[(first >> shift) & 0xff] == n) continue;
    uint32_t sum = 0;
    for (unsigned digit = 0; digit < 256; ++digit) {
      const uint32_t count = offsets[digit];
      offsets[digit] = sum;
      sum += count;
    }
    for (size_t k = 0; k < n; ++k) {
      const uint32_t pos = offsets[(src_bits[k] >> shift) & 0xff]++;
      dst_bits[pos] = src_bits[k];
      dst_index[pos] = src_index[k];
    }
    std::swap(src_bits, dst_bits);
    std::swap(src_index, dst_index);
  }
  if (src_index != index) std::copy(src_index, src_index + n, index);
}

Status LinearRegressor::FitMiniBatchSgd(std::span<const double> xs,
                                        std::span<const double> ys,
                                        size_t dims, const SgdOptions& options,
                                        Rng* rng, LinearModel* out) {
  if (dims == 0) return Status::InvalidArgument("FitMiniBatchSgd: dims == 0");
  const size_t n = ys.size();
  if (n == 0) return Status::InvalidArgument("FitMiniBatchSgd: no rows");
  if (xs.size() != n * dims) {
    return Status::InvalidArgument(
        "FitMiniBatchSgd: xs must hold ys.size() * dims doubles");
  }
  if (rng == nullptr) return Status::InvalidArgument("FitMiniBatchSgd: rng");
  if (options.epochs < 0 || options.batch_size == 0 ||
      !(options.learning_rate > 0.0) || options.l2 < 0.0) {
    return Status::InvalidArgument("FitMiniBatchSgd: bad options");
  }

  out->weights.assign(dims, 0.0);
  out->bias = 0.0;
  perm_.resize(n);
  for (size_t i = 0; i < n; ++i) perm_[i] = i;
  gradient_.resize(dims + 1);

  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    rng->Shuffle(&perm_);
    for (size_t start = 0; start < n; start += options.batch_size) {
      const size_t count = std::min(options.batch_size, n - start);
      std::fill(gradient_.begin(), gradient_.end(), 0.0);
      for (size_t k = 0; k < count; ++k) {
        const double* x = xs.data() + perm_[start + k] * dims;
        const double err =
            kernels::LaneDot(out->weights.data(), x, dims) + out->bias -
            ys[perm_[start + k]];
        for (size_t j = 0; j < dims; ++j) gradient_[j] += err * x[j];
        gradient_[dims] += err;
      }
      const double scale = options.learning_rate / static_cast<double>(count);
      for (size_t j = 0; j < dims; ++j) {
        out->weights[j] -=
            scale * gradient_[j] +
            options.learning_rate * options.l2 * out->weights[j];
      }
      out->bias -= scale * gradient_[dims];
    }
  }
  return Status::OK();
}

RegressionData MakeSyntheticRegression(size_t n, size_t dims, double noise,
                                       uint64_t seed, LinearModel* truth) {
  Rng rng(seed);
  LinearModel model;
  model.weights.resize(dims);
  for (size_t j = 0; j < dims; ++j) model.weights[j] = rng.Uniform(-2.0, 2.0);
  model.bias = rng.Uniform(-1.0, 1.0);

  RegressionData data;
  data.name = "synthetic";
  data.dims = dims;
  data.xs.resize(n * dims);
  data.ys.resize(n);
  for (size_t i = 0; i < n; ++i) {
    double* row = data.xs.data() + i * dims;
    for (size_t j = 0; j < dims; ++j) row[j] = rng.Uniform(-1.0, 1.0);
    double y = model.Predict({row, dims});
    if (noise > 0.0) y += noise * rng.Normal();
    data.ys[i] = y;
  }
  if (truth != nullptr) *truth = std::move(model);
  return data;
}

size_t FlipShiftPoison(RegressionData* data, const LinearModel& reference,
                       double eps, double shift, Rng* rng) {
  const size_t clean = data->size();
  if (clean == 0 || !(eps > 0.0)) return 0;
  const size_t poison =
      static_cast<size_t>(std::floor(eps * static_cast<double>(clean)));
  const size_t dims = data->dims;
  data->xs.reserve((clean + poison) * dims);
  data->ys.reserve(clean + poison);
  for (size_t p = 0; p < poison; ++p) {
    const size_t idx = static_cast<size_t>(rng->UniformInt(clean));
    const double sign = rng->Bernoulli(0.5) ? 1.0 : -1.0;
    const double* row = data->xs.data() + idx * dims;
    const double yhat = reference.Predict({row, dims});
    const double resid = std::fabs(data->ys[idx] - yhat);
    // Append the copy only after reading through `row` (the reserve above
    // guarantees no reallocation, but keep the ordering defensive anyway).
    const double poisoned_y = yhat + sign * (resid + shift);
    data->xs.insert(data->xs.end(), row, row + dims);
    data->ys.push_back(poisoned_y);
  }
  return poison;
}

Result<TrimResult> TrimDefense(const RegressionData& data,
                               const TrimOptions& options, Rng* rng) {
  ITRIM_RETURN_NOT_OK(CheckRegressionData(data));
  if (!(options.eps_hat >= 0.0) || options.eps_hat >= 1.0) {
    return Status::InvalidArgument("TrimDefense: eps_hat must be in [0, 1)");
  }
  if (!(options.tol >= 0.0)) {
    return Status::InvalidArgument("TrimDefense: tol must be >= 0");
  }
  if (options.max_iters < 1) {
    return Status::InvalidArgument("TrimDefense: max_iters must be >= 1");
  }
  if (rng == nullptr) return Status::InvalidArgument("TrimDefense: rng");

  const size_t n = data.size();
  const size_t keep_n = static_cast<size_t>(
      std::floor(static_cast<double>(n) / (1.0 + options.eps_hat)));
  if (keep_n == 0) {
    return Status::InvalidArgument("TrimDefense: keep budget is zero");
  }

  TrimResult result;
  LinearRegressor regressor;
  std::vector<double> r2;

  // Initial fit on a random keep_n-subset (the eps_hat = 0 case samples a
  // permutation of everything — drawn anyway so the RNG stream shape does
  // not depend on the contamination estimate).
  result.kept = rng->SampleWithoutReplacement(n, keep_n);
  std::sort(result.kept.begin(), result.kept.end());
  ITRIM_RETURN_NOT_OK(regressor.FitClosedForm(data.xs, data.ys, data.dims,
                                              result.kept, &result.model));
  result.full_mse = SquaredResiduals(data, result.model, &r2);

  if (options.eps_hat == 0.0) {
    // Pure no-op: every row survives, no refit loop (keep_n == n).
    result.kept_mse = result.full_mse;
    result.iterations = 0;
    return result;
  }

  ResidualOrder orderer;
  std::vector<size_t> order;
  std::vector<double> new_r2;
  for (int iter = 0; iter < options.max_iters; ++iter) {
    orderer.Sort(r2, &order);
    result.kept.assign(order.begin(),
                       order.begin() + static_cast<std::ptrdiff_t>(keep_n));
    std::sort(result.kept.begin(), result.kept.end());
    ITRIM_RETURN_NOT_OK(regressor.FitClosedForm(data.xs, data.ys, data.dims,
                                                result.kept, &result.model));

    const double new_full = SquaredResiduals(data, result.model, &new_r2);
    double delta = 0.0;
    for (size_t i = 0; i < n; ++i) delta += std::fabs(r2[i] - new_r2[i]);
    delta /= static_cast<double>(n);
    std::swap(r2, new_r2);
    result.full_mse = new_full;
    result.iterations = iter + 1;
    if (delta < options.tol) break;
  }

  double kept_sum = 0.0;
  for (size_t idx : result.kept) kept_sum += r2[idx];
  result.kept_mse = kept_sum / static_cast<double>(result.kept.size());
  return result;
}

Result<ITrimResult> ITrimDefense(const RegressionData& data,
                                 const ITrimOptions& options, Rng* rng,
                                 obs::MetricSlot* metrics) {
  ITRIM_RETURN_NOT_OK(CheckRegressionData(data));
  if (!(options.eps_step > 0.0) || !(options.eps_max >= options.eps_step) ||
      options.eps_max >= 1.0) {
    return Status::InvalidArgument(
        "ITrimDefense: need 0 < eps_step <= eps_max < 1");
  }
  if (!(options.knee_ratio >= 1.0)) {
    return Status::InvalidArgument("ITrimDefense: knee_ratio must be >= 1");
  }

  ITrimResult result;
  const int steps =
      static_cast<int>(std::floor(options.eps_max / options.eps_step + 1e-9));
  std::vector<TrimResult> runs;
  runs.reserve(static_cast<size_t>(steps) + 1);
  for (int i = 0; i <= steps; ++i) {
    const double eps = static_cast<double>(i) * options.eps_step;
    TrimOptions trim_options;
    trim_options.eps_hat = eps;
    trim_options.tol = options.tol;
    trim_options.max_iters = options.max_iters;
    ITRIM_ASSIGN_OR_RETURN(TrimResult run,
                           TrimDefense(data, trim_options, rng));
    result.grid.push_back(eps);
    result.kept_mse.push_back(run.kept_mse);
    runs.push_back(std::move(run));
  }

  // The knick: the largest consecutive kept-MSE drop. Below the true
  // contamination the keep budget must include poison rows (pigeonhole), so
  // kept MSE sits at poison scale; at the first grid point whose budget
  // fits inside the clean subset it falls to noise scale.
  const double inf = std::numeric_limits<double>::infinity();
  double best_ratio = 0.0;
  size_t best_index = 0;
  for (size_t i = 1; i < result.kept_mse.size(); ++i) {
    const double prev = result.kept_mse[i - 1];
    const double cur = result.kept_mse[i];
    const double ratio = cur > 0.0 ? prev / cur : (prev > 0.0 ? inf : 1.0);
    if (ratio > best_ratio) {
      best_ratio = ratio;
      best_index = i;
    }
  }
  if (best_ratio < options.knee_ratio) best_index = 0;  // no knick: clean
  result.eps_hat = result.grid[best_index];
  result.trim = std::move(runs[best_index]);
  if (metrics != nullptr) {
    metrics->Set(obs::Gauge::kMlEpsHat, result.eps_hat);
  }
  return result;
}

}  // namespace itrim
