// Differential oracle for the refit loops: the keyed ordering primitive
// (ResidualOrder), the index fits (FitClosedFormRows and the selected-rows
// FitClosedForm), FittedModelReference::TrimRound and TrimDefense are
// checked bit for bit against the straightforward versions they replaced,
// kept here as test-local oracles — a comparator std::sort over an index
// array, a generic normal-equation accumulation over gathered xs / ys, and
// the gather-then-fit refit loops.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "game/kernels.h"
#include "game/public_board.h"
#include "game/reference_policy.h"
#include "ml/linreg.h"
#include "ml/residual_score_model.h"

#include "game/summary_test_util.h"

namespace itrim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Oracle ordering: ascending key, NaN as +inf, ties by index.
std::vector<size_t> OracleOrder(std::span<const double> keys) {
  std::vector<size_t> order(keys.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const double ka = std::isnan(keys[a]) ? kInf : keys[a];
    const double kb = std::isnan(keys[b]) ? kInf : keys[b];
    if (ka != kb) return ka < kb;
    return a < b;
  });
  return order;
}

// Oracle fit: generic normal equations over the augmented design [x, 1],
// one running sum per entry in row order, then Gaussian elimination with
// partial pivoting.
Status OracleFitClosedForm(std::span<const double> xs,
                           std::span<const double> ys, size_t dims,
                           LinearModel* out) {
  const size_t n = ys.size();
  if (dims == 0 || n == 0 || xs.size() != n * dims) {
    return Status::InvalidArgument("oracle: bad shape");
  }
  const size_t aug = dims + 1;
  std::vector<double> normal(aug * aug, 0.0);
  std::vector<double> rhs(aug, 0.0);
  for (size_t r = 0; r < n; ++r) {
    const double* x = xs.data() + r * dims;
    for (size_t i = 0; i < aug; ++i) {
      const double xi = i < dims ? x[i] : 1.0;
      for (size_t j = i; j < aug; ++j) {
        const double xj = j < dims ? x[j] : 1.0;
        normal[i * aug + j] += xi * xj;
      }
      rhs[i] += xi * ys[r];
    }
  }
  for (size_t i = 0; i < aug; ++i) {
    for (size_t j = 0; j < i; ++j) normal[i * aug + j] = normal[j * aug + i];
  }
  for (size_t col = 0; col < aug; ++col) {
    size_t pivot = col;
    double best = std::fabs(normal[col * aug + col]);
    for (size_t row = col + 1; row < aug; ++row) {
      const double mag = std::fabs(normal[row * aug + col]);
      if (mag > best) {
        best = mag;
        pivot = row;
      }
    }
    if (!(best > 1e-12)) return Status::FailedPrecondition("oracle: singular");
    if (pivot != col) {
      for (size_t j = 0; j < aug; ++j) {
        std::swap(normal[col * aug + j], normal[pivot * aug + j]);
      }
      std::swap(rhs[col], rhs[pivot]);
    }
    const double inv = 1.0 / normal[col * aug + col];
    for (size_t row = col + 1; row < aug; ++row) {
      const double factor = normal[row * aug + col] * inv;
      if (factor == 0.0) continue;
      for (size_t j = col; j < aug; ++j) {
        normal[row * aug + j] -= factor * normal[col * aug + j];
      }
      rhs[row] -= factor * rhs[col];
    }
  }
  out->weights.resize(dims);
  for (size_t col = aug; col-- > 0;) {
    double acc = rhs[col];
    for (size_t j = col + 1; j < aug; ++j) {
      acc -= normal[col * aug + j] * rhs[j];
    }
    rhs[col] = acc / normal[col * aug + col];
  }
  std::copy(rhs.begin(), rhs.begin() + static_cast<std::ptrdiff_t>(dims),
            out->weights.begin());
  out->bias = rhs[dims];
  return Status::OK();
}

// Gathers the `selected` rows of an interleaved [x..., y] block into flat
// xs / ys and fits them with the oracle.
Status OracleFitRows(std::span<const double> rows, size_t width,
                     std::span<const size_t> selected, LinearModel* out) {
  const size_t dims = width - 1;
  std::vector<double> xs;
  std::vector<double> ys;
  for (size_t idx : selected) {
    const double* row = rows.data() + idx * width;
    xs.insert(xs.end(), row, row + dims);
    ys.push_back(row[dims]);
  }
  return OracleFitClosedForm(xs, ys, dims, out);
}

// Gathers the `selected` rows of flat regression data and fits them with
// the oracle.
Status OracleFitSelected(const RegressionData& data,
                         std::span<const size_t> selected, LinearModel* out) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (size_t idx : selected) {
    const double* row = data.xs.data() + idx * data.dims;
    xs.insert(xs.end(), row, row + data.dims);
    ys.push_back(data.ys[idx]);
  }
  return OracleFitClosedForm(xs, ys, data.dims, out);
}

// Per-row squared residuals of `model` into `r2`; returns their mean.
double OracleSquaredResiduals(const RegressionData& data,
                              const LinearModel& model,
                              std::vector<double>* r2) {
  const size_t n = data.size();
  r2->assign(n, 0.0);
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double r =
        data.ys[i] -
        model.Predict({data.xs.data() + i * data.dims, data.dims});
    (*r2)[i] = r * r;
    sum += r * r;
  }
  return sum / static_cast<double>(n);
}

// Oracle TrimDefense: the refit loop as first written — comparator sort,
// gather, generic fit — drawing the same initial subset from `rng`.
Status OracleTrimDefense(const RegressionData& data,
                         const TrimOptions& options, Rng* rng,
                         TrimResult* result) {
  const size_t n = data.size();
  const size_t keep_n = static_cast<size_t>(
      std::floor(static_cast<double>(n) / (1.0 + options.eps_hat)));
  result->kept = rng->SampleWithoutReplacement(n, keep_n);
  std::sort(result->kept.begin(), result->kept.end());
  ITRIM_RETURN_NOT_OK(OracleFitSelected(data, result->kept, &result->model));
  std::vector<double> r2;
  result->full_mse = OracleSquaredResiduals(data, result->model, &r2);
  if (options.eps_hat == 0.0) {
    result->kept_mse = result->full_mse;
    result->iterations = 0;
    return Status::OK();
  }
  std::vector<double> new_r2;
  for (int iter = 0; iter < options.max_iters; ++iter) {
    const std::vector<size_t> order = OracleOrder(r2);
    result->kept.assign(order.begin(),
                        order.begin() + static_cast<std::ptrdiff_t>(keep_n));
    std::sort(result->kept.begin(), result->kept.end());
    ITRIM_RETURN_NOT_OK(
        OracleFitSelected(data, result->kept, &result->model));
    const double new_full =
        OracleSquaredResiduals(data, result->model, &new_r2);
    double delta = 0.0;
    for (size_t i = 0; i < n; ++i) delta += std::fabs(r2[i] - new_r2[i]);
    delta /= static_cast<double>(n);
    std::swap(r2, new_r2);
    result->full_mse = new_full;
    result->iterations = iter + 1;
    if (delta < options.tol) break;
  }
  double kept_sum = 0.0;
  for (size_t idx : result->kept) kept_sum += r2[idx];
  result->kept_mse = kept_sum / static_cast<double>(result->kept.size());
  return Status::OK();
}

struct OracleTrim {
  StatusCode code = StatusCode::kOk;
  std::vector<char> keep;
  size_t kept_count = 0;
  double cutoff = 0.0;
  int iterations = 0;
};

// Oracle TrimRound: the refit loop as first written — comparator sort,
// gather, generic fit — over the model's current round.
OracleTrim OracleTrimRound(double percentile, const ScoreModel& model,
                           const FittedModelReference::Options& options) {
  OracleTrim result;
  const std::span<const double> obs = model.observations();
  const size_t width = model.ObsWidth();
  const size_t n = model.scores().size();
  const size_t dims = width - 1;
  size_t keep_n = percentile > 0.0 ? static_cast<size_t>(std::floor(
                                         percentile * static_cast<double>(n)))
                                   : 0;
  keep_n = std::max(keep_n, std::min(n, dims + 1));
  if (keep_n >= n) {
    result.keep.assign(n, 1);
    result.kept_count = n;
    result.cutoff = kInf;
    return result;
  }
  std::vector<size_t> all(n);
  std::iota(all.begin(), all.end(), size_t{0});
  LinearModel fit;
  Status status = OracleFitRows(obs, width, all, &fit);
  if (!status.ok()) {
    result.code = status.code();
    return result;
  }
  std::vector<double> resid(n);
  std::vector<double> prev(n);
  kernels::AbsResidualsToModel(obs.data(), n, width, fit.weights.data(),
                               fit.bias, resid.data());
  std::vector<size_t> order;
  double cutoff = kInf;
  for (int iter = 0; iter < options.max_refits; ++iter) {
    ++result.iterations;
    order = OracleOrder(resid);
    cutoff = resid[order[keep_n - 1]];
    status = OracleFitRows(
        obs, width, std::span<const size_t>(order.data(), keep_n), &fit);
    if (!status.ok()) {
      result.code = status.code();
      return result;
    }
    std::swap(prev, resid);
    kernels::AbsResidualsToModel(obs.data(), n, width, fit.weights.data(),
                                 fit.bias, resid.data());
    double delta = 0.0;
    for (size_t i = 0; i < n; ++i) {
      delta += std::fabs(prev[i] * prev[i] - resid[i] * resid[i]);
    }
    if (delta / static_cast<double>(n) < options.tol) break;
  }
  result.keep.assign(n, 0);
  for (size_t k = 0; k < keep_n; ++k) result.keep[order[k]] = 1;
  result.kept_count = keep_n;
  result.cutoff = cutoff;
  return result;
}

// Keys mixing a few distinct magnitudes (many duplicates), zeros of both
// signs, +inf, NaN, neighbours a few hundred ulps apart (they differ only in
// the lowest bytes) and continuous values.
std::vector<double> MixedKeys(size_t n, Rng* rng) {
  const double pool[] = {0.0, -0.0, 0.5, 1.0, 1e-300, kInf, kNaN, 3.25};
  std::vector<double> keys(n);
  for (double& k : keys) {
    const double u = rng->Uniform();
    if (u < 0.3) {
      k = pool[rng->UniformInt(std::size(pool))];
    } else if (u < 0.45) {
      k = std::bit_cast<double>(std::bit_cast<uint64_t>(0.5) +
                                rng->UniformInt(300));
    } else if (u < 0.7) {
      k = std::fabs(rng->Normal());
    } else {
      k = std::fabs(rng->Normal()) * std::pow(10.0, rng->Uniform(-8.0, 8.0));
    }
  }
  return keys;
}

TEST(RefitOracleTest, ResidualOrderMatchesComparatorSort) {
  Rng rng(41);
  ResidualOrder orderer;
  // 64 rows is the last insertion-sorted size, 65 the first radix-sorted.
  for (size_t n : {0, 1, 2, 63, 64, 65, 100, 500, 5000}) {
    for (int trial = 0; trial < 4; ++trial) {
      SCOPED_TRACE("n=" + std::to_string(n) + " trial=" +
                   std::to_string(trial));
      std::vector<double> keys = MixedKeys(n, &rng);
      if (trial == 3) std::fill(keys.begin(), keys.end(), 0.75);  // all tie
      const std::vector<size_t> expected = OracleOrder(keys);

      // Whatever `order` held before — nothing, a shuffle, or the sorted
      // output itself — is overwritten.
      std::vector<size_t> empty;
      orderer.Sort(keys, &empty);
      EXPECT_EQ(empty, expected);
      std::vector<size_t> shuffled(n);
      std::iota(shuffled.begin(), shuffled.end(), size_t{0});
      rng.Shuffle(&shuffled);
      orderer.Sort(keys, &shuffled);
      EXPECT_EQ(shuffled, expected);
      orderer.Sort(keys, &shuffled);
      EXPECT_EQ(shuffled, expected);
    }
  }
}

// Both closed-form entry points must reproduce gather + the oracle fit
// exactly, for every dims.
TEST(RefitOracleTest, FitClosedFormRowsMatchesGatherThenFit) {
  Rng rng(43);
  LinearRegressor regressor;
  for (size_t dims = 1; dims <= 9; ++dims) {
    const size_t width = dims + 1;
    for (size_t rows_n : {dims + 1, 2 * dims + 3, size_t{57}, size_t{500}}) {
      SCOPED_TRACE("dims=" + std::to_string(dims) +
                   " rows=" + std::to_string(rows_n));
      std::vector<double> rows(rows_n * width);
      for (double& v : rows) v = rng.Normal() * rng.Uniform(0.1, 10.0);
      // A random selection in random order, repeats allowed.
      std::vector<size_t> selected(rows_n);
      for (size_t& s : selected) s = rng.UniformInt(rows_n);

      LinearModel expected;
      const Status oracle = OracleFitRows(rows, width, selected, &expected);
      LinearModel got;
      const Status status =
          regressor.FitClosedFormRows(rows, width, selected, &got);
      ASSERT_EQ(status.code(), oracle.code());
      if (!status.ok()) continue;
      ASSERT_EQ(got.weights.size(), dims);
      for (size_t j = 0; j < dims; ++j) {
        EXPECT_TRUE(BitEqual(got.weights[j], expected.weights[j])) << j;
      }
      EXPECT_TRUE(BitEqual(got.bias, expected.bias));

      std::vector<double> xs;
      std::vector<double> ys;
      for (size_t idx : selected) {
        xs.insert(xs.end(), rows.begin() + static_cast<std::ptrdiff_t>(
                                               idx * width),
                  rows.begin() + static_cast<std::ptrdiff_t>(idx * width +
                                                             dims));
        ys.push_back(rows[idx * width + dims]);
      }
      LinearModel flat;
      ASSERT_TRUE(regressor.FitClosedForm(xs, ys, dims, &flat).ok());
      for (size_t j = 0; j < dims; ++j) {
        EXPECT_TRUE(BitEqual(flat.weights[j], expected.weights[j])) << j;
      }
      EXPECT_TRUE(BitEqual(flat.bias, expected.bias));

      // The selected-rows overload over the same block split into flat
      // xs / ys.
      std::vector<double> all_xs;
      std::vector<double> all_ys;
      for (size_t r = 0; r < rows_n; ++r) {
        all_xs.insert(all_xs.end(),
                      rows.begin() + static_cast<std::ptrdiff_t>(r * width),
                      rows.begin() +
                          static_cast<std::ptrdiff_t>(r * width + dims));
        all_ys.push_back(rows[r * width + dims]);
      }
      LinearModel by_index;
      ASSERT_TRUE(
          regressor.FitClosedForm(all_xs, all_ys, dims, selected, &by_index)
              .ok());
      for (size_t j = 0; j < dims; ++j) {
        EXPECT_TRUE(BitEqual(by_index.weights[j], expected.weights[j])) << j;
      }
      EXPECT_TRUE(BitEqual(by_index.bias, expected.bias));
    }
  }
}

TEST(RefitOracleTest, IndexFitsRejectBadShapes) {
  LinearRegressor regressor;
  LinearModel out;
  const std::vector<double> rows = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  const std::vector<size_t> ok_rows = {0, 1, 2};
  const std::vector<size_t> out_of_range = {0, 3};
  EXPECT_EQ(regressor.FitClosedFormRows(rows, 1, ok_rows, &out).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(regressor.FitClosedFormRows(rows, 4, ok_rows, &out).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(regressor.FitClosedFormRows(rows, 2, {}, &out).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(regressor.FitClosedFormRows(rows, 2, out_of_range, &out).code(),
            StatusCode::kInvalidArgument);
  // One distinct row cannot pin a slope and an intercept.
  const std::vector<size_t> repeated = {1, 1, 1};
  EXPECT_EQ(regressor.FitClosedFormRows(rows, 2, repeated, &out).code(),
            StatusCode::kFailedPrecondition);

  // The selected-rows FitClosedForm over flat xs / ys.
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  const std::vector<double> ys = {4.0, 5.0, 6.0};
  EXPECT_EQ(regressor.FitClosedForm(xs, ys, 0, ok_rows, &out).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(regressor.FitClosedForm(xs, ys, 2, ok_rows, &out).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(regressor.FitClosedForm(xs, ys, 1, {}, &out).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(regressor.FitClosedForm(xs, ys, 1, out_of_range, &out).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(regressor.FitClosedForm(xs, ys, 1, repeated, &out).code(),
            StatusCode::kFailedPrecondition);
}

// TrimRound against the oracle loop over random rounds: both round-size
// regimes of the ordering, several dims, poison, and NaN rows (NaN
// responses make a fit's residuals all NaN; NaN features make the normal
// equations singular — both must agree with the oracle, status included).
TEST(RefitOracleTest, TrimRoundMatchesGatherThenFitLoop) {
  Rng rng(47);
  for (size_t dims : {1, 3, 6}) {
    RegressionData source =
        MakeSyntheticRegression(800, dims, 0.05, 50 + dims);
    ResidualScoreModel model(&source);
    PublicBoard board;
    ASSERT_TRUE(model.BeginRun().ok());
    ASSERT_TRUE(model.Bootstrap(200, &rng, &board).ok());
    const size_t width = dims + 1;
    FittedModelReference::Options options;
    options.max_refits = 8;
    options.tol = 1e-9;
    FittedModelReference reference(options);
    TrimOutcome outcome;
    for (int round = 0; round < 24; ++round) {
      const size_t n = 8 + rng.UniformInt(round % 2 == 0 ? 90 : 600);
      const int nan_mode = round % 4;  // 0: none, 1: y, 2: x, 3: both
      SCOPED_TRACE("dims=" + std::to_string(dims) +
                   " round=" + std::to_string(round) +
                   " n=" + std::to_string(n));
      model.BeginRound(n);
      size_t poison = n / 8;
      size_t nan_rows = nan_mode == 0 ? 0 : 1 + n / 40;
      model.AppendBenignBatch(n - poison - nan_rows, &rng);
      for (size_t p = 0; p < poison; ++p) {
        ASSERT_TRUE(model.AppendPoison(rng.Uniform(0.5, 1.5), &rng, board)
                        .ok());
      }
      std::vector<double> nan_block(nan_rows * width);
      for (size_t r = 0; r < nan_rows; ++r) {
        for (size_t j = 0; j < width; ++j) {
          nan_block[r * width + j] = rng.Uniform(-1.0, 1.0);
        }
        if (nan_mode & 1) nan_block[r * width + dims] = kNaN;
        if (nan_mode & 2) nan_block[r * width] = kNaN;
      }
      ASSERT_TRUE(model.AppendBenignBatch(nan_block).ok());

      const double percentile = rng.Uniform(0.5, 0.98);
      const OracleTrim expected = OracleTrimRound(percentile, model, options);
      const Status status =
          reference.TrimRound(percentile, &model, board, &outcome);
      ASSERT_EQ(status.code(), expected.code);
      EXPECT_EQ(reference.last_refit_iterations(), expected.iterations);
      if (!status.ok()) continue;
      EXPECT_EQ(outcome.keep, expected.keep);
      EXPECT_EQ(outcome.kept_count, expected.kept_count);
      EXPECT_EQ(outcome.removed_count, n - expected.kept_count);
      EXPECT_TRUE(BitEqual(outcome.cutoff, expected.cutoff));
    }
  }
}

// TrimDefense against the oracle loop: clean and poisoned sets, the
// eps_hat = 0 no-op, one-shot and iterated refits, a tolerance that never
// stops early, and a set too small to fit (the status must agree).
TEST(RefitOracleTest, TrimDefenseMatchesGatherThenFitLoop) {
  struct Case {
    size_t n;
    size_t dims;
    double eps;  // planted contamination (0 = clean)
    double eps_hat;
    int max_iters;
    double tol;
  };
  const Case cases[] = {
      {200, 1, 0.0, 0.0, 20, 1e-4},   {200, 1, 0.1, 0.1, 20, 1e-4},
      {300, 3, 0.2, 0.2, 1, 1e-4},    {300, 3, 0.2, 0.1, 20, 0.0},
      {500, 6, 0.12, 0.14, 20, 1e-4}, {64, 9, 0.1, 0.24, 5, 0.0},
      {1000, 2, 0.16, 0.16, 8, 1e-9}, {5, 6, 0.0, 0.2, 20, 1e-4},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("n=" + std::to_string(c.n) + " dims=" +
                 std::to_string(c.dims) + " eps_hat=" +
                 std::to_string(c.eps_hat) + " max_iters=" +
                 std::to_string(c.max_iters));
    LinearModel truth;
    RegressionData data =
        MakeSyntheticRegression(c.n, c.dims, 0.1, 60 + c.n + c.dims, &truth);
    Rng poison_rng(c.n);
    FlipShiftPoison(&data, truth, c.eps, 3.0, &poison_rng);
    TrimOptions options;
    options.eps_hat = c.eps_hat;
    options.max_iters = c.max_iters;
    options.tol = c.tol;

    Rng oracle_rng(7);
    TrimResult expected;
    const Status oracle =
        OracleTrimDefense(data, options, &oracle_rng, &expected);
    Rng rng(7);
    Result<TrimResult> got = TrimDefense(data, options, &rng);
    ASSERT_EQ(got.status().code(), oracle.code());
    if (!got.ok()) continue;
    const TrimResult& result = got.ValueOrDie();
    EXPECT_EQ(result.kept, expected.kept);
    EXPECT_EQ(result.iterations, expected.iterations);
    ASSERT_EQ(result.model.weights.size(), c.dims);
    for (size_t j = 0; j < c.dims; ++j) {
      EXPECT_TRUE(BitEqual(result.model.weights[j], expected.model.weights[j]))
          << j;
    }
    EXPECT_TRUE(BitEqual(result.model.bias, expected.model.bias));
    EXPECT_TRUE(BitEqual(result.full_mse, expected.full_mse));
    EXPECT_TRUE(BitEqual(result.kept_mse, expected.kept_mse));
  }
}

}  // namespace
}  // namespace itrim
