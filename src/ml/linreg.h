// Linear regression and the Trim / iTrim poisoning defenses.
//
// Substrate for the regression-poisoning workload: a deterministic linear
// model (closed-form normal equations plus mini-batch SGD, both driven only
// by the caller's `Rng`), the flip-and-shift training-set attack, and the
// iterative trimming defenses of the regression-poisoning literature:
//
//  * TrimDefense  — fit, keep the lowest-residual n = floor(N / (1 + eps))
//    points, refit, repeat until the mean residual change falls below `tol`
//    (one-shot Trim is the max_iters = 1 special case; eps = 0 is a
//    documented pure no-op).
//  * ITrimDefense — sweeps a grid of candidate contamination levels and
//    estimates the true one from the "knick" in kept-subset MSE: the first
//    grid point whose keep budget fits inside the clean subset drops the
//    kept MSE from poison scale to noise scale.
//
// All prediction dot products run through kernels::LaneDot (the canonical
// 4-lane association), so model evaluation here is bit-identical to the
// batched residual kernel and to the ResidualScoreModel scalar path.
#ifndef ITRIM_ML_LINREG_H_
#define ITRIM_ML_LINREG_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace itrim {

namespace obs {
class MetricSlot;
}  // namespace obs

/// \brief A fitted linear model y = w . x + b.
struct LinearModel {
  std::vector<double> weights;
  double bias = 0.0;

  /// \brief Prediction via the canonical 4-lane dot product
  /// (kernels::LaneDot), bit-identical to the batched residual kernel.
  double Predict(std::span<const double> x) const;
};

/// \brief Mini-batch SGD hyperparameters.
struct SgdOptions {
  int epochs = 50;
  size_t batch_size = 32;
  double learning_rate = 0.05;
  double l2 = 0.0;  ///< ridge penalty on the weights (not the bias)
};

/// \brief Linear-regression fitter with reusable scratch.
///
/// Both fits are deterministic: the closed form accumulates the normal
/// equations sequentially and solves by Gaussian elimination with partial
/// pivoting (no RNG at all); SGD draws only from the caller's `Rng`
/// (per-epoch Fisher-Yates shuffle, then sequential mini-batches). The
/// scratch buffers only grow, so a warm regressor refits without touching
/// the heap — the property the model-in-the-loop trim reference leans on to
/// keep the session round loop allocation-free.
class LinearRegressor {
 public:
  /// \brief Exact least-squares fit of `n = ys.size()` flat observations
  /// (`xs` holds n * dims doubles, row-major) via the normal equations.
  /// Errors with FailedPrecondition when the system is singular (e.g.
  /// fewer points than dims + 1) and InvalidArgument on shape mismatch.
  Status FitClosedForm(std::span<const double> xs, std::span<const double> ys,
                       size_t dims, LinearModel* out);

  /// \brief The same fit straight from an interleaved observation block:
  /// `rows` holds [x_0..x_{width-2}, y] rows of `width` doubles and the fit
  /// runs over the rows named by `selected`, accumulated in `selected`
  /// order. Bit-identical to gathering those rows into flat xs / ys and
  /// calling FitClosedForm, without the copy.
  Status FitClosedFormRows(std::span<const double> rows, size_t width,
                           std::span<const size_t> selected, LinearModel* out);

  /// \brief The same fit over the rows of flat `xs` / `ys` named by
  /// `selected`, accumulated in `selected` order. Bit-identical to
  /// gathering those rows and calling the full FitClosedForm, without the
  /// copy.
  Status FitClosedForm(std::span<const double> xs, std::span<const double> ys,
                       size_t dims, std::span<const size_t> selected,
                       LinearModel* out);

  /// \brief Mini-batch SGD fit; deterministic under `rng` (the epoch
  /// shuffles are the only draws).
  Status FitMiniBatchSgd(std::span<const double> xs,
                         std::span<const double> ys, size_t dims,
                         const SgdOptions& options, Rng* rng,
                         LinearModel* out);

  /// \brief Heap bytes of the fit scratch, by capacity.
  size_t HeapBytes() const;

 private:
  /// Mirrors the accumulated upper triangle of normal_ and solves the
  /// (dims+1)-square system into `out`; shared by the closed-form fits.
  Status Solve(size_t dims, LinearModel* out);

  // Augmented-design scratch for the closed form: (dims+1)^2 normal matrix
  // plus right-hand side, and the SGD index permutation / gradient buffer.
  std::vector<double> normal_;    ///< (dims+1) x (dims+1), row-major
  std::vector<double> rhs_;       ///< dims+1
  std::vector<size_t> perm_;      ///< SGD epoch shuffle
  std::vector<double> gradient_;  ///< dims+1 accumulator
};

/// \brief Orders row indices by a residual key, with reusable scratch.
///
/// The order is total: ascending key, NaN equal to +inf, ties by index —
/// so the result is one fixed permutation whatever the algorithm. Keys are
/// residual magnitudes or squared residuals (>= 0 or NaN; -0.0 counts as
/// +0.0). Each key is ordered by its IEEE bit pattern, which for
/// non-negative doubles orders like the value. Small rounds take an
/// insertion sort, larger ones an LSD radix sort (passes whose digit is the
/// same for every key are skipped); both are stable from index order. The
/// scratch only grows, so a warm orderer never allocates.
class ResidualOrder {
 public:
  /// \brief Overwrites `order` with the permutation of [0, keys.size())
  /// that sorts `keys`.
  void Sort(std::span<const double> keys, std::vector<size_t>* order);

  /// \brief Returns the scratch to the allocator; the next Sort re-grows
  /// it.
  void Release();

  /// \brief Heap bytes of the scratch, by capacity.
  size_t HeapBytes() const;

 private:
  std::vector<uint64_t> bits_;      ///< keys as ordered bit patterns
  std::vector<uint64_t> bits_alt_;  ///< radix ping-pong buffer
  std::vector<size_t> index_alt_;   ///< radix ping-pong buffer
};

/// \brief A flat regression training set: n rows of `dims` features plus a
/// response, stored as parallel flat arrays.
struct RegressionData {
  std::string name = "regression";
  size_t dims = 0;
  std::vector<double> xs;  ///< size() * dims doubles, row-major
  std::vector<double> ys;  ///< size() doubles

  size_t size() const { return ys.size(); }
};

/// \brief Deterministic synthetic regression task: features uniform in
/// [-1, 1], response w . x + b + noise * N(0, 1) for a random true model
/// drawn from `seed` (written to `truth` when non-null).
RegressionData MakeSyntheticRegression(size_t n, size_t dims, double noise,
                                       uint64_t seed,
                                       LinearModel* truth = nullptr);

/// \brief The flip-and-shift regression-poisoning attack: appends
/// floor(eps * C) poison rows to the C clean rows of `data`. Each poison
/// row reuses a random clean feature row and flips its response across the
/// reference prediction, pushed `shift` beyond the original residual
/// magnitude: y' = yhat + sign * (|y - yhat| + shift), sign ~ Bernoulli(1/2).
/// Appending (rather than replacing) keeps the clean count intact, so the
/// true contamination eps sits exactly on iTrim's sweep grid. Returns the
/// number of rows appended (the poison rows are the tail of `data`).
size_t FlipShiftPoison(RegressionData* data, const LinearModel& reference,
                       double eps, double shift, Rng* rng);

/// \brief Trim defense knobs.
struct TrimOptions {
  double eps_hat = 0.0;  ///< assumed contamination, in [0, 1)
  double tol = 1e-4;     ///< early stop when mean |delta r^2| falls below
  int max_iters = 20;    ///< refit budget (1 = one-shot Trim)
};

/// \brief Trim defense outcome.
struct TrimResult {
  std::vector<size_t> kept;  ///< surviving row indices, ascending
  LinearModel model;         ///< final fit (on the kept subset)
  double full_mse = 0.0;     ///< mean squared residual over all rows
  double kept_mse = 0.0;     ///< mean squared residual over kept rows
  int iterations = 0;        ///< refit loop iterations actually run
};

/// \brief The iterative Trim defense: initial fit on a random subset of
/// n = floor(N / (1 + eps_hat)) rows, then repeatedly keep the n
/// lowest-squared-residual rows (ties by index) and refit until the mean
/// absolute change in per-row squared residuals falls below `tol` or
/// `max_iters` is exhausted. eps_hat = 0 is a pure no-op: every row is
/// kept and the refit loop never runs (the result carries the single
/// initial fit over all rows). `rng` is drawn only for the initial subset
/// sample — including the degenerate eps_hat = 0 sample of all N rows, so
/// the RNG stream shape does not depend on the contamination estimate.
Result<TrimResult> TrimDefense(const RegressionData& data,
                               const TrimOptions& options, Rng* rng);

/// \brief iTrim sweep knobs.
struct ITrimOptions {
  double eps_max = 0.24;   ///< top of the candidate grid
  double eps_step = 0.02;  ///< grid spacing
  /// Minimum consecutive kept-MSE drop ratio that counts as the knick;
  /// below it the sweep concludes the data is clean (eps_hat = 0).
  double knee_ratio = 2.0;
  double tol = 1e-4;  ///< forwarded to each Trim run
  int max_iters = 20;
};

/// \brief iTrim sweep outcome.
struct ITrimResult {
  double eps_hat = 0.0;          ///< estimated contamination (grid point)
  std::vector<double> grid;      ///< candidate eps values swept
  std::vector<double> kept_mse;  ///< kept-subset MSE per grid point
  TrimResult trim;               ///< the Trim run at eps_hat
};

/// \brief iTrim: runs TrimDefense at every grid eps, finds the knick (the
/// largest consecutive drop in kept-subset MSE, which lands at the first
/// grid point whose keep budget excludes all poison), and returns the Trim
/// result at the estimated contamination. When `metrics` is non-null the
/// estimate is published as the ml_eps_hat gauge (src/obs/); telemetry
/// only — the sweep itself is unaffected.
Result<ITrimResult> ITrimDefense(const RegressionData& data,
                                 const ITrimOptions& options, Rng* rng,
                                 obs::MetricSlot* metrics = nullptr);

}  // namespace itrim

#endif  // ITRIM_ML_LINREG_H_
