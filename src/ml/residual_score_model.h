// ScoreModel of the regression-poisoning setting: residuals against a
// reference linear fit.
//
// Observations are flat [x_0..x_{d-1}, y] rows of ObsWidth() = d + 1
// doubles; the score is the absolute residual |y - yhat| against a
// reference model fit (closed form) on the clean bootstrap sample, and the
// public board records the bootstrap sample's residual magnitudes — so the
// percentile coordinate both parties speak is a residual quantile. Poison
// "at percentile a" materializes as a response flipped across the
// reference prediction by the board's a-quantile residual (the
// flip-and-shift attack shape); the leverage variant plants it on the
// highest-leverage feature row instead of a random one.
//
// The model always materializes its round rows in a flat pooled block
// (benign rows are copied out of the borrowed source and scored in one
// batched residual sweep per round) and exposes them through
// observations(): that is what lets a FittedModelReference
// (game/reference_policy.h) refit on the round's survivors — the
// model-in-the-loop generalization of the interactive protocol. With the default PercentileReference the model behaves like
// the scalar settings, trimming at the board's residual quantile.
#ifndef ITRIM_ML_RESIDUAL_SCORE_MODEL_H_
#define ITRIM_ML_RESIDUAL_SCORE_MODEL_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "game/public_board.h"
#include "game/score_model.h"
#include "game/trimmer.h"
#include "ml/linreg.h"

namespace itrim {

/// \brief How the residual model materializes a poison row.
enum class PoisonShape {
  /// Flip-and-shift: a random clean feature row, response flipped across
  /// the reference prediction by the positioned residual magnitude
  /// (sign ~ Bernoulli(1/2)).
  kFlipShift = 0,
  /// Leverage attack: every poison row reuses the highest-leverage clean
  /// feature row (max distance to the feature mean), response pushed
  /// upward — one consistent pull on the fit, no RNG per poison value.
  kLeverage = 1,
};

/// \brief Human-readable poison shape name ("flip_shift" / "leverage").
const char* PoisonShapeName(PoisonShape shape);

/// \brief Regression data setting of the TrimmingSession engine.
///
/// `source` is borrowed, never copied: the bootstrap fit, every benign draw
/// and every poison row read its xs / ys directly, so it must outlive the
/// model and stay unchanged while the model runs (a fleet of residual
/// tenants shares one source instead of holding a copy each).
class ResidualScoreModel : public ScoreModel {
 public:
  explicit ResidualScoreModel(const RegressionData* source,
                              PoisonShape shape = PoisonShape::kFlipShift);

  std::string name() const override { return "residual"; }
  uint64_t BoardSeedSalt() const override { return 0x94D049BB133111EBULL; }
  Status BeginRun() override;
  Status Bootstrap(size_t bootstrap_size, Rng* rng,
                   PublicBoard* board) override;
  void BeginRound(size_t expected) override;
  void AppendBenignBatch(size_t count, Rng* rng) override;
  Status AppendBenignBatch(std::span<const double> obs) override;
  /// Positions above 1 extrapolate beyond the observed residual range (the
  /// adversary may fabricate residuals larger than any clean one).
  double InjectionCap() const override { return 1.5; }
  Status AppendPoison(double position, Rng* rng,
                      const PublicBoard& board) override;
  std::span<const double> scores() const override { return scores_; }
  std::span<const char> is_poison() const override { return is_poison_; }
  size_t ObsWidth() const override;
  bool ProvidesObservations() const override { return true; }
  std::span<const double> observations() const override {
    return {row_data_.data(), rows_used_ * width_};
  }
  Status ScoreInto(std::span<const double> obs,
                   std::span<double> out) const override;
  Status TrimAtReference(double percentile, const PublicBoard& board,
                         TrimOutcome* out) override;
  void Commit(std::span<const char> keep) override;
  void ReleaseRoundBuffers() override;
  size_t FootprintBytes() const override;

  /// \brief Survivor rows accumulated since BeginRun() (poison rows carry
  /// their fabricated responses).
  const RegressionData& retained_data() const { return retained_; }
  /// \brief Poison flags parallel to retained_data() rows.
  const std::vector<char>& retained_is_poison() const {
    return retained_is_poison_;
  }
  /// \brief Reference fit fixed from the clean bootstrap sample (valid
  /// after Bootstrap()).
  const LinearModel& reference_model() const { return reference_; }

 protected:
  double ScoreObservation(std::span<const double> obs) const override;

 private:
  /// Next reusable [x..., y] slot in the flat round pool (grow-only).
  std::span<double> NextRowSlot();

  const RegressionData* source_;
  PoisonShape shape_;
  size_t width_ = 0;  ///< dims + 1, fixed by BeginRun()
  LinearRegressor regressor_;
  LinearModel reference_;
  size_t leverage_row_ = 0;  ///< argmax feature distance to the mean
  std::vector<double> row_data_;         ///< flat round pool, width_ per row
  size_t rows_used_ = 0;
  std::vector<uint64_t> index_scratch_;  ///< batched benign-draw indices
  std::vector<double> scores_;
  std::vector<char> is_poison_;
  RegressionData retained_;
  std::vector<char> retained_is_poison_;
};

}  // namespace itrim

#endif  // ITRIM_ML_RESIDUAL_SCORE_MODEL_H_
