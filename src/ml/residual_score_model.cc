#include "ml/residual_score_model.h"

#include <algorithm>
#include <cmath>

#include "game/kernels.h"

namespace itrim {

const char* PoisonShapeName(PoisonShape shape) {
  return shape == PoisonShape::kLeverage ? "leverage" : "flip_shift";
}

ResidualScoreModel::ResidualScoreModel(const RegressionData* source,
                                       PoisonShape shape)
    : source_(source), shape_(shape) {}

Status ResidualScoreModel::BeginRun() {
  if (source_ == nullptr || source_->size() == 0) {
    return Status::FailedPrecondition("source regression data is empty");
  }
  if (source_->dims == 0) {
    return Status::FailedPrecondition("source regression data has no dims");
  }
  if (source_->xs.size() != source_->size() * source_->dims) {
    return Status::FailedPrecondition(
        "source regression data shape mismatch");
  }
  width_ = source_->dims + 1;
  retained_ = RegressionData{};
  retained_.name = source_->name + "/retained";
  retained_.dims = source_->dims;
  retained_is_poison_.clear();
  return Status::OK();
}

Status ResidualScoreModel::Bootstrap(size_t bootstrap_size, Rng* rng,
                                     PublicBoard* board) {
  const size_t n_source = source_->size();
  const size_t dims = source_->dims;

  // The clean calibration sample fixes the reference fit and seeds the
  // board with its residual magnitudes — the percentile coordinate of this
  // setting is a clean-residual quantile.
  std::vector<size_t> sample(bootstrap_size);
  for (size_t& idx : sample) {
    idx = static_cast<size_t>(rng->UniformInt(n_source));
  }
  ITRIM_RETURN_NOT_OK(regressor_.FitClosedForm(source_->xs, source_->ys, dims,
                                               sample, &reference_));
  for (size_t idx : sample) {
    const double prediction =
        kernels::LaneDot(reference_.weights.data(),
                         source_->xs.data() + idx * dims, dims) +
        reference_.bias;
    const double residual = std::fabs(source_->ys[idx] - prediction);
    if (std::isnan(residual)) {
      return Status::InvalidArgument("bootstrap residual is NaN");
    }
    board->RecordOne(residual);
  }

  // Highest-leverage source row (max feature distance to the mean, lowest
  // index on ties) for the leverage poison shape.
  std::vector<double> mean(dims, 0.0);
  for (size_t i = 0; i < n_source; ++i) {
    const double* x = source_->xs.data() + i * dims;
    for (size_t j = 0; j < dims; ++j) mean[j] += x[j];
  }
  for (double& m : mean) m /= static_cast<double>(n_source);
  leverage_row_ = 0;
  double best = -1.0;
  for (size_t i = 0; i < n_source; ++i) {
    const double dist = kernels::SquaredDistance(
        source_->xs.data() + i * dims, mean.data(), dims);
    if (dist > best) {
      best = dist;
      leverage_row_ = i;
    }
  }
  return Status::OK();
}

void ResidualScoreModel::BeginRound(size_t expected) {
  rows_used_ = 0;
  scores_.clear();
  is_poison_.clear();
  scores_.reserve(expected);
  is_poison_.reserve(expected);
}

std::span<double> ResidualScoreModel::NextRowSlot() {
  const size_t needed = (rows_used_ + 1) * width_;
  if (row_data_.size() < needed) row_data_.resize(needed);
  return std::span<double>(row_data_.data() + rows_used_++ * width_, width_);
}

void ResidualScoreModel::AppendBenignBatch(size_t count, Rng* rng) {
  index_scratch_.resize(count);
  rng->FillUniformInt(source_->size(), index_scratch_.data(), count);
  const size_t dims = width_ - 1;
  const size_t first = rows_used_;
  for (size_t i = 0; i < count; ++i) {
    const size_t idx = static_cast<size_t>(index_scratch_[i]);
    // Rows are always materialized: observations() must expose the round
    // for model-in-the-loop trim references regardless of retention.
    const double* x = source_->xs.data() + idx * dims;
    std::span<double> slot = NextRowSlot();
    std::copy(x, x + dims, slot.begin());
    slot[dims] = source_->ys[idx];
  }
  // One residual sweep over the new rows (bit-identical to per-row LaneDot
  // scoring by the kernel contract).
  const size_t old = scores_.size();
  scores_.resize(old + count);
  kernels::AbsResidualsToModel(row_data_.data() + first * width_, count,
                               width_, reference_.weights.data(),
                               reference_.bias, scores_.data() + old);
  is_poison_.insert(is_poison_.end(), count, 0);
}

Status ResidualScoreModel::AppendBenignBatch(std::span<const double> obs) {
  if (width_ == 0) {
    return Status::FailedPrecondition("model is not bootstrapped");
  }
  if (obs.size() % width_ != 0) {
    return Status::InvalidArgument("obs span is not a whole number of rows");
  }
  const size_t n = obs.size() / width_;
  for (size_t i = 0; i < n; ++i) {
    std::span<double> slot = NextRowSlot();
    std::copy(obs.begin() + static_cast<ptrdiff_t>(i * width_),
              obs.begin() + static_cast<ptrdiff_t>((i + 1) * width_),
              slot.begin());
  }
  const size_t old = scores_.size();
  scores_.resize(old + n);
  ITRIM_RETURN_NOT_OK(
      ScoreInto(obs, std::span<double>(scores_).subspan(old)));
  is_poison_.insert(is_poison_.end(), n, 0);
  return Status::OK();
}

Status ResidualScoreModel::AppendPoison(double position, Rng* rng,
                                        const PublicBoard& board) {
  // Poison "at percentile a" carries the board's a-quantile residual
  // magnitude; positions above 1 extrapolate linearly beyond the largest
  // clean residual.
  double magnitude;
  if (position <= 1.0) {
    ITRIM_ASSIGN_OR_RETURN(magnitude, board.Quantile(position));
  } else {
    ITRIM_ASSIGN_OR_RETURN(magnitude, board.Quantile(1.0));
    magnitude *= position;
  }
  size_t idx;
  double sign;
  if (shape_ == PoisonShape::kFlipShift) {
    idx = static_cast<size_t>(rng->UniformInt(source_->size()));
    sign = rng->Bernoulli(0.5) ? 1.0 : -1.0;
  } else {
    idx = leverage_row_;
    sign = 1.0;
  }
  const size_t dims = width_ - 1;
  const double* x = source_->xs.data() + idx * dims;
  std::span<double> slot = NextRowSlot();
  std::copy(x, x + dims, slot.begin());
  slot[dims] = reference_.Predict({x, dims}) + sign * magnitude;
  // Score through the scalar definition — bit-identical to the batched
  // benign sweep by the LaneDot contract.
  scores_.push_back(ScoreObservation(slot));
  is_poison_.push_back(1);
  return Status::OK();
}

size_t ResidualScoreModel::ObsWidth() const {
  if (width_ > 0) return width_;
  return source_ != nullptr && source_->dims > 0 ? source_->dims + 1 : 0;
}

double ResidualScoreModel::ScoreObservation(
    std::span<const double> obs) const {
  const size_t dims = obs.size() - 1;
  const double prediction =
      kernels::LaneDot(reference_.weights.data(), obs.data(), dims) +
      reference_.bias;
  return std::fabs(obs[dims] - prediction);
}

Status ResidualScoreModel::ScoreInto(std::span<const double> obs,
                                     std::span<double> out) const {
  ITRIM_RETURN_NOT_OK(CheckScoreSpans(obs, out));
  kernels::AbsResidualsToModel(obs.data(), out.size(), ObsWidth(),
                               reference_.weights.data(), reference_.bias,
                               out.data());
  return Status::OK();
}

Status ResidualScoreModel::TrimAtReference(double percentile,
                                           const PublicBoard& board,
                                           TrimOutcome* out) {
  ITRIM_ASSIGN_OR_RETURN(double cutoff, board.Quantile(percentile));
  TrimAboveValueInto(scores_, cutoff, out);
  return Status::OK();
}

void ResidualScoreModel::Commit(std::span<const char> keep) {
  if (!retain_survivors_) return;
  const size_t dims = width_ - 1;
  for (size_t i = 0; i < rows_used_; ++i) {
    if (!keep[i]) continue;
    const double* row = row_data_.data() + i * width_;
    retained_.xs.insert(retained_.xs.end(), row, row + dims);
    retained_.ys.push_back(row[dims]);
    retained_is_poison_.push_back(is_poison_[i]);
  }
}

void ResidualScoreModel::ReleaseRoundBuffers() {
  // Kept: the reference fit and the leverage row index.
  FreeVector(&row_data_);
  rows_used_ = 0;
  FreeVector(&index_scratch_);
  FreeVector(&scores_);
  FreeVector(&is_poison_);
  FreeVector(&retained_.xs);
  FreeVector(&retained_.ys);
  FreeVector(&retained_is_poison_);
}

size_t ResidualScoreModel::FootprintBytes() const {
  // The closed-form regressor's (dims+1)^2 normal-equation scratch is
  // internal to LinearRegressor and not counted.
  return sizeof(*this) + CapacityBytes(reference_.weights) +
         CapacityBytes(row_data_) + CapacityBytes(index_scratch_) +
         CapacityBytes(scores_) + CapacityBytes(is_poison_) +
         CapacityBytes(retained_.xs) + CapacityBytes(retained_.ys) +
         retained_.name.capacity() + CapacityBytes(retained_is_poison_);
}

}  // namespace itrim
