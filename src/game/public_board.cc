#include "game/public_board.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>
#include <utility>

#include "stats/quantile.h"

namespace itrim {

PublicBoard::PublicBoard(size_t capacity, uint64_t seed)
    : capacity_(capacity), rng_(seed) {}

void PublicBoard::Record(const std::vector<double>& values) {
  for (double v : values) RecordOne(v);
}

void PublicBoard::RecordOne(double value) {
  // A NaN could be inserted but never found again by the erase below.
  assert(!std::isnan(value));
  ++total_recorded_;
  if (capacity_ == 0 || values_.size() < capacity_) {
    values_.push_back(value);
  } else {
    // Reservoir sampling keeps the board an unbiased sample of everything
    // ever recorded while bounding memory.
    size_t j = static_cast<size_t>(rng_.UniformInt(total_recorded_));
    if (j >= capacity_) return;
    sorted_.erase(
        std::lower_bound(sorted_.begin(), sorted_.end(), values_[j]));
    values_[j] = value;
  }
  // Upper-bound placement keeps equal keys in arrival order.
  sorted_.insert(std::upper_bound(sorted_.begin(), sorted_.end(), value),
                 value);
}

Result<double> PublicBoard::Quantile(double q) const {
  if (values_.empty()) {
    return Status::FailedPrecondition("public board is empty");
  }
  return QuantileSorted(sorted_, q);
}

double PublicBoard::PercentileRank(double x) const {
  if (values_.empty()) return 0.0;
  return PercentileRankSorted(sorted_, x);
}

void PublicBoard::Clear() {
  values_.clear();
  sorted_.clear();
  total_recorded_ = 0;
}

PublicBoard::Snapshot PublicBoard::Save() const {
  return Snapshot{values_, total_recorded_, rng_.Save()};
}

Status PublicBoard::CheckCapacity(const Snapshot& snapshot) const {
  if (capacity_ > 0 && snapshot.values.size() > capacity_) {
    return Status::InvalidArgument(
        "board snapshot holds " + std::to_string(snapshot.values.size()) +
        " values but this board is configured with capacity " +
        std::to_string(capacity_) +
        " — restore into a board of the source's capacity");
  }
  return Status::OK();
}

Status PublicBoard::Restore(const Snapshot& snapshot) {
  ITRIM_RETURN_NOT_OK(CheckCapacity(snapshot));
  if (std::any_of(snapshot.values.begin(), snapshot.values.end(),
                  [](double v) { return std::isnan(v); })) {
    return Status::InvalidArgument("board snapshot holds a NaN value");
  }
  values_ = snapshot.values;
  total_recorded_ = snapshot.total_recorded;
  rng_.Restore(snapshot.rng);
  sorted_ = values_;
  std::stable_sort(sorted_.begin(), sorted_.end());
  return Status::OK();
}

void PublicBoard::Park(Snapshot* out) {
  out->values = std::move(values_);
  values_.clear();
  out->total_recorded = total_recorded_;
  out->rng = rng_.Save();
}

Status PublicBoard::Unpark(Snapshot* parked) {
  ITRIM_RETURN_NOT_OK(CheckCapacity(*parked));
  if (parked->values.size() != sorted_.size()) {
    return Status::InvalidArgument(
        "parked board holds " + std::to_string(parked->values.size()) +
        " values but its kept sorted array holds " +
        std::to_string(sorted_.size()));
  }
  values_ = std::move(parked->values);
  parked->values.clear();
  total_recorded_ = parked->total_recorded;
  rng_.Restore(parked->rng);
  return Status::OK();
}

size_t PublicBoard::HeapBytes() const {
  return (values_.capacity() + sorted_.capacity()) * sizeof(double);
}

}  // namespace itrim
