#include "game/public_board.h"

#include <string>
#include <utility>

namespace itrim {

PublicBoard::PublicBoard(size_t capacity, uint64_t seed)
    : capacity_(capacity), rng_(seed) {}

void PublicBoard::Record(const std::vector<double>& values) {
  for (double v : values) RecordOne(v);
}

void PublicBoard::RecordOne(double value) {
  ++total_recorded_;
  if (capacity_ == 0 || values_.size() < capacity_) {
    values_.push_back(value);
    flat_.Insert(value);
  } else {
    // Reservoir sampling keeps the board an unbiased sample of everything
    // ever recorded while bounding memory.
    size_t j = static_cast<size_t>(rng_.UniformInt(total_recorded_));
    if (j < capacity_) {
      flat_.EraseOne(values_[j]);
      values_[j] = value;
      flat_.Insert(value);
    }
  }
}

Result<double> PublicBoard::Quantile(double q) const {
  if (values_.empty()) {
    return Status::FailedPrecondition("public board is empty");
  }
  return flat_.Quantile(q);
}

double PublicBoard::PercentileRank(double x) const {
  if (values_.empty()) return 0.0;
  return flat_.PercentileRank(x);
}

void PublicBoard::Clear() {
  values_.clear();
  flat_.Clear();
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
  values_ = snapshot.values;
  total_recorded_ = snapshot.total_recorded;
  rng_.Restore(snapshot.rng);
  flat_.Clear();
  for (double v : values_) flat_.Insert(v);
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
  if (parked->values.size() != flat_.size()) {
    return Status::InvalidArgument(
        "parked board holds " + std::to_string(parked->values.size()) +
        " values but its kept index holds " + std::to_string(flat_.size()));
  }
  values_ = std::move(parked->values);
  parked->values.clear();
  total_recorded_ = parked->total_recorded;
  rng_.Restore(parked->rng);
  return Status::OK();
}

size_t PublicBoard::HeapBytes() const {
  return values_.capacity() * sizeof(double) + flat_.HeapBytes();
}

}  // namespace itrim
