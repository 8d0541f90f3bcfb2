// The public board of the infinite collection game (Fig 3).
//
// The collector records data on a board that the adversary can read; both
// parties derive percentile positions from it. The board therefore *is* the
// commonly-known reference distribution that percentile-denominated
// strategies are defined against. The collection games seed it with a clean
// round-0 calibration sample (the same sample Algorithm 1's QE(X0) baseline
// is measured on) and keep that reference fixed: re-recording the trimmed
// survivors would make the reference absorb its own truncation and spiral
// the cutoffs downward, so all round-to-round adaptivity lives in the
// strategies, not in reference drift.
//
// In the engine the board is therefore frozen after bootstrap: only the
// score models' Bootstrap() records into it, and Step() only reads it. So
// the board is one ascending array (`sorted_`) beside the values in
// reservoir slot order (`values_`): a quantile is O(1) and a percentile
// rank O(log n), both answered by the sorted oracle itself
// (QuantileSorted / PercentileRankSorted), so they are exact by
// construction. A record costs O(n) (a binary search and one memmove),
// paid only while the bootstrap fills the board. Equal keys are placed by
// upper bound, so recording values one by one builds their stable sort.
//
// Storage is sized to what the board holds; nothing is reserved up front.
// A session checkpoint carries the values only; Restore() rebuilds the
// sorted array with one stable sort of the slot order, the array that
// recording them in slot order builds. A parked session
// (TrimmingSession::Park) moves the values out and keeps the sorted array,
// so Unpark() moves them back without sorting anything. NaN is never
// recorded: the score models refuse a NaN score at bootstrap and Restore()
// refuses a snapshot holding one.
#ifndef ITRIM_GAME_PUBLIC_BOARD_H_
#define ITRIM_GAME_PUBLIC_BOARD_H_

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace itrim {

/// \brief Append-only record of retained scalar observations with
/// exact quantile queries.
///
/// Memory is bounded by reservoir downsampling once `capacity` is exceeded;
/// quantiles are computed exactly over the (possibly downsampled) record.
class PublicBoard {
 public:
  /// Creates a board retaining at most `capacity` values (0 = unbounded).
  explicit PublicBoard(size_t capacity = 0, uint64_t seed = 17);

  /// \brief Records a batch of retained values.
  void Record(const std::vector<double>& values);

  /// \brief Records one retained value; `value` must not be NaN.
  void RecordOne(double value);

  /// \brief q-quantile (q in [0,1]) of the recorded distribution.
  /// Returns an error when the board is empty.
  Result<double> Quantile(double q) const;

  /// \brief Percentile rank of `x` in [0,1] against the recorded data.
  double PercentileRank(double x) const;

  /// \brief Number of values currently held.
  size_t size() const { return values_.size(); }

  /// \brief Total number of values ever recorded (pre-downsampling).
  size_t total_recorded() const { return total_recorded_; }

  /// \brief All currently held values (unsorted, reservoir-slot order).
  const std::vector<double>& values() const { return values_; }

  /// \brief Drops all records.
  void Clear();

  /// \brief Serializable board state for session checkpointing. The
  /// sorted array is not part of it: Restore sorts the values again.
  struct Snapshot {
    std::vector<double> values;
    size_t total_recorded = 0;
    Rng::Snapshot rng;
  };

  /// \brief Captures the current state (the sorted array is rebuilt on
  /// Restore, not stored).
  Snapshot Save() const;

  /// \brief Restores a previously captured state. Errors (leaving the
  /// board untouched) when the snapshot holds a NaN or more values than
  /// this board's configured capacity — a snapshot from a differently
  /// configured source board.
  Status Restore(const Snapshot& snapshot);

  /// \brief Moves the held values (not a copy), the record count and the
  /// RNG state into `out`. The sorted array stays, so the board
  /// answers no value queries until Unpark() moves the values back.
  void Park(Snapshot* out);

  /// \brief Moves parked values back from `parked`. Errors (moving
  /// nothing) unless the values fit the capacity and their count equals
  /// what the kept sorted array holds.
  Status Unpark(Snapshot* parked);

  /// \brief Heap bytes the board holds: its values and its sorted array,
  /// by capacity.
  size_t HeapBytes() const;

 private:
  /// Refuses a snapshot holding more values than the configured capacity.
  Status CheckCapacity(const Snapshot& snapshot) const;

  size_t capacity_;
  size_t total_recorded_ = 0;
  Rng rng_;
  std::vector<double> values_;  ///< reservoir slot order
  std::vector<double> sorted_;  ///< the same values, ascending
};

}  // namespace itrim

#endif  // ITRIM_GAME_PUBLIC_BOARD_H_
