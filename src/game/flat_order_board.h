// Flat, cache-local order statistics for the public board.
//
// A pointer-based order-statistic tree makes every board operation
// O(log n), but each of those log n steps is a dependent pointer chase into
// a node scattered across a multi-megabyte arena — at board size 100k the
// traversal works a ~3 MB set and nearly every level misses cache.
// FlatOrderBoard keeps the multiset in a B-tree-style flat layout instead:
//
//   * values live in sorted *leaves* of up to kLeafCapacity (64) doubles —
//     one or two cache lines of contiguous payload per touched leaf;
//   * leaves sit in stable pool slots; a separate *order* array of slot ids
//     plus a parallel array of per-leaf max keys forms the entire inner
//     index (two small contiguous arrays, ~13 KB at 100k values);
//   * per-leaf element counts are folded into a Fenwick tree, so rank
//     arithmetic (Kth, CountLessEqual) is a short binary-lifting walk over
//     one L1-resident uint32 array instead of a root-to-leaf pointer chain.
//
// Insert/EraseOne are a binary search over the max-key array, a leaf-level
// count (kernels::CountGreater / kernels::CountAtLeast — the same batched
// tail-counting kernels the scoring path uses, auto-vectorized over the
// ≤ 64-double leaf), and a small memmove. Leaves split at kLeafCapacity and
// merge/borrow below kLeafMin, so the leaf count stays ≤ n / kLeafMin + 1.
// Storage grows with the values held; nothing is reserved up front (the
// public board is filled once at bootstrap and frozen after, so its index
// holds what it recorded and no more).
//
// Exactness contract: for any reachable multiset, Kth/CountLessEqual and
// therefore Quantile()/PercentileRank() return bit-identical doubles to the
// sorted-oracle implementations QuantileSorted() / PercentileRankSorted() in
// stats/quantile.h. Insertion uses upper-bound placement among equal keys
// and EraseOne removes by value equality; a NaN probe to CountLessEqual
// counts every value (std::upper_bound semantics), a NaN EraseOne matches
// nothing. tests/game/flat_order_board_test.cc and
// tests/game/board_fuzz_test.cc pit the board against the sorted oracle.
#ifndef ITRIM_GAME_FLAT_ORDER_BOARD_H_
#define ITRIM_GAME_FLAT_ORDER_BOARD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"

namespace itrim {

/// \brief Dynamic multiset of doubles with cache-local order statistics
/// (the order-statistic index behind PublicBoard).
class FlatOrderBoard {
 public:
  FlatOrderBoard() = default;

  /// \brief Adds one value (duplicates allowed).
  void Insert(double value);

  /// \brief Removes one instance of `value`; false when absent (a NaN
  /// `value` matches nothing).
  bool EraseOne(double value);

  /// \brief Drops all values; leaf storage is kept for reuse.
  void Clear();

  /// \brief Number of values currently held.
  size_t size() const { return total_; }

  /// \brief Heap bytes the index holds (leaf pool and index arrays, by
  /// capacity).
  size_t HeapBytes() const;

  /// \brief k-th smallest value, 0-based. Requires k < size().
  double Kth(size_t k) const;

  /// \brief Number of held values <= x (NaN x counts everything, matching
  /// std::upper_bound semantics in the sorted oracle).
  size_t CountLessEqual(double x) const;

  /// \brief q-quantile with MATLAB prctile interpolation; bit-identical to
  /// QuantileSorted() over the same multiset. Errors when empty.
  Result<double> Quantile(double q) const;

  /// \brief Rank of x in [0,1]; bit-identical to PercentileRankSorted().
  /// Returns 0 when empty.
  double PercentileRank(double x) const;

  // Structural constants, exposed for the boundary-targeted tests.
  static constexpr size_t kLeafCapacity = 64;  ///< split threshold
  static constexpr size_t kLeafMin = 16;       ///< merge/borrow threshold

 private:
  struct Leaf {
    double values[kLeafCapacity];
    uint32_t n = 0;
  };

  size_t LeafCount() const { return order_.size(); }
  uint32_t AllocLeaf();
  /// First order position whose leaf can receive `value` under upper-bound
  /// placement (all leaves with max <= value lie strictly before it).
  size_t FindInsertLeaf(double value) const;
  void SplitLeaf(size_t pos);
  void MergeLeaves(size_t pos);  ///< merges order_[pos] and order_[pos + 1]
  void RebalanceAfterErase(size_t pos);

  // Fenwick tree over per-leaf counts, 1-based, parallel to order_.
  void FenwickRebuild();
  void FenwickAdd(size_t pos, uint32_t delta);
  void FenwickSub(size_t pos, uint32_t delta);
  size_t FenwickPrefix(size_t pos) const;  ///< count of first `pos` leaves

  std::vector<Leaf> pool_;        ///< stable leaf slots (never move)
  std::vector<uint32_t> free_;    ///< recycled pool slots
  std::vector<uint32_t> order_;   ///< pool slot ids in global key order
  std::vector<double> max_key_;   ///< parallel to order_: leaf max value
  std::vector<uint32_t> fenwick_; ///< 1-based Fenwick over leaf counts
  size_t total_ = 0;
};

}  // namespace itrim

#endif  // ITRIM_GAME_FLAT_ORDER_BOARD_H_
