// FlatOrderBoard unit + property coverage, including leaf-structure-targeted
// cases: splits at kLeafCapacity, merges and cross-boundary borrows at
// kLeafMin, duplicate runs spanning leaf boundaries, and pooled-slot churn at
// a fixed size. Every order-statistic check is exact (bitwise against the
// sorted oracle), so any divergence is a bug, not noise.
#include "game/flat_order_board.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "stats/quantile.h"

#include "game/summary_test_util.h"

namespace itrim {
namespace {

TEST(FlatOrderBoardTest, EmptyBoard) {
  FlatOrderBoard board;
  EXPECT_EQ(board.size(), 0u);
  EXPECT_FALSE(board.Quantile(0.5).ok());
  EXPECT_DOUBLE_EQ(board.PercentileRank(1.0), 0.0);
  EXPECT_FALSE(board.EraseOne(1.0));
}

TEST(FlatOrderBoardTest, KthTracksSortedOrder) {
  FlatOrderBoard board;
  for (double v : {5.0, 1.0, 3.0, 2.0, 4.0}) board.Insert(v);
  ASSERT_EQ(board.size(), 5u);
  for (size_t k = 0; k < 5; ++k) {
    EXPECT_DOUBLE_EQ(board.Kth(k), static_cast<double>(k + 1));
  }
}

TEST(FlatOrderBoardTest, DuplicatesCountedIndividually) {
  FlatOrderBoard board;
  for (double v : {2.0, 2.0, 2.0, 1.0}) board.Insert(v);
  EXPECT_EQ(board.size(), 4u);
  EXPECT_EQ(board.CountLessEqual(2.0), 4u);
  EXPECT_EQ(board.CountLessEqual(1.5), 1u);
  EXPECT_TRUE(board.EraseOne(2.0));
  EXPECT_EQ(board.size(), 3u);
  EXPECT_EQ(board.CountLessEqual(2.0), 3u);
  EXPECT_TRUE(board.EraseOne(2.0));
  EXPECT_TRUE(board.EraseOne(2.0));
  EXPECT_FALSE(board.EraseOne(2.0));
  EXPECT_EQ(board.size(), 1u);
  EXPECT_DOUBLE_EQ(board.Kth(0), 1.0);
}

TEST(FlatOrderBoardTest, NanProbeMatchesUpperBoundSemantics) {
  FlatOrderBoard board;
  for (double v : {1.0, 2.0, 3.0}) board.Insert(v);
  // std::upper_bound(sorted, NaN) returns end() (count = n): every
  // comparison NaN < v is false.
  EXPECT_DOUBLE_EQ(board.PercentileRank(std::nan("")), 1.0);
  // A NaN erase probe matches nothing (no value compares equal to NaN).
  EXPECT_FALSE(board.EraseOne(std::nan("")));
  EXPECT_EQ(board.size(), 3u);
}

// Ascending, descending and duplicate-flood fills across several leaf
// splits: the insertion orders that degenerate a naive structure, sized to
// cross the one-leaf, two-leaf and many-leaf regimes.
TEST(FlatOrderBoardTest, LeafSplitsPreserveOrderAcrossFillPatterns) {
  const size_t kN = FlatOrderBoard::kLeafCapacity * 5 + 7;
  for (int pattern = 0; pattern < 3; ++pattern) {
    SCOPED_TRACE(pattern == 0   ? "ascending"
                 : pattern == 1 ? "descending"
                                : "duplicate-flood");
    FlatOrderBoard board;
    std::vector<double> mirror;
    for (size_t i = 0; i < kN; ++i) {
      double v = pattern == 0   ? static_cast<double>(i)
                 : pattern == 1 ? static_cast<double>(kN - i)
                                : static_cast<double>(i % 3);
      board.Insert(v);
      mirror.push_back(v);
      if (i % 17 == 0 || i + 1 == kN) {
        std::vector<double> sorted = mirror;
        std::sort(sorted.begin(), sorted.end());
        ASSERT_EQ(board.size(), sorted.size());
        for (size_t k = 0; k < sorted.size(); ++k) {
          ASSERT_TRUE(BitEqual(board.Kth(k), sorted[k])) << "k=" << k;
        }
      }
    }
  }
}

// Drains a multi-leaf board value by value, forcing every rebalance shape
// (borrow from right, borrow from left, merge, lone-leaf shrink) while
// checking full order statistics against the shrinking mirror.
TEST(FlatOrderBoardTest, ErasureDrainsThroughMergesAndBorrows) {
  const size_t kN = FlatOrderBoard::kLeafCapacity * 4;
  FlatOrderBoard board;
  std::vector<double> mirror;
  Rng rng(77);
  for (size_t i = 0; i < kN; ++i) {
    double v = rng.Uniform(-2.0, 2.0);
    if (rng.Bernoulli(0.3)) v = std::round(v * 4.0) / 4.0;  // duplicates
    board.Insert(v);
    mirror.push_back(v);
  }
  std::sort(mirror.begin(), mirror.end());
  while (!mirror.empty()) {
    // Alternate draining ends and middle so underflow hits first, last and
    // interior leaves.
    size_t k = mirror.size() % 3 == 0   ? 0
               : mirror.size() % 3 == 1 ? mirror.size() - 1
                                        : mirror.size() / 2;
    double victim = mirror[k];
    ASSERT_TRUE(board.EraseOne(victim));
    mirror.erase(mirror.begin() + static_cast<long>(k));
    ASSERT_EQ(board.size(), mirror.size());
    if (mirror.size() % 13 == 0 && !mirror.empty()) {
      for (size_t i = 0; i < mirror.size(); ++i) {
        // Numeric equality: round() yields -0.0s, and among equal keys the
        // stored zero's sign bit may sit in either slot.
        ASSERT_EQ(board.Kth(i), mirror[i]);
      }
      double q = rng.Uniform();
      ASSERT_TRUE(BitEqual(board.Quantile(q).ValueOrDie(),
                           QuantileSorted(mirror, q)));
      double x = rng.Uniform(-2.5, 2.5);
      ASSERT_TRUE(BitEqual(board.PercentileRank(x),
                           PercentileRankSorted(mirror, x)));
    }
  }
  EXPECT_EQ(board.size(), 0u);
  EXPECT_FALSE(board.Quantile(0.5).ok());
}

// Equal keys flooding across multiple leaves: erase must always remove an
// instance (first occurrence) and counts must stay exact while runs of one
// value straddle leaf boundaries.
TEST(FlatOrderBoardTest, DuplicateRunsSpanningLeavesStayExact) {
  FlatOrderBoard board;
  std::vector<double> mirror;
  const size_t kRun = FlatOrderBoard::kLeafCapacity * 2 + 11;
  for (double key : {1.0, 2.0, 3.0}) {
    for (size_t i = 0; i < kRun; ++i) {
      board.Insert(key);
      mirror.push_back(key);
    }
  }
  std::sort(mirror.begin(), mirror.end());
  EXPECT_EQ(board.CountLessEqual(1.0), kRun);
  EXPECT_EQ(board.CountLessEqual(2.0), 2 * kRun);
  EXPECT_EQ(board.CountLessEqual(2.5), 2 * kRun);
  Rng rng(5);
  while (!mirror.empty()) {
    double key = mirror[rng.UniformInt(mirror.size())];
    ASSERT_TRUE(board.EraseOne(key));
    mirror.erase(std::find(mirror.begin(), mirror.end(), key));
    ASSERT_EQ(board.size(), mirror.size());
    if (mirror.size() % 29 == 0 && !mirror.empty()) {
      for (double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
        ASSERT_TRUE(BitEqual(board.Quantile(q).ValueOrDie(),
                             QuantileSorted(mirror, q)));
      }
    }
  }
}

// Deterministic construction that forces the borrow rebalance (adjacent
// pair too full to merge): a 50-element left leaf next to a leaf drained to
// one under the minimum must steal exactly one element across the shared
// boundary, in both directions.
TEST(FlatOrderBoardTest, UnderflowBorrowsAcrossLeafBoundary) {
  constexpr size_t kCap = FlatOrderBoard::kLeafCapacity;
  constexpr size_t kMin = FlatOrderBoard::kLeafMin;
  FlatOrderBoard board;
  std::vector<double> mirror;
  auto insert = [&](double v, size_t times) {
    for (size_t i = 0; i < times; ++i) {
      board.Insert(v);
      mirror.push_back(v);
    }
  };
  auto erase = [&](double v, size_t times) {
    for (size_t i = 0; i < times; ++i) {
      ASSERT_TRUE(board.EraseOne(v));
      mirror.erase(std::find(mirror.begin(), mirror.end(), v));
    }
  };
  auto check = [&]() {
    std::vector<double> sorted = mirror;
    std::sort(sorted.begin(), sorted.end());
    ASSERT_EQ(board.size(), sorted.size());
    for (size_t k = 0; k < sorted.size(); ++k) {
      ASSERT_TRUE(BitEqual(board.Kth(k), sorted[k])) << "k=" << k;
    }
  };
  // Ascending fill of kCap + 1 distinct values splits into two leaves with
  // disjoint ranges: [0, kCap/2) and [kCap/2, kCap].
  for (size_t i = 0; i <= kCap; ++i) insert(static_cast<double>(i), 1);
  // Pad the left leaf (values < kCap/2) to kCap - kMin + 2 so a merge with
  // a (kMin - 1)-sized sibling would overflow by one — borrow territory.
  insert(static_cast<double>(kCap / 2) - 0.5, kCap - kMin + 2 - kCap / 2);
  // Drain the right leaf to kMin - 1: it must borrow the left leaf's
  // largest (the 31.5 pad value) across the boundary.
  for (size_t i = 0; i < kCap / 2 + 2 - kMin; ++i) {
    erase(static_cast<double>(kCap - i), 1);
  }
  check();
  // Mirror image: pad the *right* leaf until it cannot merge, then
  // underflow the left leaf so it borrows the right leaf's smallest.
  board.Clear();
  mirror.clear();
  for (size_t i = 0; i <= kCap; ++i) insert(static_cast<double>(i), 1);
  insert(static_cast<double>(kCap) + 0.5, kCap - kMin + 2 - (kCap / 2 + 1));
  erase(0.0, 1);
  for (size_t i = 1; i <= kCap / 2 - kMin; ++i) {
    erase(static_cast<double>(i), 1);
  }
  check();
}

TEST(FlatOrderBoardTest, QuantileMatchesSortedOracleExactly) {
  FlatOrderBoard board;
  std::vector<double> values;
  Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    double v = rng.Uniform(-3.0, 3.0);
    board.Insert(v);
    values.push_back(v);
  }
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (double q : {0.0, 0.001, 0.1, 0.25, 0.5, 0.9, 0.95, 0.999, 1.0}) {
    EXPECT_EQ(board.Quantile(q).ValueOrDie(), QuantileSorted(sorted, q))
        << "q=" << q;
  }
  for (int i = 0; i < 50; ++i) {
    double x = rng.Uniform(-4.0, 4.0);
    EXPECT_EQ(board.PercentileRank(x), PercentileRankSorted(sorted, x))
        << "x=" << x;
  }
}

// Randomized property sweep against a multiset oracle — insert / erase /
// clear interleavings with duplicate pressure.
TEST(FlatOrderBoardTest, PropertyAgainstMultisetOracle) {
  FlatOrderBoard board;
  std::vector<double> oracle;  // unsorted mirror
  Rng rng(99);
  for (int op = 0; op < 6000; ++op) {
    double roll = rng.Uniform();
    if (roll < 0.55 || oracle.empty()) {
      double v = rng.Uniform(-10.0, 10.0);
      if (rng.Bernoulli(0.25)) v = std::round(v);  // force duplicates
      board.Insert(v);
      oracle.push_back(v);
    } else if (roll < 0.75) {
      size_t idx = static_cast<size_t>(rng.UniformInt(oracle.size()));
      double v = oracle[idx];
      EXPECT_TRUE(board.EraseOne(v));
      oracle[idx] = oracle.back();
      oracle.pop_back();
    } else if (roll < 0.995) {
      ASSERT_EQ(board.size(), oracle.size());
      std::vector<double> sorted = oracle;
      std::sort(sorted.begin(), sorted.end());
      size_t k = static_cast<size_t>(rng.UniformInt(sorted.size()));
      // Kth compares numerically: ±0.0 instances are multiset-equal, so
      // their relative order among equal keys is unspecified.
      EXPECT_EQ(board.Kth(k), sorted[k]);
      double q = rng.Uniform();
      EXPECT_TRUE(BitEqual(board.Quantile(q).ValueOrDie(),
                           QuantileSorted(sorted, q)));
      double x = rng.Uniform(-11.0, 11.0);
      EXPECT_TRUE(BitEqual(board.PercentileRank(x),
                           PercentileRankSorted(sorted, x)));
    } else {
      board.Clear();
      oracle.clear();
    }
  }
}

// Pooled-slot stress: long erase/insert churn at a fixed multiset size —
// the steady state of a capacity-bounded reservoir, where
// merged-away leaves feed the slot free list that later splits drain. Any
// slot-recycling corruption (stale order entries, Fenwick drift) surfaces
// as divergence from the sorted oracle replayed alongside.
TEST(FlatOrderBoardTest, PooledChurnMatchesSortedOracleBitForBit) {
  FlatOrderBoard board;
  std::vector<double> oracle;
  Rng rng(9001);
  for (int i = 0; i < 256; ++i) {
    double v = rng.Uniform(-3.0, 3.0);
    if (rng.Bernoulli(0.25)) v = std::round(v);  // duplicate pressure
    board.Insert(v);
    oracle.push_back(v);
  }
  std::sort(oracle.begin(), oracle.end());
  for (int cycle = 0; cycle < 4000; ++cycle) {
    size_t victim_rank = static_cast<size_t>(rng.UniformInt(oracle.size()));
    double victim = oracle[victim_rank];
    ASSERT_TRUE(board.EraseOne(victim));
    oracle.erase(oracle.begin() + static_cast<long>(victim_rank));
    double v = rng.Uniform(-3.0, 3.0);
    if (rng.Bernoulli(0.25)) v = std::round(v);
    board.Insert(v);
    oracle.insert(std::upper_bound(oracle.begin(), oracle.end(), v), v);

    ASSERT_EQ(board.size(), oracle.size());
    if (cycle % 7 == 0) {
      size_t k = static_cast<size_t>(rng.UniformInt(oracle.size()));
      ASSERT_EQ(board.Kth(k), oracle[k]) << "cycle " << cycle;
      double q = rng.Uniform();
      ASSERT_EQ(board.Quantile(q).ValueOrDie(), QuantileSorted(oracle, q))
          << "cycle " << cycle;
      double x = rng.Uniform(-3.5, 3.5);
      ASSERT_EQ(board.PercentileRank(x), PercentileRankSorted(oracle, x))
          << "cycle " << cycle;
    }
  }
}

// Clear() must reset the pool cleanly: a reused board is indistinguishable
// from a fresh one under the same op stream.
TEST(FlatOrderBoardTest, ClearResetsPoolForBitIdenticalReuse) {
  FlatOrderBoard reused;
  Rng fill(31337);
  for (int i = 0; i < 500; ++i) reused.Insert(fill.Uniform());
  reused.Clear();
  EXPECT_EQ(reused.size(), 0u);

  FlatOrderBoard fresh;
  Rng a(555), b(555);
  for (int i = 0; i < 300; ++i) {
    reused.Insert(a.Uniform(-1.0, 1.0));
    fresh.Insert(b.Uniform(-1.0, 1.0));
  }
  ASSERT_EQ(reused.size(), fresh.size());
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    EXPECT_EQ(reused.Quantile(q).ValueOrDie(), fresh.Quantile(q).ValueOrDie());
  }
}

}  // namespace
}  // namespace itrim
