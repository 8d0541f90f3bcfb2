// Differential fuzzing of the public board against the sorted oracle,
// concentrated on the path the unit tests cover least: the board_capacity
// reservoir boundary, where every record past capacity replaces one held
// value (erase the old slot value, insert the new one) while the multiset
// size stays pinned at the cap.
//
// The value streams are adversarial rather than uniform: monotone runs
// (every insert lands at one end of the sorted array), duplicate floods
// (equal-key placement ties), sign-flipping extremes (interpolation across
// huge gaps), plus Clear() + refill and Save/Restore mid-stream. Every
// check is exact — bitwise agreement with QuantileSorted /
// PercentileRankSorted over the same multiset — so any divergence, however
// small, is a board bug, not noise.
//
// ITRIM_BOARD_FUZZ_OPS scales the per-case op count (default 900).
// The sanitizer CI leg runs a short-iteration variant through this knob so
// ASan/UBSan still sweep the replacement and restore paths without paying
// the full differential budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "game/public_board.h"
#include "stats/quantile.h"

#include "game/summary_test_util.h"

namespace itrim {
namespace {

// Per-case op budget, overridable for the short sanitizer sweep.
int FuzzOps(int default_ops) {
  if (const char* env = std::getenv("ITRIM_BOARD_FUZZ_OPS")) {
    int v = std::atoi(env);
    if (v > 0) return v;
  }
  return default_ops;
}

// Adversarial value generators; `step` counts calls so monotone patterns
// keep marching across Clear()s.
enum class ValuePattern {
  kUniform,
  kAscending,
  kDescending,
  kDuplicateFlood,
  kSignFlipExtremes,
};

std::string PatternName(ValuePattern p) {
  switch (p) {
    case ValuePattern::kUniform:
      return "Uniform";
    case ValuePattern::kAscending:
      return "Ascending";
    case ValuePattern::kDescending:
      return "Descending";
    case ValuePattern::kDuplicateFlood:
      return "DuplicateFlood";
    case ValuePattern::kSignFlipExtremes:
      return "SignFlipExtremes";
  }
  return "Unknown";
}

double DrawValue(ValuePattern pattern, size_t step, Rng* rng) {
  switch (pattern) {
    case ValuePattern::kUniform:
      return rng->Uniform(-4.0, 4.0);
    case ValuePattern::kAscending:
      return static_cast<double>(step) + rng->Uniform() * 0.25;
    case ValuePattern::kDescending:
      return -static_cast<double>(step) - rng->Uniform() * 0.25;
    case ValuePattern::kDuplicateFlood:
      // Five distinct keys only: every insert lands among equal keys.
      return static_cast<double>(rng->UniformInt(5));
    case ValuePattern::kSignFlipExtremes:
      return (step % 2 == 0 ? 1.0 : -1.0) *
             (rng->Bernoulli(0.5) ? 1e300 : 1e-300);
  }
  return 0.0;
}

class BoardFuzzTest : public ::testing::TestWithParam<ValuePattern> {};

// Phase 1: PublicBoard end to end at tiny capacities, checked after every
// single record while the stream crosses the boundary — the first
// replacement, the steady state, and a mid-stream Clear + refill. A plain
// reservoir mirror driven by an Rng of the same seed makes the identical
// replacement decisions, so the board must match it in slot order, not
// just as a multiset.
TEST_P(BoardFuzzTest, PublicBoardAtReservoirBoundaryMatchesSortedOracle) {
  const ValuePattern pattern = GetParam();
  SCOPED_TRACE(PatternName(pattern));
  const int ops = FuzzOps(900);
  const int clear_at = ops / 2;
  for (size_t capacity : {1u, 2u, 3u, 7u, 64u}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    const uint64_t seed = capacity * 31 + 7;
    PublicBoard board(capacity, seed);
    std::vector<double> reservoir;
    size_t reservoir_total = 0;
    Rng reservoir_rng(seed);
    Rng rng(500 + capacity);
    size_t step = 0;
    for (int op = 0; op < ops; ++op) {
      if (op == clear_at) {
        board.Clear();
        reservoir.clear();
        reservoir_total = 0;
        EXPECT_EQ(board.size(), 0u);
      }
      double v = DrawValue(pattern, step++, &rng);
      board.RecordOne(v);
      ++reservoir_total;
      if (reservoir.size() < capacity) {
        reservoir.push_back(v);
      } else {
        uint64_t j = reservoir_rng.UniformInt(reservoir_total);
        if (j < capacity) reservoir[static_cast<size_t>(j)] = v;
      }
      ASSERT_LE(board.size(), capacity);
      ASSERT_EQ(board.values(), reservoir);  // same reservoir decisions
      std::vector<double> sorted = board.values();
      std::sort(sorted.begin(), sorted.end());
      double q = rng.Uniform();
      const double want_q = QuantileSorted(sorted, q);
      ASSERT_TRUE(BitEqual(board.Quantile(q).ValueOrDie(), want_q));
      ASSERT_TRUE(BitEqual(board.Quantile(0.0).ValueOrDie(), sorted.front()));
      ASSERT_TRUE(BitEqual(board.Quantile(1.0).ValueOrDie(), sorted.back()));
      double x = sorted[rng.UniformInt(sorted.size())];
      const double want_x = PercentileRankSorted(sorted, x);
      ASSERT_TRUE(BitEqual(board.PercentileRank(x), want_x));
      ASSERT_TRUE(BitEqual(board.PercentileRank(x - 0.5),
                           PercentileRankSorted(sorted, x - 0.5)));
    }
    // The reservoir really did engage: far more arrived than is held.
    EXPECT_EQ(board.size(),
              std::min<size_t>(capacity, static_cast<size_t>(clear_at)));
    EXPECT_EQ(board.total_recorded(), static_cast<size_t>(clear_at));
  }
}

// Phase 2: Save/Restore inside the reservoir stream. At random points the
// bounded board is snapshotted and restored into a fresh board of the same
// capacity (constructed under another seed, so the reservoir Rng must come
// from the snapshot); both then keep recording the same values, so the
// restored sorted array must track the original through the reservoir's
// replacement churn.
TEST_P(BoardFuzzTest, SaveRestoreMidReservoirStreamStaysBitIdentical) {
  const ValuePattern pattern = GetParam();
  SCOPED_TRACE(PatternName(pattern));
  const int ops = FuzzOps(900);
  for (size_t capacity : {1u, 2u, 3u, 7u, 64u, 200u}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    PublicBoard original(capacity, capacity * 13 + 5);
    std::unique_ptr<PublicBoard> restored;
    Rng rng(700 + capacity);
    size_t step = 0;
    int restores = 0;
    for (int op = 0; op < ops; ++op) {
      if (rng.Bernoulli(0.02) || op == ops / 3) {
        restored = std::make_unique<PublicBoard>(capacity, 99);
        ASSERT_TRUE(restored->Restore(original.Save()).ok());
        ++restores;
      }
      const double v = DrawValue(pattern, step++, &rng);
      original.RecordOne(v);
      if (restored == nullptr) continue;
      restored->RecordOne(v);
      ASSERT_EQ(restored->total_recorded(), original.total_recorded());
      const std::vector<double>& a = original.values();
      const std::vector<double>& b = restored->values();
      ASSERT_EQ(a.size(), b.size());
      for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_TRUE(BitEqual(a[i], b[i])) << "slot " << i;
      }
      for (double q : {0.0, 0.25, 0.5, 0.9, 1.0, rng.Uniform()}) {
        ASSERT_TRUE(BitEqual(original.Quantile(q).ValueOrDie(),
                             restored->Quantile(q).ValueOrDie()))
            << "q=" << q;
      }
      for (double x : {a[rng.UniformInt(a.size())], v, v - 0.5, v + 0.5}) {
        ASSERT_TRUE(
            BitEqual(original.PercentileRank(x), restored->PercentileRank(x)))
            << "x=" << x;
      }
    }
    EXPECT_GE(restores, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, BoardFuzzTest,
    ::testing::Values(ValuePattern::kUniform, ValuePattern::kAscending,
                      ValuePattern::kDescending,
                      ValuePattern::kDuplicateFlood,
                      ValuePattern::kSignFlipExtremes),
    [](const auto& info) { return PatternName(info.param); });

}  // namespace
}  // namespace itrim
