#include "game/public_board.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "data/generators.h"
#include "game/score_model.h"
#include "game/session.h"
#include "game/strategies.h"
#include "stats/quantile.h"

#include "game/summary_test_util.h"

namespace itrim {
namespace {

TEST(PublicBoardTest, EmptyQuantileFails) {
  PublicBoard board;
  EXPECT_FALSE(board.Quantile(0.5).ok());
  EXPECT_EQ(board.Quantile(0.5).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(PublicBoardTest, RecordsAndQueries) {
  PublicBoard board;
  board.Record({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(board.size(), 4u);
  EXPECT_EQ(board.total_recorded(), 4u);
  EXPECT_DOUBLE_EQ(board.Quantile(0.5).ValueOrDie(), 2.5);
}

TEST(PublicBoardTest, PercentileRank) {
  PublicBoard board;
  board.Record({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(board.PercentileRank(2.5), 0.5);
  EXPECT_DOUBLE_EQ(board.PercentileRank(0.0), 0.0);
  EXPECT_DOUBLE_EQ(board.PercentileRank(10.0), 1.0);
}

TEST(PublicBoardTest, QuantileUpdatesWithNewData) {
  PublicBoard board;
  board.Record({0.0, 1.0});
  double q_before = board.Quantile(0.9).ValueOrDie();
  board.Record({10.0, 11.0, 12.0});
  double q_after = board.Quantile(0.9).ValueOrDie();
  EXPECT_GT(q_after, q_before);
}

TEST(PublicBoardTest, CapacityBoundsMemory) {
  PublicBoard board(100, 1);
  for (int i = 0; i < 10000; ++i) board.RecordOne(static_cast<double>(i));
  EXPECT_EQ(board.size(), 100u);
  EXPECT_EQ(board.total_recorded(), 10000u);
}

TEST(PublicBoardTest, ReservoirIsApproximatelyUnbiased) {
  // With uniform input, the capped board's median should track the stream
  // median.
  PublicBoard board(500, 2);
  Rng rng(9);
  for (int i = 0; i < 50000; ++i) board.RecordOne(rng.Uniform());
  EXPECT_NEAR(board.Quantile(0.5).ValueOrDie(), 0.5, 0.08);
  EXPECT_NEAR(board.Quantile(0.9).ValueOrDie(), 0.9, 0.08);
}

TEST(PublicBoardTest, ClearResets) {
  PublicBoard board;
  board.Record({1.0, 2.0});
  board.Clear();
  EXPECT_EQ(board.size(), 0u);
  EXPECT_EQ(board.total_recorded(), 0u);
  EXPECT_FALSE(board.Quantile(0.5).ok());
}

TEST(PublicBoardTest, QuantileCacheInvalidatedByRecord) {
  PublicBoard board;
  board.Record({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(board.Quantile(1.0).ValueOrDie(), 3.0);
  board.RecordOne(100.0);
  EXPECT_DOUBLE_EQ(board.Quantile(1.0).ValueOrDie(), 100.0);
}

TEST(PublicBoardTest, UnboundedWhenCapacityZero) {
  PublicBoard board(0, 3);
  for (int i = 0; i < 5000; ++i) board.RecordOne(static_cast<double>(i));
  EXPECT_EQ(board.size(), 5000u);
}

// std::upper_bound(sorted, NaN) returns end(): every comparison NaN < v is
// false, so a NaN probe ranks above everything.
TEST(PublicBoardTest, NanProbeRanksOne) {
  PublicBoard board;
  board.Record({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(board.PercentileRank(std::nan("")), 1.0);
}

TEST(PublicBoardTest, DuplicatesCountedIndividually) {
  PublicBoard board;
  board.Record({2.0, 2.0, 2.0, 1.0});
  EXPECT_EQ(board.size(), 4u);
  EXPECT_DOUBLE_EQ(board.PercentileRank(2.0), 1.0);
  EXPECT_DOUBLE_EQ(board.PercentileRank(1.5), 0.25);
  EXPECT_DOUBLE_EQ(board.Quantile(0.0).ValueOrDie(), 1.0);
  EXPECT_DOUBLE_EQ(board.Quantile(0.5).ValueOrDie(), 2.0);

  // Reservoir replacements erase one instance of a duplicated key, never
  // all of them.
  PublicBoard capped(/*capacity=*/3, /*seed=*/5);
  capped.Record({2.0, 2.0, 2.0});
  for (int i = 0; i < 40; ++i) capped.RecordOne(7.0);
  std::vector<double> sorted = capped.values();
  std::sort(sorted.begin(), sorted.end());
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_TRUE(BitEqual(capped.PercentileRank(2.0),
                       PercentileRankSorted(sorted, 2.0)));
  EXPECT_TRUE(BitEqual(capped.PercentileRank(7.0), 1.0));
}

// The board answers through the sorted oracle itself, so quantiles and
// ranks agree with it bit for bit, duplicates and interpolation included.
TEST(PublicBoardTest, QuantileMatchesSortedOracleExactly) {
  PublicBoard board;
  std::vector<double> values;
  Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    double v = rng.Uniform(-3.0, 3.0);
    if (rng.Bernoulli(0.25)) v = std::round(v);  // duplicates
    board.RecordOne(v);
    values.push_back(v);
  }
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (double q : {0.0, 0.001, 0.1, 0.25, 0.5, 0.9, 0.95, 0.999, 1.0}) {
    EXPECT_TRUE(BitEqual(board.Quantile(q).ValueOrDie(),
                         QuantileSorted(sorted, q)))
        << "q=" << q;
  }
  for (int i = 0; i < 50; ++i) {
    double x = rng.Uniform(-4.0, 4.0);
    EXPECT_TRUE(BitEqual(board.PercentileRank(x),
                         PercentileRankSorted(sorted, x)))
        << "x=" << x;
  }
}

// A NaN could never be erased again by a reservoir replacement, so a
// snapshot holding one is refused and the board keeps what it held.
TEST(PublicBoardTest, RestoreRejectsNanSnapshot) {
  PublicBoard source;
  source.Record({1.0, 2.0, 3.0});
  PublicBoard::Snapshot snapshot = source.Save();
  snapshot.values[1] = std::nan("");

  PublicBoard board(/*capacity=*/8, /*seed=*/3);
  board.RecordOne(0.25);
  EXPECT_EQ(board.Restore(snapshot).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(board.size(), 1u);
  EXPECT_EQ(board.total_recorded(), 1u);
  EXPECT_EQ(board.Quantile(0.5).ValueOrDie(), 0.25);
}

// The score models refuse a NaN score at bootstrap instead of recording it.
TEST(PublicBoardTest, BootstrapRejectsNanScalarPool) {
  const std::vector<double> pool = {std::nan("")};
  IdentityScoreModel model(&pool);
  ASSERT_TRUE(model.BeginRun().ok());
  Rng rng(3);
  PublicBoard board;
  EXPECT_EQ(model.Bootstrap(40, &rng, &board).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(board.size(), 0u);
}

TEST(PublicBoardTest, BootstrapRejectsDistanceSourceWithNanRow) {
  // Two rows, so the 60-row calibration sample surely draws the NaN one.
  Dataset data = MakeControl(41, 1);
  data.rows.resize(2);
  data.labels.resize(2);
  data.rows[1][0] = std::nan("");
  DistanceScoreModel model(&data);
  ASSERT_TRUE(model.BeginRun().ok());
  Rng rng(3);
  PublicBoard board;
  EXPECT_EQ(model.Bootstrap(60, &rng, &board).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(board.size(), 0u);
}

// A snapshot holding more values than the target board's configured
// capacity is rejected with InvalidArgument and leaves the target untouched.
TEST(PublicBoardTest, RestoreRejectsOverCapacitySnapshot) {
  PublicBoard big(/*capacity=*/0, /*seed=*/3);
  Rng rng(21);
  for (int i = 0; i < 80; ++i) big.RecordOne(rng.Uniform());
  PublicBoard::Snapshot snapshot = big.Save();

  PublicBoard small(/*capacity=*/50, /*seed=*/3);
  small.RecordOne(0.25);
  Status status = small.Restore(snapshot);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(small.size(), 1u);
  EXPECT_EQ(small.total_recorded(), 1u);
  EXPECT_EQ(small.Quantile(0.5).ValueOrDie(), 0.25);
}

// Session restore propagates the board's capacity-mismatch error instead
// of silently truncating the record.
TEST(PublicBoardTest, SessionRestoreSurfacesBoardCapacityMismatch) {
  Dataset data = MakeControl(41, 100);
  GameConfig config;
  config.rounds = 6;
  config.round_size = 100;
  config.attack_ratio = 0.25;
  config.board_capacity = 0;  // unbounded source: board grows past 500
  config.seed = 13;
  TitfortatCollector collector(+0.01, -0.03, 0.9);
  ElasticAdversary adversary(0.5);
  DistanceScoreModel model(&data);
  TrimmingSession session(config, &model, &collector, &adversary, nullptr);
  ASSERT_TRUE(session.Bootstrap().ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(session.Step().ok());
  SessionCheckpoint checkpoint = session.Checkpoint();
  ASSERT_GT(checkpoint.board.values.size(), 100u);

  GameConfig small_config = config;
  small_config.board_capacity = 100;
  TitfortatCollector c2(+0.01, -0.03, 0.9);
  ElasticAdversary a2(0.5);
  DistanceScoreModel m2(&data);
  TrimmingSession target(small_config, &m2, &c2, &a2, nullptr);
  Status status = target.Restore(checkpoint);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace itrim
