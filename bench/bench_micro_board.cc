// Microbench + exactness harness for the PublicBoard order statistics.
//
// The seed PublicBoard re-sorted its entire reservoir to answer the first
// Quantile()/PercentileRank() after any record — O(n log n) per touched
// query under a streaming record/query mix. The flat B-tree board makes
// both O(log n) with contiguous sorted leaves and a flat Fenwick index.
// This binary
//
//   1. replays randomized record/query/clear sequences (including the
//      reservoir-capacity replacement path) against a replica of the seed
//      sort-on-invalidation board, which answers through the sorted oracle,
//      and asserts the flat board agrees with it bit for bit, and
//   2. times the interleaved record+query workload on both at board size
//      >= 100k, asserting (non-smoke) the flat board is >= 10x faster per
//      query than the seed board.
//
// `--smoke` runs the exactness phase plus a scaled-down timing comparison
// without the speedup assertions (CI-friendly); it is registered with
// ctest as bench/bench_micro_board_smoke. The CI perf-gate job runs the
// full (non-smoke) binary so the in-binary speedup floor enforces the
// flat-board win on every PR, alongside the bench_gate.py throughput
// comparison against bench/baselines/BENCH_micro_board.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "game/public_board.h"
#include "stats/quantile.h"

#include "bench/env.h"
#include "bench/flags.h"
#include "bench/reporter.h"

namespace itrim {
namespace {

// Replica of the seed PublicBoard: sort-cache invalidated by every record,
// rebuilt by the next query. Kept bit-compatible with the seed
// implementation (same reservoir stream, same sorted-oracle queries) so it
// doubles as the exactness oracle. tests/game/session_test.cc carries its
// own copy of this frozen transcription — both are snapshots of the seed
// code and must never diverge from it (or each other).
class LegacySortBoard {
 public:
  explicit LegacySortBoard(size_t capacity, uint64_t seed)
      : capacity_(capacity), rng_(seed) {}

  void RecordOne(double value) {
    ++total_recorded_;
    if (capacity_ == 0 || values_.size() < capacity_) {
      values_.push_back(value);
    } else {
      size_t j = static_cast<size_t>(rng_.UniformInt(total_recorded_));
      if (j < capacity_) values_[j] = value;
    }
    cache_valid_ = false;
  }

  Result<double> Quantile(double q) const {
    if (values_.empty()) {
      return Status::FailedPrecondition("public board is empty");
    }
    EnsureSorted();
    return QuantileSorted(sorted_cache_, q);
  }

  double PercentileRank(double x) const {
    if (values_.empty()) return 0.0;
    EnsureSorted();
    return PercentileRankSorted(sorted_cache_, x);
  }

  void Clear() {
    values_.clear();
    sorted_cache_.clear();
    cache_valid_ = false;
    total_recorded_ = 0;
  }

  size_t size() const { return values_.size(); }

 private:
  void EnsureSorted() const {
    if (cache_valid_) return;
    sorted_cache_ = values_;
    std::sort(sorted_cache_.begin(), sorted_cache_.end());
    cache_valid_ = true;
  }

  size_t capacity_;
  size_t total_recorded_ = 0;
  Rng rng_;
  std::vector<double> values_;
  mutable std::vector<double> sorted_cache_;
  mutable bool cache_valid_ = false;
};

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Randomized exactness sweep: both boards see the identical op stream; any
// query divergence is a flat-board bug.
int RunExactness(size_t ops) {
  struct Case {
    size_t capacity;
    const char* label;
  };
  // The cap is far below the typical size between clears so the reservoir
  // replacement path (erase old slot value, insert new) is exercised.
  const Case cases[] = {{0, "unbounded"}, {64, "reservoir-capped"}};
  for (const Case& c : cases) {
    PublicBoard flat(c.capacity, /*seed=*/99);
    LegacySortBoard legacy(c.capacity, /*seed=*/99);
    Rng rng(4242);
    size_t checked = 0;
    for (size_t i = 0; i < ops; ++i) {
      double roll = rng.Uniform();
      if (roll < 0.70) {
        // Heavy-tailed values, with occasional exact duplicates to stress
        // the multiset paths.
        double v = rng.Uniform(-5.0, 5.0);
        if (rng.Bernoulli(0.2)) v = std::floor(v);
        flat.RecordOne(v);
        legacy.RecordOne(v);
      } else if (roll < 0.995) {
        double q = rng.Uniform();
        auto want = legacy.Quantile(q);
        auto got = flat.Quantile(q);
        if (got.ok() != want.ok() || (got.ok() && !BitEqual(*got, *want))) {
          std::fprintf(stderr,
                       "FAIL[%s]: Quantile(%.17g) diverged at op %zu\n",
                       c.label, q, i);
          return 1;
        }
        double x = rng.Uniform(-6.0, 6.0);
        if (!BitEqual(flat.PercentileRank(x), legacy.PercentileRank(x))) {
          std::fprintf(stderr,
                       "FAIL[%s]: PercentileRank(%.17g) diverged at op %zu\n",
                       c.label, x, i);
          return 1;
        }
        ++checked;
      } else {
        flat.Clear();
        legacy.Clear();
      }
    }
    std::printf("exactness[%s]: %zu interleaved queries bit-identical "
                "across legacy/flat (final size %zu)\n",
                c.label, checked, flat.size());
  }
  return 0;
}

struct Timing {
  double per_query_us = 0.0;
  double checksum = 0.0;
};

// Interleaved workload: each iteration records one value then answers one
// Quantile + one PercentileRank — the streaming pattern the seed board
// degrades on (every query pays a full re-sort).
template <typename Board>
Timing TimeInterleaved(Board* board, size_t prefill, size_t iterations) {
  Rng rng(7);
  for (size_t i = 0; i < prefill; ++i) board->RecordOne(rng.Uniform());
  Timing t;
  auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < iterations; ++i) {
    board->RecordOne(rng.Uniform());
    t.checksum += *board->Quantile(rng.Uniform());
    t.checksum += board->PercentileRank(rng.Uniform());
  }
  auto stop = std::chrono::steady_clock::now();
  t.per_query_us =
      std::chrono::duration<double, std::micro>(stop - start).count() /
      static_cast<double>(2 * iterations);
  return t;
}

}  // namespace
}  // namespace itrim

int main(int argc, char** argv) {
  using namespace itrim;
  const bench::BenchFlags flags = bench::ParseFlags(argc, argv);
  bench::BenchReporter reporter("micro_board", flags);
  const bool smoke = flags.smoke;
  const size_t exact_ops = static_cast<size_t>(
      bench::EnvInt("ITRIM_BENCH_OPS", smoke ? 4000 : 20000));
  if (RunExactness(exact_ops) != 0) return 1;
  reporter.AddCase("exactness_vs_sorted_oracle").Ok();

  const size_t board_size = smoke ? 20000 : 100000;
  // The flat board answers queries ~1e4x faster than the seed board at
  // this size, so it gets a much larger iteration budget for a stable
  // per-query figure; the seed board's budget keeps its full re-sorts
  // bearable. A short flat run over the seed board's exact stream
  // cross-checks the timed workloads bit for bit.
  const size_t legacy_iterations = static_cast<size_t>(
      bench::EnvInt("ITRIM_BENCH_QUERIES", smoke ? 20 : 60));
  const size_t fast_iterations = static_cast<size_t>(
      bench::EnvInt("ITRIM_BENCH_FAST_QUERIES", smoke ? 4000 : 40000));

  PublicBoard flat(/*capacity=*/0, /*seed=*/1);
  LegacySortBoard legacy(/*capacity=*/0, /*seed=*/1);
  Timing tf = TimeInterleaved(&flat, board_size, fast_iterations);
  Timing tl = TimeInterleaved(&legacy, board_size, legacy_iterations);
  PublicBoard flat_short(/*capacity=*/0, /*seed=*/1);
  Timing ts = TimeInterleaved(&flat_short, board_size, legacy_iterations);
  if (!BitEqual(ts.checksum, tl.checksum)) {
    std::fprintf(stderr,
                 "FAIL: flat/legacy timed workloads diverged (%.17g vs "
                 "%.17g)\n",
                 ts.checksum, tl.checksum);
    return 1;
  }

  const double speedup_vs_legacy = tl.per_query_us / tf.per_query_us;
  std::printf("\nboard size %zu, mixed record+query workload:\n", board_size);
  std::printf("  %-28s %10.3f us/query  (%zu iterations)\n",
              "seed sort-on-invalidation:", tl.per_query_us,
              legacy_iterations);
  std::printf("  %-28s %10.3f us/query  (%zu iterations)\n",
              "flat board:", tf.per_query_us, fast_iterations);
  std::printf("  flat vs legacy: %.1fx\n", speedup_vs_legacy);

  const uint64_t fast_queries = static_cast<uint64_t>(2 * fast_iterations);
  const uint64_t legacy_queries =
      static_cast<uint64_t>(2 * legacy_iterations);
  reporter.AddCase("flat_interleaved")
      .Iterations(static_cast<uint64_t>(fast_iterations))
      .Ops(fast_queries)
      .WallMs(tf.per_query_us * static_cast<double>(fast_queries) / 1e3)
      .Counter("board_size", static_cast<double>(board_size))
      .Counter("speedup_vs_legacy", speedup_vs_legacy);
  reporter.AddCase("legacy_interleaved")
      .Iterations(static_cast<uint64_t>(legacy_iterations))
      .Ops(legacy_queries)
      .WallMs(tl.per_query_us * static_cast<double>(legacy_queries) / 1e3)
      .Counter("board_size", static_cast<double>(board_size));
  if (!smoke && speedup_vs_legacy < 10.0) {
    std::fprintf(stderr,
                 "FAIL: expected >= 10x per-query speedup over the seed "
                 "board at size %zu, got %.1fx\n",
                 board_size, speedup_vs_legacy);
    return 1;
  }
  return reporter.WriteJson().ok() ? 0 : 1;
}
