// Regression-poisoning workload benchmark and quality gate.
//
// Three phases:
//
//   1. Batch defense sweep, two attack arms per contamination level eps:
//      * blatant (flip-and-shift, shift >> noise): poison is separable,
//        both Trim variants recover the clean fit; iTrim's epsilon
//        estimate is gated to within one grid step of the planted
//        fraction here.
//      * evasive (one-sided drag, shift = 3 sigma of the noise): the
//        poison sits just outside the noise band and pulls the fit one
//        way, so a single trimmed refit ranks rows under a dragged model
//        while iterating re-ranks under progressively cleaner fits. The
//        in-binary gate holds the paper's headline on this arm: summed
//        over the grid (several seeds per cell), iterative Trim's
//        clean-subset MSE (the fitted model evaluated on the clean rows)
//        beats one-shot's.
//   2. Interactive play: a TrimmingSession over ResidualScoreModel with
//      the FittedModelReference policy, against both the blatant
//      flip-and-shift adversary and the evasive boundary-walking one.
//      Reports the recovered model's clean MSE and the poison kept/seen
//      books; gated on recovering a model no worse than the undefended
//      batch fit at the same contamination.
//   3. Steady-state throughput of the residual session hot path (batched
//      kernel scoring + per-round refit-and-reselect inside the fitted
//      reference), with the zero-allocation contract asserted on the
//      timed region: session/steady_state (100-row rounds, elastic
//      collector, which rarely refits) and session/refit_steady_state
//      (500-row rounds trimmed every round; gated in-binary on at least one
//      refit iteration per round).
//
// `--smoke` shrinks every phase and is registered with ctest as
// bench/bench_regression_smoke; the CI perf gate holds the smoke numbers
// against bench/baselines/BENCH_regression.json.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/alloc_counter.h"
#include "bench/flags.h"
#include "bench/reporter.h"
#include "common/rng.h"
#include "game/reference_policy.h"
#include "game/session.h"
#include "game/strategies.h"
#include "ml/linreg.h"
#include "ml/residual_score_model.h"

namespace itrim {
namespace {

// Mean squared error of `model` over the first `clean` rows of `data` —
// the clean-subset quality metric every arm is scored on.
double CleanMse(const LinearModel& model, const RegressionData& data,
                size_t clean) {
  double sum = 0.0;
  for (size_t i = 0; i < clean; ++i) {
    const double* x = data.xs.data() + i * data.dims;
    const double r = data.ys[i] - model.Predict({x, data.dims});
    sum += r * r;
  }
  return sum / static_cast<double>(clean);
}

// The evasive batch attack: poison rows reuse clean feature rows but push
// the response consistently one way by `shift` — the mirror of what the
// boundary-walking session adversary does per round. Unlike the symmetric
// flip-and-shift (whose flips cancel in the least-squares fit), the drag
// biases every refit, which is exactly the regime that separates one-shot
// from iterative Trim.
size_t DragPoison(RegressionData* data, const LinearModel& reference,
                  double eps, double shift, Rng* rng) {
  const size_t clean = data->size();
  const size_t count =
      static_cast<size_t>(std::floor(eps * static_cast<double>(clean)));
  data->xs.reserve((clean + count) * data->dims);
  data->ys.reserve(clean + count);
  for (size_t k = 0; k < count; ++k) {
    const size_t donor = rng->UniformInt(clean);
    const auto row = data->xs.begin() +
                     static_cast<std::ptrdiff_t>(donor * data->dims);
    std::vector<double> copy(row, row + static_cast<std::ptrdiff_t>(
                                            data->dims));
    const double yhat = reference.Predict({copy.data(), data->dims});
    data->xs.insert(data->xs.end(), copy.begin(), copy.end());
    data->ys.push_back(yhat + shift);
  }
  return count;
}

struct SweepArm {
  double mse_none = 0.0;
  double mse_one_shot = 0.0;
  double mse_iterative = 0.0;
  double eps_hat = -1.0;
  int iterations = 0;
  bool ok = false;
};

// One contamination level of the blatant (flip-and-shift) sweep.
SweepArm RunSweepArm(size_t n, double eps, double shift, uint64_t seed) {
  SweepArm arm;
  RegressionData data = MakeSyntheticRegression(n, 3, /*noise=*/0.05, seed);
  const size_t clean = data.size();
  LinearRegressor regressor;
  LinearModel reference;
  if (!regressor.FitClosedForm(data.xs, data.ys, data.dims, &reference).ok()) {
    return arm;
  }
  Rng poison_rng(seed ^ 0x5EEDULL);
  FlipShiftPoison(&data, reference, eps, shift, &poison_rng);

  LinearModel undefended;
  if (!regressor.FitClosedForm(data.xs, data.ys, data.dims, &undefended)
           .ok()) {
    return arm;
  }
  arm.mse_none = CleanMse(undefended, data, clean);

  TrimOptions one_shot;
  one_shot.eps_hat = eps;
  one_shot.max_iters = 1;
  TrimOptions iterative = one_shot;
  iterative.max_iters = 20;
  // Same seed: the iterative run continues exactly where one-shot stopped.
  Rng rng_one(seed * 31), rng_iter(seed * 31);
  auto one = TrimDefense(data, one_shot, &rng_one);
  auto iter = TrimDefense(data, iterative, &rng_iter);
  if (!one.ok() || !iter.ok()) return arm;
  arm.mse_one_shot = CleanMse(one.ValueOrDie().model, data, clean);
  arm.mse_iterative = CleanMse(iter.ValueOrDie().model, data, clean);
  arm.iterations = iter.ValueOrDie().iterations;

  ITrimOptions itrim_options;
  Rng rng_itrim(seed * 13);
  auto itrim = ITrimDefense(data, itrim_options, &rng_itrim);
  if (!itrim.ok()) return arm;
  arm.eps_hat = itrim.ValueOrDie().eps_hat;
  arm.ok = true;
  return arm;
}

struct EvasiveArm {
  double mean_one_shot = 0.0;
  double mean_iterative = 0.0;
  bool ok = false;
};

// One contamination level of the evasive (drag) sweep, averaged over
// `seeds` independent tasks: per-seed outcomes are noisy (the initial
// subset is random), the means are what the headline gate compares.
EvasiveArm RunEvasiveArm(size_t n, double eps, double shift, int seeds) {
  EvasiveArm arm;
  double sum_one = 0.0, sum_iter = 0.0;
  for (int s = 1; s <= seeds; ++s) {
    const uint64_t seed = static_cast<uint64_t>(s) * 977 +
                          static_cast<uint64_t>(eps * 1000.0);
    RegressionData data = MakeSyntheticRegression(n, 3, /*noise=*/0.05, seed);
    const size_t clean = data.size();
    LinearRegressor regressor;
    LinearModel reference;
    if (!regressor.FitClosedForm(data.xs, data.ys, data.dims, &reference)
             .ok()) {
      return arm;
    }
    Rng poison_rng(seed ^ 0x5EEDULL);
    DragPoison(&data, reference, eps, shift, &poison_rng);

    TrimOptions one_shot;
    one_shot.eps_hat = eps;
    one_shot.max_iters = 1;
    TrimOptions iterative = one_shot;
    iterative.max_iters = 20;
    Rng rng_one(seed * 31), rng_iter(seed * 31);
    auto one = TrimDefense(data, one_shot, &rng_one);
    auto iter = TrimDefense(data, iterative, &rng_iter);
    if (!one.ok() || !iter.ok()) return arm;
    sum_one += CleanMse(one.ValueOrDie().model, data, clean);
    sum_iter += CleanMse(iter.ValueOrDie().model, data, clean);
  }
  arm.mean_one_shot = sum_one / seeds;
  arm.mean_iterative = sum_iter / seeds;
  arm.ok = true;
  return arm;
}

struct PlayResult {
  double clean_mse = 0.0;
  uint64_t poison_seen = 0;
  uint64_t poison_kept = 0;
  uint64_t benign_kept = 0;
  double wall_ms = 0.0;
  bool ok = false;
};

// Phase 2: interactive play under a live adversary. The model retains its
// survivors; the recovered model is the closed-form fit over everything
// the defense let through.
PlayResult RunInteractive(const RegressionData& source, int rounds,
                          AdversaryStrategy* adversary, uint64_t seed) {
  PlayResult result;
  GameConfig config;
  config.rounds = rounds;
  config.round_size = 80;
  config.attack_ratio = 0.15;
  config.bootstrap_size = 160;
  config.board_capacity = 1024;
  config.seed = seed;

  ResidualScoreModel model(&source, PoisonShape::kFlipShift);
  ElasticCollector collector(0.5);
  FittedModelReference policy;
  TrimmingSession session(config, &model, &collector, adversary, nullptr,
                          &policy);
  const auto start = std::chrono::steady_clock::now();
  if (!session.Bootstrap().ok() || !session.RunToCompletion().ok()) {
    return result;
  }
  const auto stop = std::chrono::steady_clock::now();
  result.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  const GameSummary summary = session.Finish();
  for (const RoundRecord& round : summary.rounds) {
    result.poison_seen += round.poison_received;
    result.poison_kept += round.poison_kept;
    result.benign_kept += round.benign_kept;
  }

  const RegressionData& kept = model.retained_data();
  LinearRegressor regressor;
  LinearModel recovered;
  if (!regressor.FitClosedForm(kept.xs, kept.ys, kept.dims, &recovered)
           .ok()) {
    return result;
  }
  result.clean_mse = CleanMse(recovered, source, source.size());
  result.ok = true;
  return result;
}

struct ThroughputResult {
  double wall_ms = 0.0;
  uint64_t reports = 0;
  int rounds = 0;
  uint64_t allocations = 0;
  uint64_t refit_iterations = 0;
  bool ok = false;
};

// Phase 3: steady-state rounds of the residual hot path, timed after a
// warmup so scratch growth stays outside the measurement.
ThroughputResult RunThroughput(const RegressionData& source, int rounds,
                               size_t round_size, size_t bootstrap_size,
                               size_t board_capacity,
                               CollectorStrategy* collector) {
  ThroughputResult result;
  const int warmup = 40;
  GameConfig config;
  config.rounds = rounds + warmup;
  config.round_size = round_size;
  config.attack_ratio = 0.15;
  config.bootstrap_size = bootstrap_size;
  config.board_capacity = board_capacity;
  config.seed = 1213;

  ResidualScoreModel model(&source, PoisonShape::kFlipShift);
  model.set_retain_survivors(false);  // streaming shape
  FlipShiftAdversary adversary;
  FittedModelReference policy;
  TrimmingSession session(config, &model, collector, &adversary, nullptr,
                          &policy);
  if (!session.Bootstrap().ok()) return result;
  for (int r = 0; r < warmup; ++r) {
    if (!session.Step().ok()) return result;
  }
  bench::AllocCounts before = bench::ThreadAllocCounts();
  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) {
    auto record = session.Step();
    if (!record.ok()) return result;
    result.reports += record.ValueOrDie().benign_received +
                      record.ValueOrDie().poison_received;
    // The policy only runs (and resets its count) on rounds trimmed below
    // the keep-all threshold.
    if (record.ValueOrDie().collector_percentile < 1.0) {
      result.refit_iterations +=
          static_cast<uint64_t>(policy.last_refit_iterations());
    }
  }
  const auto stop = std::chrono::steady_clock::now();
  result.allocations = (bench::ThreadAllocCounts() - before).allocations;
  result.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  result.rounds = rounds;
  result.ok = true;
  return result;
}

}  // namespace
}  // namespace itrim

int main(int argc, char** argv) {
  using namespace itrim;
  const bench::BenchFlags flags = bench::ParseFlags(argc, argv);
  const bool smoke = flags.smoke;
  bench::BenchReporter reporter("regression", flags);

  // Phase 1: the contamination sweep. The grid is identical in smoke and
  // full mode (the nightly strict gate matches case names against the
  // smoke baseline); smoke only shrinks the task sizes.
  const std::vector<double> grid = {0.04, 0.08, 0.12, 0.16, 0.20};
  const double kStep = 0.02;

  // Blatant arm: the trim separates poison cleanly; this is where iTrim's
  // loss knick must land on the planted fraction.
  const size_t blatant_n = smoke ? 500 : 2000;
  for (double eps : grid) {
    const uint64_t seed = 1000 + static_cast<uint64_t>(eps * 1000.0);
    SweepArm arm = RunSweepArm(blatant_n, eps, /*shift=*/6.0, seed);
    if (!arm.ok) {
      std::fprintf(stderr, "FAIL: blatant arm eps=%.2f did not complete\n",
                   eps);
      return 1;
    }
    std::printf(
        "blatant eps=%.2f: clean MSE none %.4f | one-shot %.4f | "
        "iterative %.4f (%d iters) | iTrim eps_hat %.2f\n",
        eps, arm.mse_none, arm.mse_one_shot, arm.mse_iterative,
        arm.iterations, arm.eps_hat);
    char name[64];
    std::snprintf(name, sizeof(name), "sweep/blatant_eps_%02d",
                  static_cast<int>(eps * 100.0 + 0.5));
    reporter.AddCase(name)
        .Ok()
        .Counter("mse_none", arm.mse_none)
        .Counter("mse_one_shot", arm.mse_one_shot)
        .Counter("mse_iterative", arm.mse_iterative)
        .Counter("itrim_eps_hat", arm.eps_hat)
        .Counter("iterations", static_cast<double>(arm.iterations));
    if (std::fabs(arm.eps_hat - eps) > kStep + 1e-9) {
      std::fprintf(stderr,
                   "FAIL: eps=%.2f iTrim estimated %.2f (off by more than "
                   "one grid step)\n",
                   eps, arm.eps_hat);
      return 1;
    }
  }

  // Evasive arm: the one-vs-iterative headline. Per-seed outcomes are
  // noisy, so the gate compares the grid totals.
  const size_t evasive_n = smoke ? 200 : 400;
  const int evasive_seeds = 8;
  double total_one = 0.0, total_iter = 0.0;
  for (double eps : grid) {
    EvasiveArm arm =
        RunEvasiveArm(evasive_n, eps, /*shift=*/0.15, evasive_seeds);
    if (!arm.ok) {
      std::fprintf(stderr, "FAIL: evasive arm eps=%.2f did not complete\n",
                   eps);
      return 1;
    }
    std::printf(
        "evasive eps=%.2f: mean clean MSE one-shot %.5f | iterative %.5f "
        "(ratio %.3f over %d seeds)\n",
        eps, arm.mean_one_shot, arm.mean_iterative,
        arm.mean_iterative / arm.mean_one_shot, evasive_seeds);
    char name[64];
    std::snprintf(name, sizeof(name), "sweep/evasive_eps_%02d",
                  static_cast<int>(eps * 100.0 + 0.5));
    reporter.AddCase(name)
        .Ok()
        .Counter("mean_mse_one_shot", arm.mean_one_shot)
        .Counter("mean_mse_iterative", arm.mean_iterative);
    total_one += arm.mean_one_shot;
    total_iter += arm.mean_iterative;
  }
  std::printf("evasive total: iterative/one-shot clean-MSE ratio %.4f\n",
              total_iter / total_one);
  if (total_iter > total_one) {
    std::fprintf(stderr,
                 "FAIL: iterative Trim clean MSE %.6f did not beat "
                 "one-shot %.6f over the evasive grid\n",
                 total_iter, total_one);
    return 1;
  }

  // Phase 2: interactive play. The undefended batch fit at the session's
  // contamination level is the bar the defense must clear.
  RegressionData source =
      MakeSyntheticRegression(smoke ? 600 : 2000, 3, /*noise=*/0.05, 2024);
  SweepArm bar = RunSweepArm(smoke ? 600 : 2000, 0.15, 6.0, 2024);
  if (!bar.ok) {
    std::fprintf(stderr, "FAIL: interactive baseline arm failed\n");
    return 1;
  }
  const int play_rounds = smoke ? 8 : 40;
  FlipShiftAdversary blatant;
  OptimalRegressionAdversary evasive;
  struct Play {
    const char* label;
    AdversaryStrategy* adversary;
  };
  const Play plays[] = {{"flip_shift", &blatant}, {"optimal", &evasive}};
  for (const Play& play : plays) {
    PlayResult result = RunInteractive(source, play_rounds, play.adversary,
                                       3000 + play_rounds);
    if (!result.ok) {
      std::fprintf(stderr, "FAIL: interactive play (%s) failed\n",
                   play.label);
      return 1;
    }
    const double kept_frac =
        result.poison_seen > 0
            ? static_cast<double>(result.poison_kept) /
                  static_cast<double>(result.poison_seen)
            : 0.0;
    std::printf(
        "interactive %s: clean MSE %.4f (undefended bar %.4f), poison "
        "kept %llu/%llu (%.1f%%), %.1f ms\n",
        play.label, result.clean_mse, bar.mse_none,
        static_cast<unsigned long long>(result.poison_kept),
        static_cast<unsigned long long>(result.poison_seen),
        100.0 * kept_frac, result.wall_ms);
    reporter.AddCase(std::string("interactive/") + play.label)
        .Ok()
        .Counter("clean_mse", result.clean_mse)
        .Counter("undefended_mse", bar.mse_none)
        .Counter("poison_seen", static_cast<double>(result.poison_seen))
        .Counter("poison_kept", static_cast<double>(result.poison_kept))
        .Counter("benign_kept", static_cast<double>(result.benign_kept));
    if (result.clean_mse > bar.mse_none) {
      std::fprintf(stderr,
                   "FAIL: interactive %s recovered MSE %.4f worse than the "
                   "undefended batch fit %.4f\n",
                   play.label, result.clean_mse, bar.mse_none);
      return 1;
    }
  }

  // Phase 3: throughput + the zero-allocation steady state. The elastic
  // 100-row case is the residual session as a whole; the 500-row case at a
  // fixed 0.9 threshold trims every round, so every round runs the refit
  // loop at the paper's round size (the radix ordering path).
  ElasticCollector elastic(0.5);
  StaticCollector trim_every_round(0.9);
  struct ThroughputCase {
    const char* name;
    ThroughputResult result;
    bool needs_refits;
  };
  ThroughputCase cases[] = {
      {"session/steady_state",
       RunThroughput(source, smoke ? 300 : 1500, 100, 200, 512, &elastic),
       false},
      {"session/refit_steady_state",
       RunThroughput(source, smoke ? 200 : 1000, 500, 500, 4096,
                     &trim_every_round),
       true},
  };
  for (const ThroughputCase& c : cases) {
    const ThroughputResult& tp = c.result;
    if (!tp.ok) {
      std::fprintf(stderr, "FAIL: %s run failed\n", c.name);
      return 1;
    }
    const double rounds_per_sec =
        static_cast<double>(tp.rounds) / (tp.wall_ms / 1000.0);
    const double refits_per_round = static_cast<double>(tp.refit_iterations) /
                                    static_cast<double>(tp.rounds);
    std::printf(
        "%s: %d rounds in %.1f ms — %.0f rounds/s, %.0fk reports/s, "
        "%.2f refit iterations/round, %llu allocations in the timed region\n",
        c.name, tp.rounds, tp.wall_ms, rounds_per_sec,
        static_cast<double>(tp.reports) / (tp.wall_ms / 1000.0) / 1000.0,
        refits_per_round, static_cast<unsigned long long>(tp.allocations));
    bench::BenchCase& builder = reporter.AddCase(c.name);
    builder.Iterations(static_cast<uint64_t>(tp.rounds))
        .Ops(tp.reports)
        .WallMs(tp.wall_ms)
        .Allocations(tp.allocations)
        .Counter("rounds_per_sec", rounds_per_sec);
    if (c.needs_refits) {
      builder.Counter("refit_iterations_per_round", refits_per_round);
    }
    if (tp.allocations != 0) {
      std::fprintf(stderr, "FAIL: %s allocated %llu times\n", c.name,
                   static_cast<unsigned long long>(tp.allocations));
      return 1;
    }
    if (c.needs_refits && refits_per_round < 1.0) {
      std::fprintf(stderr,
                   "FAIL: %s ran %.2f refit iterations per round (the case "
                   "must exercise the refit loop every round)\n",
                   c.name, refits_per_round);
      return 1;
    }
  }

  return reporter.WriteJson().ok() ? 0 : 1;
}
