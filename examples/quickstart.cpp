// Quickstart: defend a streaming collection against an evasive adversary in
// ~40 lines.
//
// A collector gathers uniform data while a white-box adversary injects 20%
// poison just below whatever it learned about the collector's threshold. We
// run the Elastic strategy (Algorithm 2) against it through the streaming
// TrimmingSession API — Bootstrap() fixes the clean percentile reference,
// each Step() plays one round as it "arrives" and reports the interaction
// live, Finish() closes the book.
#include <cinttypes>
#include <cstdio>

#include "common/rng.h"
#include "game/score_model.h"
#include "game/session.h"
#include "game/strategies.h"

int main() {
  using namespace itrim;

  // A benign data source: 10k values in [0, 1].
  Rng rng(7);
  std::vector<double> benign_pool;
  for (int i = 0; i < 10000; ++i) benign_pool.push_back(rng.Uniform());

  // Game setup: 15 rounds of 500 values, 20% poison, nominal threshold at
  // the 90th percentile.
  GameConfig config;
  config.rounds = 15;
  config.round_size = 500;
  config.attack_ratio = 0.2;
  config.tth = 0.9;
  config.seed = 42;

  // The defense: Elastic with response strength k = 0.5.
  ElasticCollector collector(0.5);
  // The threat: an adversary that mirrors the collector's last threshold.
  ElasticAdversary adversary(0.5);

  // Scalar setting (score == value) driven one round at a time.
  IdentityScoreModel model(&benign_pool);
  TrimmingSession session(config, &model, &collector, &adversary,
                          /*quality=*/nullptr);
  if (Status s = session.Bootstrap(); !s.ok()) {
    std::fprintf(stderr, "bootstrap failed: %s\n", s.ToString().c_str());
    return 1;
  }

  std::printf("round  trim@pct  inject@pct  benign kept  poison kept\n");
  for (int round = 1; round <= config.rounds; ++round) {
    auto record = session.Step();
    if (!record.ok()) {
      std::fprintf(stderr, "round %d failed: %s\n", round,
                   record.status().ToString().c_str());
      return 1;
    }
    std::printf("%5d    %.4f      %.4f      %4" PRIu32 "/%" PRIu32
                "      %3" PRIu32 "/%" PRIu32 "\n",
                record->round, record->collector_percentile,
                record->injection_percentile, record->benign_kept,
                record->benign_received, record->poison_kept,
                record->poison_received);
  }

  GameSummary summary = session.Finish();
  std::printf(
      "\nuntrimmed poison fraction: %.4f\nbenign loss fraction:      %.4f\n"
      "(the coupled dynamics converge: the adversary is pushed ~4%% below "
      "the nominal threshold,\n where its poison is barely distinguishable "
      "from honest data)\n",
      summary.UntrimmedPoisonFraction(), summary.BenignLossFraction());
  return 0;
}
