// The streaming collection-game engine (Fig 3), one round at a time.
//
// The paper's interactive trimming game is inherently online: rounds arrive
// one by one and both parties adapt to what they observed. TrimmingSession
// exposes exactly that shape — Bootstrap() fixes the clean percentile
// reference, each Step() plays one round (collector picks a threshold,
// benign data and percentile-positioned poison arrive, the round is
// trimmed, both parties observe) and returns its RoundRecord, and Finish()
// closes the book into a GameSummary.
//
// One engine serves every data setting through a ScoreModel
// (game/score_model.h): the 1-D LDP/Taxi setting, the d-dimensional
// k-means/SVM/SOM setting, and the perturbed-report LDP setting differ only
// in how payloads are generated, scored and reference-trimmed, never in the
// round protocol. The batch ScalarCollectionGame / DistanceCollectionGame
// classes (game/collection_game.h) are thin adapters over this engine and
// reproduce the seed implementation's GameSummary bit for bit at fixed
// seed (asserted by tests/game/session_test.cc).
//
// Sessions are checkpointable: Checkpoint() captures the full interaction
// state (round counter, poison quota, RNG, board, per-round records) and
// Restore() resumes a fresh session of the same configuration from it,
// continuing the stream bit-identically. Restore reconstructs strategy state
// by replaying the recorded observations, which is exact for every strategy
// whose state is a function of its observation history (all the paper's
// strategies). Two components sit outside the checkpoint and would need
// their own state carried across for an exact restore: a strategy drawing
// private randomness inside Observe() (GenerousTitfortatCollector) and a
// quality evaluator with internal state (NoisyDefectShareQuality's
// estimation-noise Rng advances per Evaluate() call) — with those, a
// restored stream is statistically equivalent but not bit-identical.
//
// A live session can instead be parked in place (Park/Unpark — the fleet's
// hibernation): its round book and the board's values move out into a
// SessionCheckpoint, its round-sized scratch is freed, and the strategies,
// the quality evaluator, the reference, the model's calibration and the
// board's sorted array stay as they are. Nothing is replayed on Unpark, so
// parking is exact for every strategy, those two included.
#ifndef ITRIM_GAME_SESSION_H_
#define ITRIM_GAME_SESSION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "game/public_board.h"
#include "game/quality.h"
#include "game/strategies.h"
#include "game/trimmer.h"

namespace itrim {

class ScoreModel;
class ReferencePolicy;

namespace obs {
class MetricSlot;
class TraceBuffer;
}  // namespace obs

/// \brief Borrowed observability sinks for a session (src/obs/). Both
/// pointers may be null (that facet is simply not recorded) and must outlive
/// the session while attached. Recording is strictly write-only telemetry —
/// it never reads back into the game, so every bit-identity and zero-alloc
/// invariant holds with sinks attached or not.
struct SessionObs {
  obs::MetricSlot* metrics = nullptr;
  obs::TraceBuffer* trace = nullptr;
  uint64_t tenant = 0;  ///< tenant id stamped on trace events
};

/// \brief Configuration shared by all collection-game variants.
struct GameConfig {
  int rounds = 20;              ///< number of collection rounds
  size_t round_size = 500;      ///< benign samples per round
  /// Poison count = attack_ratio * round_size (fractions carry over);
  /// finite, >= 0, and small enough that a round's poison fits 32 bits.
  double attack_ratio = 0.1;
  double tth = 0.9;             ///< nominal threshold percentile
  size_t bootstrap_size = 500;  ///< clean board seed (round 0)
  size_t board_capacity = 20000;  ///< reservoir cap (0 = unbounded)
  /// When true, trimming removes the top (1 - q) fraction of the received
  /// round itself instead of cutting at the board's q-quantile value.
  bool round_mass_trimming = false;
  uint64_t seed = 42;

  Status Validate() const;
};

/// \brief Per-round bookkeeping of one game run.
///
/// The four counters are 32-bit: GameConfig::Validate() bounds a round's
/// benign and poison counts by UINT32_MAX, and every session's round book,
/// checkpoint and fleet record copy holds one of these per round.
struct RoundRecord {
  int round = 0;
  double collector_percentile = kNoTrim;
  double injection_percentile = 0.0;  ///< mean over this round's poison
  double cutoff = 0.0;
  double quality = 1.0;
  uint32_t benign_received = 0;
  uint32_t poison_received = 0;
  uint32_t benign_kept = 0;
  uint32_t poison_kept = 0;
};
static_assert(sizeof(RoundRecord) <= 56, "RoundRecord grew past 56 bytes");

/// \brief Outcome of a full game run.
struct GameSummary {
  std::vector<RoundRecord> rounds;
  /// 0 when the collector's judgement never triggered.
  int termination_round = 0;

  /// \brief Poison kept / total kept; 0 when nothing was kept at all.
  double UntrimmedPoisonFraction() const;
  /// \brief Benign removed / benign received; 0 when no benign data
  /// arrived.
  double BenignLossFraction() const;
  /// \brief Poison kept / poison received; 0 when no poison arrived.
  double PoisonSurvivalRate() const;

  size_t TotalKept() const;
  size_t TotalPoisonKept() const;
  size_t TotalBenignKept() const;
  size_t TotalReceived() const;
  size_t TotalPoisonReceived() const;
  size_t TotalBenignReceived() const;
};

/// \brief Serializable mid-stream state of a TrimmingSession.
struct SessionCheckpoint {
  int next_round = 1;
  double poison_quota = 0.0;
  bool have_prev = false;
  RoundObservation prev;
  std::vector<RoundRecord> records;
  Rng::Snapshot rng;
  PublicBoard::Snapshot board;
};

/// \brief Incremental round-wise engine of the collection game.
///
/// All pointers are borrowed and must outlive the session. `adversary` may
/// be null (the model then materializes poison without percentile guidance,
/// e.g. the LDP report attack); `quality` may be null (rounds score 1.0);
/// `reference` may be null (the shared percentile reference — the paper's
/// board-quantile trim, bit-identical to the pre-policy engine). A
/// reference policy with internal scratch (FittedModelReference) must be
/// owned per session, like strategies are. The configuration is validated
/// at construction; Bootstrap() surfaces the validation Status (and the
/// policy's model-compatibility check) instead of silently running on a
/// bad config.
class TrimmingSession {
 public:
  TrimmingSession(GameConfig config, ScoreModel* model,
                  CollectorStrategy* collector, AdversaryStrategy* adversary,
                  QualityEvaluation* quality,
                  ReferencePolicy* reference = nullptr);

  /// \brief Resets strategies/model and seeds the board with the clean
  /// round-0 calibration sample that fixes the percentile reference.
  Status Bootstrap();

  /// \brief Plays the next round and returns its record. Requires a
  /// successful Bootstrap(); may be called past config().rounds (the
  /// session is an open-ended stream — the configured count only bounds
  /// the batch adapters).
  Result<RoundRecord> Step();

  /// \brief Summary of everything played so far (termination round from
  /// the collector's judgement). The session remains steppable.
  GameSummary Finish() const;

  /// \brief Bootstrap + config().rounds Steps + Finish, the batch shape.
  Result<GameSummary> RunToCompletion();

  /// \brief Captures the interaction state. Requires a successful
  /// Bootstrap(). The model's retained sink is not part of the checkpoint:
  /// a restored session accumulates survivors from the restore point on.
  SessionCheckpoint Checkpoint() const;

  /// \brief Resumes from a checkpoint of an identically configured
  /// session; subsequent Steps are bit-identical to the original stream.
  ///
  /// The model is bootstrapped first, exactly as Bootstrap() does (the
  /// calibration is a pure function of the seed, the bootstrap size and
  /// the model's source), and the checkpoint then replaces the stream
  /// state; strategy state is rebuilt by replaying the checkpoint's
  /// records. The model's retained sink starts empty: a restored session
  /// accumulates survivors from the restore point on. On error the session
  /// is left un-bootstrapped (not steppable).
  Status Restore(const SessionCheckpoint& checkpoint);

  /// \brief Parks the session in place: moves (does not copy) the round
  /// book and the board's values into `out`, together with the counters,
  /// the previous observation and the session and board RNG states, and
  /// frees the round-sized scratch (trim buffers, the reference's refit
  /// scratch, ScoreModel::ReleaseRoundBuffers). The strategies, the
  /// reference, the model's calibration and the board's sorted array are
  /// left untouched. Requires a bootstrapped, unparked session; a parked
  /// session is not steppable until Unpark(). Allocates nothing.
  Status Park(SessionCheckpoint* out);

  /// \brief Moves the stream state parked in `parked` back, with no
  /// strategy replay and no board rebuild; the stream continues
  /// bit-identically to never having parked. Checks first that the board
  /// values fit the capacity and match the kept sorted array's count and
  /// that the book holds next_round - 1 records; on a mismatch returns
  /// InvalidArgument and moves nothing (the session stays parked).
  /// Allocates nothing.
  Status Unpark(SessionCheckpoint* parked);

  /// \brief True between a successful Park() and Unpark().
  bool parked() const { return parked_; }

  /// \brief Bytes this session holds: the object, its board (values and
  /// sorted array), its round book and its round scratch, by capacity. The
  /// borrowed model, strategies and reference are not counted.
  size_t FootprintBytes() const;

  /// \brief Attaches (or detaches, with default-constructed sinks)
  /// observability. Takes effect from the next Step(); sinks survive
  /// Park/Unpark, but checkpoint/restore does not carry them — owners
  /// re-attach after Restore() on a fresh session.
  void set_observability(const SessionObs& sinks) { obs_ = sinks; }
  const SessionObs& observability() const { return obs_; }

  const GameConfig& config() const { return config_; }
  const PublicBoard& board() const { return board_; }
  /// \brief Book of every round played so far, in round order.
  const std::vector<RoundRecord>& round_log() const { return records_; }
  /// \brief 1-based index of the next round Step() would play.
  int next_round() const { return next_round_; }
  bool bootstrapped() const { return bootstrapped_; }

 private:
  /// \brief Config, adversary and reference-policy checks shared by
  /// Bootstrap() and Restore().
  Status CheckPlayable() const;
  /// \brief Resets the strategies and the per-stream state to round 1.
  void ResetStream();
  void RecordRoundObservability(const RoundRecord& record, size_t removed,
                                bool used_reference);

  GameConfig config_;
  Status config_status_;
  ScoreModel* model_;
  CollectorStrategy* collector_;
  AdversaryStrategy* adversary_;
  QualityEvaluation* quality_;
  ReferencePolicy* reference_;
  PublicBoard board_;
  Rng rng_;
  RoundObservation prev_;
  bool have_prev_ = false;
  double poison_quota_ = 0.0;
  int next_round_ = 1;
  bool bootstrapped_ = false;
  bool parked_ = false;
  SessionObs obs_;
  std::vector<RoundRecord> records_;
  // Round-loop scratch, reused across Step() calls so the steady state
  // never touches the heap (tests/game/zero_alloc_test.cc holds the line).
  TrimOutcome trim_scratch_;
  std::vector<size_t> trim_idx_scratch_;
  std::vector<double> poison_pos_scratch_;  ///< NaN positions (no adversary)
};

}  // namespace itrim

#endif  // ITRIM_GAME_SESSION_H_
