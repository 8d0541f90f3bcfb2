// One tenant of a SessionFleet: a declarative spec and its materialized
// per-tenant game objects.
//
// The fleet serves many concurrent trimming games, and tenants are
// deliberately heterogeneous — a production collector fields scalar
// streams, d-dimensional ML feeds and LDP report channels side by side,
// each defended by its own strategy pair (the scenario space of randomized
// prediction games: a *population* of strategy mixes, not one matchup).
// TenantSpec is the declarative description (data setting, scheme, game
// shape); MaterializeTenant turns it into owned strategy/model/session
// objects so tenants can be stepped independently on any thread.
#ifndef ITRIM_FLEET_TENANT_H_
#define ITRIM_FLEET_TENANT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "exp/schemes.h"
#include "exp/score_model_factory.h"
#include "game/reference_policy.h"
#include "game/score_model.h"
#include "game/session.h"
#include "ldp/attacks.h"
#include "ldp/mechanism.h"

namespace itrim {

/// \brief Data setting a tenant's session runs in — the fleet speaks the
/// library-wide ModelKind vocabulary (exp/score_model_factory.h).
using TenantModelKind = ModelKind;

/// \brief Display name of a model kind
/// ("scalar", "distance", "ldp", "residual").
std::string TenantModelKindName(TenantModelKind kind);

/// \brief Which trim reference the tenant's session plays against.
enum class TenantReferenceKind {
  kPercentile = 0,  ///< board-quantile cutoff (the classical protocol)
  /// Model-in-the-loop: cutoff from residuals against a model refit on the
  /// round's survivor candidates (requires TenantModelKind::kResidual).
  kFittedModel,
};

/// \brief Declarative description of one fleet tenant.
///
/// Data sources are borrowed and must outlive the fleet; they are shared
/// read-only across tenants (the LDP mechanism is const and thread-safe,
/// the attack is not promised to be — give each LDP tenant its own attack
/// instance when stepping in parallel). A fleet overwrites the per-tenant
/// `game` seed with DeriveTenantSeed(fleet seed, tenant index), so tenants
/// never share RNG streams by accident.
struct TenantSpec {
  std::string name;  ///< optional label surfaced in summaries/errors
  TenantModelKind model = TenantModelKind::kScalar;
  SchemeId scheme = SchemeId::kElastic05;
  SchemeOptions scheme_options;
  GameConfig game;
  /// When true, the tenant's score model accumulates the sanitized
  /// survivors of every round (the batch-game behavior, reachable through
  /// SessionFleet::tenant(i).model). Fleets default it OFF: the fleet
  /// product is the per-round aggregates, and an ever-growing survivor
  /// store per tenant is an unbounded memory cost times thousands of
  /// tenants — and the one per-round heap allocation left in a
  /// steady-state Step(). Round records and aggregates are bit-identical
  /// either way.
  bool retain_survivors = false;

  // Data sources, required per model kind:
  const std::vector<double>* scalar_pool = nullptr;   ///< kScalar
  const Dataset* dataset = nullptr;                   ///< kDistance
  const std::vector<double>* ldp_population = nullptr;  ///< kLdp
  const LdpMechanism* ldp_mechanism = nullptr;          ///< kLdp
  LdpAttack* ldp_attack = nullptr;                      ///< kLdp
  const RegressionData* regression = nullptr;           ///< kResidual
  PoisonShape regression_poison = PoisonShape::kFlipShift;  ///< kResidual

  /// Trim reference the session plays against; kFittedModel requires the
  /// kResidual model kind (the only setting exposing observations).
  TenantReferenceKind reference = TenantReferenceKind::kPercentile;
  FittedModelReference::Options fitted_reference;  ///< kFittedModel only

  /// \brief Assembles the factory inputs this spec describes.
  ScoreModelInputs ModelInputs() const;

  /// \brief Checks the game config, the model kind's data sources and the
  /// reference policy options.
  Status Validate() const;
};

/// \brief Parked stream state of a hibernated tenant: the session's
/// moved-out stream state (TrimmingSession::Park — board values, round
/// records, counters and RNG states). This is the one place a parked
/// tenant's stream state lives. The slot is allocated once at
/// materialization and reused by every cycle; while the tenant is resident
/// its vectors are empty (moved back into the session).
struct TenantHibernation {
  SessionCheckpoint checkpoint;
};

/// \brief A materialized tenant: owned strategies, score model, reference
/// and session, plus the parking slot for its stream state.
///
/// Movable, not copyable. The session borrows the other members, which are
/// heap-owned, so moving a Tenant keeps every borrowed pointer valid.
///
/// A tenant is either *resident* (its session steppable) or *hibernated*
/// (its stream state parked in `hibernated`, its round-sized buffers
/// freed); HibernateTenant/RehydrateTenant flip between the two. Every
/// object lives in both states: the session with its board's sorted array
/// and attached observability sinks, the strategies, the reference and the
/// calibrated score model. Parking therefore replays nothing and rebuilds
/// nothing.
struct Tenant {
  TenantSpec spec;             ///< the spec this tenant was built from
  GameConfig config;           ///< effective config (derived seed applied)
  SchemeInstance scheme;       ///< owned collector/adversary/quality
  std::unique_ptr<ScoreModel> model;
  /// Owned trim reference; null for kPercentile tenants (the session falls
  /// back to the shared stateless default).
  std::unique_ptr<ReferencePolicy> reference;
  std::unique_ptr<TrimmingSession> session;
  /// Parking slot (see TenantHibernation); non-null from materialization.
  std::unique_ptr<TenantHibernation> hibernated;

  /// \brief True for a materialized tenant whose session is not parked.
  bool resident() const { return session != nullptr && !session->parked(); }
};

/// \brief Deterministic per-tenant seed stream: a pure function of the
/// fleet seed and the tenant index, so materialization order and thread
/// count never influence any tenant's randomness.
uint64_t DeriveTenantSeed(uint64_t fleet_seed, size_t tenant_index);

/// \brief Builds the tenant's strategies, score model, reference,
/// (un-bootstrapped) session and parking slot from a validated spec.
/// `seed` becomes the session seed; Groundtruth tenants run with
/// attack_ratio forced to 0 (the clean reference, as in the experiment
/// runners). LDP tenants run without an AdversaryStrategy (their attack
/// materializes poison itself) and with board-reference trimming
/// semantics.
Result<Tenant> MaterializeTenant(const TenantSpec& spec, uint64_t seed);

/// \brief Parks a quiet tenant in place: moves its session's stream state
/// into `hibernated` (TrimmingSession::Park) and frees its round-sized
/// buffers. The session, strategies, reference, the board's sorted array
/// and the model's calibration stay. Requires a resident, bootstrapped
/// tenant. Allocates nothing.
Status HibernateTenant(Tenant* tenant);

/// \brief Moves a hibernated tenant's parked stream state back into its
/// kept session (TrimmingSession::Unpark): no strategy replay, no board
/// rebuild, no allocation. The subsequent stream is bit-identical to never
/// having hibernated. On error (a parked board or round book that does not
/// match the kept session) the tenant is left untouched and still
/// hibernated.
Status RehydrateTenant(Tenant* tenant);

/// \brief Bytes a tenant holds in its current state: the session (object,
/// board values and sorted array, round book, round scratch), the
/// strategies, the owned reference, the score model
/// (ScoreModel::FootprintBytes) and the parking slot with what it holds.
/// Borrowed data sources are not counted.
/// Parking frees only round-sized buffers, so a parked tenant counts less
/// than the same tenant resident.
size_t ParkedBytes(const Tenant& tenant);

}  // namespace itrim

#endif  // ITRIM_FLEET_TENANT_H_
