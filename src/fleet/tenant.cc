#include "fleet/tenant.h"

#include <utility>

#include "common/rng.h"

namespace itrim {

std::string TenantModelKindName(TenantModelKind kind) {
  return ModelKindName(kind);
}

ScoreModelInputs TenantSpec::ModelInputs() const {
  ScoreModelInputs inputs;
  inputs.scalar_pool = scalar_pool;
  inputs.dataset = dataset;
  inputs.ldp_population = ldp_population;
  inputs.ldp_mechanism = ldp_mechanism;
  inputs.ldp_attack = ldp_attack;
  inputs.ldp_tth = game.tth;
  inputs.regression = regression;
  inputs.regression_poison = regression_poison;
  return inputs;
}

Status TenantSpec::Validate() const {
  ITRIM_RETURN_NOT_OK(game.Validate());
  ITRIM_RETURN_NOT_OK(ValidateScoreModelInputs(model, ModelInputs()));
  // Groundtruth tenants run with attack_ratio forced to 0 at
  // materialization, so they never draw a poison report; only the tenant
  // knows that, so the attack requirement stays here rather than in the
  // factory's per-kind check.
  if (model == TenantModelKind::kLdp && ldp_attack == nullptr &&
      game.attack_ratio > 0.0 && scheme != SchemeId::kGroundtruth) {
    return Status::InvalidArgument(
        "ldp tenant with attack_ratio > 0 needs an ldp_attack");
  }
  if (reference == TenantReferenceKind::kFittedModel) {
    if (model != TenantModelKind::kResidual) {
      return Status::InvalidArgument(
          "fitted-model reference requires the residual model kind");
    }
    if (fitted_reference.max_refits < 1) {
      return Status::InvalidArgument(
          "fitted-model reference needs max_refits >= 1");
    }
    if (!(fitted_reference.tol >= 0.0)) {
      return Status::InvalidArgument(
          "fitted-model reference needs tol >= 0");
    }
  }
  return Status::OK();
}

uint64_t DeriveTenantSeed(uint64_t fleet_seed, size_t tenant_index) {
  // Weyl-offset SplitMix64: distinct, well-mixed streams per index, and a
  // pure function of (fleet_seed, index) so scheduling cannot perturb it.
  uint64_t index = static_cast<uint64_t>(tenant_index) + 1;
  SplitMix64 stream(fleet_seed ^ (0x9E3779B97F4A7C15ULL * index));
  return stream.Next();
}

namespace {

// The live objects a resident tenant adds around its score model: the
// scheme's strategies, the owned trim reference and the session borrowing
// them. Built the same way at materialization and at rehydration, so the
// LDP/adversary wiring exists once.
struct SessionParts {
  SchemeInstance scheme;
  std::unique_ptr<ReferencePolicy> reference;
  std::unique_ptr<TrimmingSession> session;
};

SessionParts AssembleSession(const TenantSpec& spec, const GameConfig& config,
                             ScoreModel* model) {
  SessionParts parts;
  parts.scheme = MakeScheme(spec.scheme, config.tth, spec.scheme_options);
  // LDP poison is materialized by the attack; the session runs without an
  // AdversaryStrategy, exactly like the LdpCollectionGame path (an
  // adversary would consume RNG draws the LDP stream never did).
  AdversaryStrategy* adversary = spec.model == TenantModelKind::kLdp
                                     ? nullptr
                                     : parts.scheme.adversary.get();
  if (spec.reference == TenantReferenceKind::kFittedModel) {
    parts.reference =
        std::make_unique<FittedModelReference>(spec.fitted_reference);
  }
  parts.session = std::make_unique<TrimmingSession>(
      config, model, parts.scheme.collector.get(), adversary,
      parts.scheme.quality.get(), parts.reference.get());
  return parts;
}

void InstallSession(Tenant* tenant, SessionParts parts) {
  tenant->scheme = std::move(parts.scheme);
  tenant->reference = std::move(parts.reference);
  tenant->session = std::move(parts.session);
}

}  // namespace

Result<Tenant> MaterializeTenant(const TenantSpec& spec, uint64_t seed) {
  ITRIM_RETURN_NOT_OK(spec.Validate());
  Tenant tenant;
  tenant.spec = spec;
  tenant.config = spec.game;
  tenant.config.seed = seed;
  if (spec.scheme == SchemeId::kGroundtruth) {
    // Clean reference tenant, as in the experiment runners.
    tenant.config.attack_ratio = 0.0;
  }
  if (spec.model == TenantModelKind::kLdp) {
    // The symmetric band trim is defined against the board reference.
    tenant.config.round_mass_trimming = false;
  }
  ScoreModelInputs inputs = spec.ModelInputs();
  inputs.ldp_tth = tenant.config.tth;
  ITRIM_ASSIGN_OR_RETURN(tenant.model, MakeScoreModel(spec.model, inputs));
  tenant.model->set_retain_survivors(spec.retain_survivors);
  InstallSession(&tenant,
                 AssembleSession(spec, tenant.config, tenant.model.get()));
  return tenant;
}

size_t ParkedBytes(const Tenant& tenant) {
  size_t bytes = 0;
  if (tenant.hibernated != nullptr) {
    const SessionCheckpoint& c = tenant.hibernated->checkpoint;
    bytes += sizeof(TenantHibernation) +
             c.records.capacity() * sizeof(RoundRecord) +
             c.board.values.capacity() * sizeof(double);
  }
  if (tenant.model != nullptr) bytes += tenant.model->FootprintBytes();
  return bytes;
}

Status HibernateTenant(Tenant* tenant) {
  if (!tenant->resident()) {
    return Status::FailedPrecondition("tenant is already hibernated");
  }
  if (!tenant->session->bootstrapped()) {
    return Status::FailedPrecondition(
        "cannot hibernate an un-bootstrapped tenant");
  }
  auto parked = std::make_unique<TenantHibernation>();
  parked->checkpoint = tenant->session->Checkpoint();
  parked->termination_round = tenant->scheme.collector->termination_round();
  // Release the live objects only after the checkpoint is safely captured;
  // the session borrows the model, reference and strategies, so it goes
  // first. The model stays, calibrated, with its per-round buffers freed.
  tenant->session.reset();
  tenant->reference.reset();
  tenant->scheme = SchemeInstance{};
  tenant->model->ReleaseRoundBuffers();
  tenant->hibernated = std::move(parked);
  return Status::OK();
}

Status RehydrateTenant(Tenant* tenant) {
  if (tenant->resident()) {
    return Status::FailedPrecondition("tenant is already resident");
  }
  if (tenant->hibernated == nullptr || tenant->model == nullptr) {
    return Status::FailedPrecondition(
        "tenant was never materialized/hibernated");
  }
  // Assemble the session around the kept model on the side, so a failed
  // restore leaves this tenant parked and intact. The effective config
  // carries the derived seed the tenant was calibrated under, so the
  // restore reuses the model's calibration instead of re-running the
  // bootstrap.
  SessionParts parts =
      AssembleSession(tenant->spec, tenant->config, tenant->model.get());
  ITRIM_RETURN_NOT_OK(parts.session->Restore(tenant->hibernated->checkpoint));
  // The fresh session starts with no sinks attached; carry the tenant's.
  parts.session->set_observability(tenant->obs);
  InstallSession(tenant, std::move(parts));
  tenant->hibernated.reset();
  return Status::OK();
}

}  // namespace itrim
