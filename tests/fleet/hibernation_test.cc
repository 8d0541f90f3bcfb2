// Tenant hibernation/rehydration bit-identity: parking a tenant's stream
// state in place and moving it back later must not perturb the stream.
// Covered per model kind (scalar / distance / LDP / residual), mid-stream at
// every round boundary, and across repeated hibernate-rehydrate cycles. The
// kept objects are checked too: the same session, reference and calibrated
// model come back, a refused rehydration (tampered board or round book)
// leaves the tenant parked, the warm rehydration equals a cold
// materialize-and-restore, and a retaining tenant refills its survivor
// store from the rehydration point on. A cycle allocates nothing (counted
// with the allocator from bench/alloc_counter.h), and a parked tenant holds
// less than a resident one.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bench/alloc_counter.h"
#include "data/generators.h"
#include "exp/schemes.h"
#include "fleet/session_fleet.h"
#include "fleet/tenant.h"
#include "game/score_model.h"
#include "ldp/attacks.h"
#include "ldp/mechanism.h"
#include "ldp/report_score_model.h"
#include "ml/linreg.h"
#include "ml/residual_score_model.h"

#include "game/summary_test_util.h"

namespace itrim {
namespace {

constexpr TenantModelKind kAllKinds[] = {
    TenantModelKind::kScalar, TenantModelKind::kDistance,
    TenantModelKind::kLdp, TenantModelKind::kResidual};

// The churn shape (a 40-value board under a 512 cap) and the paper's game
// shape (500 values under a 20000 cap).
struct Shape {
  const char* name;
  size_t round_size;
  size_t bootstrap_size;
  size_t board_capacity;
};
constexpr Shape kShapes[] = {{"churn", 30, 40, 512},
                             {"bulk", 500, 500, 20000}};

void ExpectRecordsBitIdentical(const std::vector<RoundRecord>& a,
                               const std::vector<RoundRecord>& b) {
  GameSummary sa;
  sa.rounds = a;
  GameSummary sb;
  sb.rounds = b;
  ExpectSummaryBitIdentical(sa, sb);
}

class HibernationTest : public ::testing::Test {
 protected:
  HibernationTest()
      : pool_(UniformPool(4000, 11)), data_(MakeControl(21, 80)),
        population_(UniformPool(3000, 31)), mechanism_(2.0),
        regression_(MakeSyntheticRegression(600, 3, 0.05, 47)) {}

  TenantSpec SpecFor(TenantModelKind model) {
    TenantSpec spec;
    spec.name = TenantModelKindName(model);
    spec.model = model;
    spec.scheme = SchemeId::kElastic05;
    spec.game.round_size = 40;
    spec.game.bootstrap_size = 80;
    spec.game.attack_ratio = 0.15;
    spec.game.board_capacity = 2000;
    switch (model) {
      case TenantModelKind::kScalar:
        spec.scalar_pool = &pool_;
        break;
      case TenantModelKind::kDistance:
        spec.dataset = &data_;
        break;
      case TenantModelKind::kLdp:
        spec.ldp_population = &population_;
        spec.ldp_mechanism = &mechanism_;
        attacks_.push_back(std::make_unique<InputManipulationAttack>(1.0));
        spec.ldp_attack = attacks_.back().get();
        break;
      case TenantModelKind::kResidual:
        // The fitted-model reference is the interesting hibernation case:
        // its scratch must be rebuilt from the checkpoint alone.
        spec.regression = &regression_;
        spec.reference = TenantReferenceKind::kFittedModel;
        break;
    }
    return spec;
  }

  // A fresh one-tenant fleet in per-tenant mode.
  SessionFleet MakeFleet(const TenantSpec& spec) {
    FleetConfig config;
    config.threads = 1;
    config.seed = 909;
    SessionFleet fleet(config, {spec});
    EXPECT_TRUE(fleet.Bootstrap().ok());
    EXPECT_TRUE(fleet.BeginPerTenantStepping().ok());
    return fleet;
  }

  std::vector<double> pool_;
  Dataset data_;
  std::vector<double> population_;
  PiecewiseMechanism mechanism_;
  std::vector<std::unique_ptr<LdpAttack>> attacks_;
  RegressionData regression_;
};

// The core contract, swept over every model kind: for every split point k
// in a 8-round stream, playing k rounds, hibernating, rehydrating and
// playing the rest equals the uninterrupted stream bit for bit.
TEST_F(HibernationTest, MidStreamHibernationIsBitIdenticalEverywhere) {
  const int kRounds = 8;
  for (TenantModelKind model : kAllKinds) {
    TenantSpec spec = SpecFor(model);
    SCOPED_TRACE(spec.name);

    SessionFleet reference = MakeFleet(spec);
    for (int r = 0; r < kRounds; ++r) {
      ASSERT_TRUE(reference.StepTenant(0).ok());
    }
    std::vector<RoundRecord> expected = reference.TenantRounds(0).ValueOrDie();

    for (int split = 0; split <= kRounds; ++split) {
      SCOPED_TRACE("split after round " + std::to_string(split));
      SessionFleet fleet = MakeFleet(spec);
      for (int r = 0; r < split; ++r) {
        ASSERT_TRUE(fleet.StepTenant(0).ok());
      }
      ASSERT_TRUE(fleet.HibernateTenant(0).ok());
      EXPECT_FALSE(fleet.TenantResident(0));
      EXPECT_EQ(fleet.ResidentTenants(), 0u);
      // Parked tenants still answer for their history.
      ExpectRecordsBitIdentical(
          std::vector<RoundRecord>(expected.begin(), expected.begin() + split),
          fleet.TenantRounds(0).ValueOrDie());
      ASSERT_TRUE(fleet.RehydrateTenant(0).ok());
      EXPECT_TRUE(fleet.TenantResident(0));
      for (int r = split; r < kRounds; ++r) {
        ASSERT_TRUE(fleet.StepTenant(0).ok());
      }
      ExpectRecordsBitIdentical(expected, fleet.TenantRounds(0).ValueOrDie());
    }
  }
}

// Hibernation parks the stream state in place: the same session, reference
// and model objects come back on rehydration, the model is not calibrated a
// second time, and its per-round buffers are freed while parked.
TEST_F(HibernationTest, KeptModelSurvivesCyclesWithoutRecalibration) {
  for (TenantModelKind model : kAllKinds) {
    TenantSpec spec = SpecFor(model);
    SCOPED_TRACE(spec.name);
    SessionFleet fleet = MakeFleet(spec);
    for (int r = 0; r < 3; ++r) ASSERT_TRUE(fleet.StepTenant(0).ok());
    const ScoreModel* kept = fleet.tenant(0).model.get();
    const TrimmingSession* session = fleet.tenant(0).session.get();
    const ReferencePolicy* reference = fleet.tenant(0).reference.get();
    ASSERT_NE(kept, nullptr);
    ASSERT_NE(session, nullptr);
    EXPECT_EQ(reference != nullptr,
              spec.reference == TenantReferenceKind::kFittedModel);
    EXPECT_EQ(kept->calibrations(), 1u);
    const size_t resident_footprint = kept->FootprintBytes();

    for (int cycle = 0; cycle < 3; ++cycle) {
      ASSERT_TRUE(fleet.HibernateTenant(0).ok());
      const Tenant& parked = fleet.tenant(0);
      EXPECT_EQ(parked.model.get(), kept);
      EXPECT_EQ(parked.session.get(), session);
      EXPECT_EQ(parked.reference.get(), reference);
      EXPECT_TRUE(session->parked());
      EXPECT_LT(kept->FootprintBytes(), resident_footprint);
      const SessionCheckpoint& c = parked.hibernated->checkpoint;
      EXPECT_EQ(ParkedBytes(parked),
                parked.scheme.object_bytes + session->FootprintBytes() +
                    (reference != nullptr ? reference->FootprintBytes() : 0) +
                    kept->FootprintBytes() + sizeof(TenantHibernation) +
                    c.records.capacity() * sizeof(RoundRecord) +
                    c.board.values.capacity() * sizeof(double));
      ASSERT_TRUE(fleet.RehydrateTenant(0).ok());
      EXPECT_EQ(fleet.tenant(0).model.get(), kept);
      EXPECT_EQ(fleet.tenant(0).session.get(), session);
      EXPECT_EQ(fleet.tenant(0).reference.get(), reference);
      EXPECT_FALSE(session->parked());
      EXPECT_EQ(kept->calibrations(), 1u);
      ASSERT_TRUE(fleet.StepTenant(0).ok());
    }
  }
}

// A rehydration that fails (the parked board snapshot holds more values
// than the board's capacity) leaves the tenant parked with its model and
// calibration; once the snapshot is valid again, rehydration resumes the
// stream bit-identically.
TEST_F(HibernationTest, FailedRehydrateKeepsTenantParkedWithItsModel) {
  for (TenantModelKind model : kAllKinds) {
    TenantSpec spec = SpecFor(model);
    SCOPED_TRACE(spec.name);
    Tenant tenant = MaterializeTenant(spec, 77).ValueOrDie();
    Tenant expected = MaterializeTenant(spec, 77).ValueOrDie();
    ASSERT_TRUE(tenant.session->Bootstrap().ok());
    ASSERT_TRUE(expected.session->Bootstrap().ok());
    for (int r = 0; r < 6; ++r) ASSERT_TRUE(expected.session->Step().ok());
    for (int r = 0; r < 3; ++r) ASSERT_TRUE(tenant.session->Step().ok());
    ASSERT_TRUE(HibernateTenant(&tenant).ok());
    const ScoreModel* kept = tenant.model.get();

    std::vector<double>& values = tenant.hibernated->checkpoint.board.values;
    const std::vector<double> valid = values;
    values.resize(spec.game.board_capacity + 1, 0.5);
    EXPECT_EQ(RehydrateTenant(&tenant).code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(tenant.resident());
    ASSERT_NE(tenant.hibernated, nullptr);
    EXPECT_EQ(tenant.model.get(), kept);
    EXPECT_EQ(kept->calibrations(), 1u);

    values = valid;
    ASSERT_TRUE(RehydrateTenant(&tenant).ok());
    EXPECT_EQ(tenant.model.get(), kept);
    EXPECT_EQ(kept->calibrations(), 1u);
    for (int r = 3; r < 6; ++r) ASSERT_TRUE(tenant.session->Step().ok());
    ExpectRecordsBitIdentical(expected.session->round_log(),
                              tenant.session->round_log());
  }
}

// Rehydration checks the parked state against the kept session before it
// moves anything back. A round book with a record too many or too few, a
// next round that disagrees with the book, or a board holding another count
// of values than the kept index is refused: the tenant stays parked with
// its state in the slot, and the stream continues intact once the parked
// state is put back.
TEST_F(HibernationTest, TamperedParkedStateKeepsTenantParked) {
  for (TenantModelKind model : kAllKinds) {
    TenantSpec spec = SpecFor(model);
    SCOPED_TRACE(spec.name);
    Tenant tenant = MaterializeTenant(spec, 78).ValueOrDie();
    Tenant expected = MaterializeTenant(spec, 78).ValueOrDie();
    ASSERT_TRUE(tenant.session->Bootstrap().ok());
    ASSERT_TRUE(expected.session->Bootstrap().ok());
    for (int r = 0; r < 6; ++r) ASSERT_TRUE(expected.session->Step().ok());
    for (int r = 0; r < 3; ++r) ASSERT_TRUE(tenant.session->Step().ok());
    ASSERT_TRUE(HibernateTenant(&tenant).ok());
    const TrimmingSession* session = tenant.session.get();

    SessionCheckpoint& parked = tenant.hibernated->checkpoint;
    ASSERT_EQ(parked.records.size(), 3u);
    const std::vector<RoundRecord> book = parked.records;
    const std::vector<double> board_values = parked.board.values;
    auto expect_refused = [&] {
      const size_t records = parked.records.size();
      const size_t values = parked.board.values.size();
      EXPECT_EQ(RehydrateTenant(&tenant).code(),
                StatusCode::kInvalidArgument);
      EXPECT_FALSE(tenant.resident());
      EXPECT_TRUE(session->parked());
      EXPECT_EQ(tenant.session.get(), session);
      // Nothing moved: the parked state is still in the slot.
      EXPECT_EQ(parked.records.size(), records);
      EXPECT_EQ(parked.board.values.size(), values);
      EXPECT_EQ(tenant.session->Step().status().code(),
                StatusCode::kFailedPrecondition);
    };

    parked.records.push_back(book.back());
    expect_refused();
    parked.records.pop_back();
    parked.records.pop_back();
    expect_refused();
    parked.records = book;
    parked.next_round += 1;
    expect_refused();
    parked.next_round -= 1;
    parked.board.values.pop_back();
    expect_refused();
    parked.board.values = board_values;

    ASSERT_TRUE(RehydrateTenant(&tenant).ok());
    for (int r = 3; r < 6; ++r) ASSERT_TRUE(tenant.session->Step().ok());
    ExpectRecordsBitIdentical(expected.session->round_log(),
                              tenant.session->round_log());
  }
}

// The cold path — a freshly materialized tenant restoring the parked
// checkpoint, which re-runs the bootstrap inside Restore() — and the warm
// rehydration that reuses the kept calibration continue identically.
TEST_F(HibernationTest, ColdRestoreEqualsWarmRehydrate) {
  for (TenantModelKind model : kAllKinds) {
    TenantSpec spec = SpecFor(model);
    SCOPED_TRACE(spec.name);
    Tenant warm = MaterializeTenant(spec, 4321).ValueOrDie();
    ASSERT_TRUE(warm.session->Bootstrap().ok());
    for (int r = 0; r < 4; ++r) ASSERT_TRUE(warm.session->Step().ok());
    ASSERT_TRUE(HibernateTenant(&warm).ok());

    Tenant cold = MaterializeTenant(warm.spec, warm.config.seed).ValueOrDie();
    EXPECT_EQ(cold.model->calibrations(), 0u);
    ASSERT_TRUE(cold.session->Restore(warm.hibernated->checkpoint).ok());
    EXPECT_EQ(cold.model->calibrations(), 1u);  // bootstrapped inside
    ASSERT_TRUE(RehydrateTenant(&warm).ok());
    EXPECT_EQ(warm.model->calibrations(), 1u);  // reused

    for (int r = 0; r < 5; ++r) {
      ASSERT_TRUE(cold.session->Step().ok());
      ASSERT_TRUE(warm.session->Step().ok());
    }
    ExpectRecordsBitIdentical(cold.session->round_log(),
                              warm.session->round_log());
  }
}

// Restore always bootstraps the model first: a session restoring onto a
// model calibrated under another seed calibrates it again, and continues
// the checkpoint's stream exactly.
TEST_F(HibernationTest, RestoreRecalibratesUnderAnotherIdentity) {
  TenantSpec spec = SpecFor(TenantModelKind::kDistance);
  Tenant source = MaterializeTenant(spec, 11).ValueOrDie();
  ASSERT_TRUE(source.session->Bootstrap().ok());
  for (int r = 0; r < 3; ++r) ASSERT_TRUE(source.session->Step().ok());
  const SessionCheckpoint checkpoint = source.session->Checkpoint();
  for (int r = 0; r < 3; ++r) ASSERT_TRUE(source.session->Step().ok());

  Tenant other = MaterializeTenant(spec, 12).ValueOrDie();  // another seed
  ASSERT_TRUE(other.session->Bootstrap().ok());
  ASSERT_EQ(other.model->calibrations(), 1u);
  // A session under the source's config around the other tenant's model.
  TrimmingSession resumed(source.config, other.model.get(),
                          other.scheme.collector.get(),
                          other.scheme.adversary.get(),
                          other.scheme.quality.get());
  ASSERT_TRUE(resumed.Restore(checkpoint).ok());
  EXPECT_EQ(other.model->calibrations(), 2u);
  for (int r = 0; r < 3; ++r) ASSERT_TRUE(resumed.Step().ok());
  ExpectRecordsBitIdentical(source.session->round_log(),
                            resumed.round_log());
}

// One hibernate + rehydrate cycle moves the tenant's stream state aside and
// back, so it allocates nothing: no session, strategy or parking slot is
// built, no board is re-sorted, nothing is copied. Asserted at both
// shapes, for survivor-retaining tenants too (their store is emptied in
// place, not rebuilt by BeginRun()).
TEST_F(HibernationTest, CycleHeapTrafficScalesWithHeldValuesNotCapacity) {
  for (const Shape& shape : kShapes) {
    SCOPED_TRACE(shape.name);
    for (TenantModelKind model : kAllKinds) {
      for (bool retain : {false, true}) {
        TenantSpec spec = SpecFor(model);
        SCOPED_TRACE(spec.name + (retain ? " retaining" : ""));
        spec.game.round_size = shape.round_size;
        spec.game.bootstrap_size = shape.bootstrap_size;
        spec.game.board_capacity = shape.board_capacity;
        spec.retain_survivors = retain;
        Tenant tenant = MaterializeTenant(spec, 606).ValueOrDie();
        ASSERT_TRUE(tenant.session->Bootstrap().ok());
        for (int cycle = 0; cycle < 3; ++cycle) {
          ASSERT_TRUE(tenant.session->Step().ok());
          const bench::AllocCounts before = bench::ThreadAllocCounts();
          ASSERT_TRUE(HibernateTenant(&tenant).ok());
          ASSERT_TRUE(RehydrateTenant(&tenant).ok());
          const bench::AllocCounts cycle_traffic =
              bench::ThreadAllocCounts() - before;
          EXPECT_EQ(cycle_traffic.allocations, 0u) << "cycle " << cycle;
          EXPECT_EQ(cycle_traffic.bytes, 0u) << "cycle " << cycle;
        }
        if (!retain) {
          // The first round after a rehydration re-grows the freed round
          // buffers; the next one is back on the allocation-free path.
          ASSERT_TRUE(tenant.session->Step().ok());
          const bench::AllocCounts before = bench::ThreadAllocCounts();
          ASSERT_TRUE(tenant.session->Step().ok());
          EXPECT_EQ((bench::ThreadAllocCounts() - before).allocations, 0u);
        }
      }
    }
  }
}

// Parking frees the round-sized buffers and keeps everything else, so a
// parked tenant holds less than the same tenant resident, at both shapes.
TEST_F(HibernationTest, ParkedTenantHoldsLessThanResident) {
  for (const Shape& shape : kShapes) {
    SCOPED_TRACE(shape.name);
    for (TenantModelKind model : kAllKinds) {
      TenantSpec spec = SpecFor(model);
      SCOPED_TRACE(spec.name);
      spec.game.round_size = shape.round_size;
      spec.game.bootstrap_size = shape.bootstrap_size;
      spec.game.board_capacity = shape.board_capacity;
      Tenant tenant = MaterializeTenant(spec, 607).ValueOrDie();
      ASSERT_TRUE(tenant.session->Bootstrap().ok());
      for (int r = 0; r < 3; ++r) ASSERT_TRUE(tenant.session->Step().ok());
      const size_t resident = ParkedBytes(tenant);
      ASSERT_TRUE(HibernateTenant(&tenant).ok());
      const size_t parked = ParkedBytes(tenant);
      EXPECT_LT(parked, resident);
      // The held values and the round book moved, they were not dropped.
      EXPECT_EQ(tenant.hibernated->checkpoint.board.values.size(),
                shape.bootstrap_size);
      EXPECT_EQ(tenant.hibernated->checkpoint.records.size(), 3u);
    }
  }
}

// A survivor-retaining tenant accumulates survivors from the rehydration
// point on, into a store with the same name and shape as after a restore:
// warm rehydration and a cold materialize-and-restore end with identical
// stores.
TEST_F(HibernationTest, RetainedStoreRefillsFromRehydrationPoint) {
  for (TenantModelKind model : kAllKinds) {
    TenantSpec spec = SpecFor(model);
    SCOPED_TRACE(spec.name);
    spec.retain_survivors = true;
    Tenant warm = MaterializeTenant(spec, 4322).ValueOrDie();
    ASSERT_TRUE(warm.session->Bootstrap().ok());
    for (int r = 0; r < 3; ++r) ASSERT_TRUE(warm.session->Step().ok());
    ASSERT_TRUE(HibernateTenant(&warm).ok());
    Tenant cold = MaterializeTenant(warm.spec, warm.config.seed).ValueOrDie();
    ASSERT_TRUE(cold.session->Restore(warm.hibernated->checkpoint).ok());
    ASSERT_TRUE(RehydrateTenant(&warm).ok());
    for (int r = 0; r < 2; ++r) {
      ASSERT_TRUE(cold.session->Step().ok());
      ASSERT_TRUE(warm.session->Step().ok());
    }
    const ScoreModel* w = warm.model.get();
    const ScoreModel* c = cold.model.get();
    switch (model) {
      case TenantModelKind::kScalar: {
        const auto& a = dynamic_cast<const IdentityScoreModel&>(*w);
        const auto& b = dynamic_cast<const IdentityScoreModel&>(*c);
        EXPECT_FALSE(a.retained().empty());
        EXPECT_EQ(a.retained(), b.retained());
        EXPECT_EQ(a.retained_is_poison(), b.retained_is_poison());
        break;
      }
      case TenantModelKind::kDistance: {
        const auto& a = dynamic_cast<const DistanceScoreModel&>(*w);
        const auto& b = dynamic_cast<const DistanceScoreModel&>(*c);
        EXPECT_FALSE(a.retained_data().rows.empty());
        EXPECT_EQ(a.retained_data().name, b.retained_data().name);
        EXPECT_EQ(a.retained_data().num_clusters,
                  b.retained_data().num_clusters);
        EXPECT_EQ(a.retained_data().rows, b.retained_data().rows);
        EXPECT_EQ(a.retained_data().labels, b.retained_data().labels);
        EXPECT_EQ(a.retained_is_poison(), b.retained_is_poison());
        break;
      }
      case TenantModelKind::kLdp: {
        const auto& a = dynamic_cast<const LdpReportScoreModel&>(*w);
        const auto& b = dynamic_cast<const LdpReportScoreModel&>(*c);
        EXPECT_FALSE(a.retained().empty());
        EXPECT_EQ(a.retained(), b.retained());
        break;
      }
      case TenantModelKind::kResidual: {
        const auto& a = dynamic_cast<const ResidualScoreModel&>(*w);
        const auto& b = dynamic_cast<const ResidualScoreModel&>(*c);
        EXPECT_FALSE(a.retained_data().ys.empty());
        EXPECT_EQ(a.retained_data().name, b.retained_data().name);
        EXPECT_EQ(a.retained_data().dims, b.retained_data().dims);
        EXPECT_EQ(a.retained_data().xs, b.retained_data().xs);
        EXPECT_EQ(a.retained_data().ys, b.retained_data().ys);
        EXPECT_EQ(a.retained_is_poison(), b.retained_is_poison());
        break;
      }
    }
  }
}

// Repeated park/unpark cycles — including several in a row with no round
// in between — accumulate no drift.
TEST_F(HibernationTest, RepeatedCyclesAccumulateNoDrift) {
  TenantSpec spec = SpecFor(TenantModelKind::kDistance);
  SessionFleet reference = MakeFleet(spec);
  for (int r = 0; r < 6; ++r) ASSERT_TRUE(reference.StepTenant(0).ok());

  SessionFleet fleet = MakeFleet(spec);
  for (int r = 0; r < 6; ++r) {
    ASSERT_TRUE(fleet.HibernateTenant(0).ok());
    ASSERT_TRUE(fleet.RehydrateTenant(0).ok());
    ASSERT_TRUE(fleet.HibernateTenant(0).ok());
    ASSERT_TRUE(fleet.RehydrateTenant(0).ok());
    ASSERT_TRUE(fleet.StepTenant(0).ok());
  }
  ExpectRecordsBitIdentical(reference.TenantRounds(0).ValueOrDie(),
                            fleet.TenantRounds(0).ValueOrDie());
}

// Finish() must account hibernated tenants from their parked checkpoints:
// a fleet finished while parked reports the same per-tenant books as one
// finished while resident.
TEST_F(HibernationTest, FinishAccountsParkedTenants) {
  TenantSpec spec = SpecFor(TenantModelKind::kScalar);
  SessionFleet resident = MakeFleet(spec);
  for (int r = 0; r < 5; ++r) ASSERT_TRUE(resident.StepTenant(0).ok());
  FleetSummary expected = resident.Finish();

  SessionFleet parked = MakeFleet(spec);
  for (int r = 0; r < 5; ++r) ASSERT_TRUE(parked.StepTenant(0).ok());
  ASSERT_TRUE(parked.HibernateTenant(0).ok());
  FleetSummary actual = parked.Finish();
  ASSERT_EQ(actual.tenants.size(), 1u);
  ExpectSummaryBitIdentical(expected.tenants[0], actual.tenants[0]);
  EXPECT_EQ(expected.total_received, actual.total_received);
  EXPECT_EQ(expected.total_kept, actual.total_kept);
}

// Mode and state guards: the per-tenant surface refuses outside
// per-tenant mode, the lockstep surface (StepRound, Restore) refuses inside
// it, double hibernation/rehydration is refused, and a hibernated tenant
// cannot step.
TEST_F(HibernationTest, GuardsRejectInvalidTransitions) {
  TenantSpec spec = SpecFor(TenantModelKind::kScalar);
  FleetConfig config;
  config.threads = 1;
  SessionFleet fleet(config, {spec});
  ASSERT_TRUE(fleet.Bootstrap().ok());
  ASSERT_TRUE(fleet.StepRound().ok());
  FleetCheckpoint checkpoint = fleet.Checkpoint().ValueOrDie();

  // Lockstep mode: per-tenant calls are refused.
  EXPECT_EQ(fleet.StepTenant(0).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(fleet.HibernateTenant(0).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(fleet.RehydrateTenant(0).code(), StatusCode::kFailedPrecondition);

  ASSERT_TRUE(fleet.BeginPerTenantStepping().ok());
  // Per-tenant mode: lockstep stepping is refused.
  EXPECT_EQ(fleet.StepRound().status().code(),
            StatusCode::kFailedPrecondition);

  EXPECT_EQ(fleet.StepTenant(7).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(fleet.AttachTenantObservability(7, SessionObs{}).code(),
            StatusCode::kOutOfRange);
  ASSERT_TRUE(fleet.HibernateTenant(0).ok());
  // A lockstep restore would leave the fleet in per-tenant mode over
  // sessions it just rewound; it is refused and changes nothing.
  EXPECT_EQ(fleet.Restore(checkpoint).code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(fleet.per_tenant_mode());
  EXPECT_FALSE(fleet.TenantResident(0));
  EXPECT_EQ(fleet.HibernateTenant(0).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(fleet.StepTenant(0).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(fleet.RehydrateTenant(0).ok());
  EXPECT_EQ(fleet.RehydrateTenant(0).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(fleet.StepTenant(0).ok());

  // Re-Bootstrap returns the fleet to lockstep mode.
  ASSERT_TRUE(fleet.Bootstrap().ok());
  EXPECT_FALSE(fleet.per_tenant_mode());
  EXPECT_TRUE(fleet.StepRound().ok());
}

// Fleet checkpoints are lockstep-only and need live sessions: refused
// before Bootstrap() and in per-tenant mode (where a hibernated tenant has
// no session to checkpoint), and available again after re-Bootstrap().
TEST_F(HibernationTest, CheckpointRefusedOutsideBootstrappedLockstep) {
  TenantSpec spec = SpecFor(TenantModelKind::kScalar);
  FleetConfig config;
  config.threads = 1;
  SessionFleet fleet(config, {spec});
  EXPECT_EQ(fleet.Checkpoint().status().code(),
            StatusCode::kFailedPrecondition);

  ASSERT_TRUE(fleet.Bootstrap().ok());
  ASSERT_TRUE(fleet.BeginPerTenantStepping().ok());
  EXPECT_EQ(fleet.Checkpoint().status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(fleet.HibernateTenant(0).ok());
  EXPECT_EQ(fleet.Checkpoint().status().code(),
            StatusCode::kFailedPrecondition);

  ASSERT_TRUE(fleet.Bootstrap().ok());
  ASSERT_TRUE(fleet.StepRound().ok());
  Result<FleetCheckpoint> checkpoint = fleet.Checkpoint();
  ASSERT_TRUE(checkpoint.ok());
  EXPECT_EQ(checkpoint->next_round, 2);
}

}  // namespace
}  // namespace itrim
