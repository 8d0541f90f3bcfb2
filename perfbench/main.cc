// The repository benchmark.
//
// Runs one named workload through the public IngestService / SessionFleet
// API, gates the service's per-tenant round records against a
// single-thread replay of the same admitted arrival stream, and prints the
// metrics as one JSON line (the last line of stdout):
//
//   perfbench --workload churn|hot|bulk --seed N --seconds S --trace 0|1
//             [--spans PATH]
//
// --trace 0 measures the end-to-end metrics with no tracing. --trace 1
// records spans around every call the benchmark makes into the ingest,
// fleet and game layers and reports the per-layer metrics; with --spans
// the last traced repetition's spans are written to PATH at exit.
// README.md in this directory has the workload rationale, the metric
// glossary and the layer -> end-to-end map.
#include <dirent.h>
#include <sched.h>
#include <sys/types.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/generators.h"
#include "exp/schemes.h"
#include "fleet/session_fleet.h"
#include "fleet/tenant.h"
#include "ingest/ingest.h"
#include "ldp/attacks.h"
#include "ldp/mechanism.h"
#include "ml/linreg.h"
#include "obs/metrics.h"
#include "stats/quantile.h"

namespace itrim::perfbench {
namespace {

constexpr int kShards = 2;
constexpr size_t kModels = 4;  // tenant i runs model kind i % 4
constexpr size_t kLatencyProbes = 1000;
constexpr size_t kProbeTenantsPerModel = 32;
constexpr int kIngestPassesPerReplay = 2;  // untraced runs

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values) {
  return values.empty() ? 0.0 : Quantile(std::move(values), 0.5);
}

// Kernel thread ids of this process, ascending.
std::vector<pid_t> ThreadIds() {
  std::vector<pid_t> tids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return tids;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] != '.') tids.push_back(std::atoi(entry->d_name));
  }
  closedir(dir);
  std::sort(tids.begin(), tids.end());
  return tids;
}

// Keeps the threads of the load apart: shard worker k runs on the k-th
// allowed CPU alone, and the main thread (producer and replay) on the
// remaining ones. Left alone, the scheduler stacked both workers on one CPU
// in many runs, for a whole ingest pass, and halved hot's throughput. With
// fewer than shards + 1 CPUs nothing is pinned.
class CpuPlan {
 public:
  CpuPlan() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus_.push_back(c);
    }
    if (cpus_.size() < static_cast<size_t>(kShards) + 1) {
      cpus_.clear();
      return;
    }
    cpu_set_t main_set;
    CPU_ZERO(&main_set);
    for (size_t k = kShards; k < cpus_.size(); ++k) CPU_SET(cpus_[k], &main_set);
    sched_setaffinity(0, sizeof(main_set), &main_set);
  }

  // Call right before IngestService::Start(); AfterStart() gives each
  // worker thread that Start() spawned a CPU of its own.
  std::vector<pid_t> BeforeStart() const { return ThreadIds(); }
  void AfterStart(const std::vector<pid_t>& before) const {
    if (cpus_.empty()) return;
    size_t k = 0;
    for (pid_t tid : ThreadIds()) {
      if (std::find(before.begin(), before.end(), tid) != before.end()) continue;
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpus_[k++ % kShards], &set);
      sched_setaffinity(tid, sizeof(set), &set);
    }
  }

 private:
  std::vector<int> cpus_;  // allowed CPUs; empty = no pinning
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Shape { kChurn, kHot, kBulk };

struct Workload {
  const char* name;
  Shape shape;
  size_t tenants;
  size_t round_size;
  size_t bootstrap_size;
  size_t board_capacity;
  bool resident_cap;  ///< cap residency at a quarter of the fleet
  int rounds;         ///< churn/bulk: rounds per tenant per repetition
  uint64_t reports;   ///< hot: reports per repetition
};

constexpr Workload kWorkloads[] = {
    {"churn", Shape::kChurn, 1000, 30, 40, 512, true, 8, 0},
    {"hot", Shape::kHot, 1000, 30, 40, 512, false, 0, 3000000},
    {"bulk", Shape::kBulk, 64, 500, 500, 20000, false, 80, 0},
};

size_t ResidentCapPerShard(const Workload& w) {
  return w.resident_cap ? std::max<size_t>(1, w.tenants / kShards / 4) : 0;
}

// Read-only data sources shared by every tenant of every fleet.
struct Sources {
  std::vector<double> pool;
  Dataset data = MakeControl(29);
  std::vector<double> population;
  PiecewiseMechanism mechanism{2.0};
  RegressionData regression = MakeSyntheticRegression(600, 3, 0.05, 47);

  Sources() {
    Rng rng(71);
    for (int i = 0; i < 4000; ++i) pool.push_back(rng.Uniform());
    for (int i = 0; i < 3000; ++i) population.push_back(rng.Uniform(-1, 1));
  }
};

// A fleet plus the LDP attack instances its specs borrow (attacks are not
// promised stateless, so every LDP tenant gets its own).
struct FleetBundle {
  std::vector<std::unique_ptr<LdpAttack>> attacks;
  std::unique_ptr<SessionFleet> fleet;
};

FleetBundle MakeFleet(const Workload& w, Sources* src, uint64_t fleet_seed) {
  FleetBundle bundle;
  const std::vector<SchemeId> schemes = AllSchemes();
  std::vector<TenantSpec> specs(w.tenants);
  for (size_t i = 0; i < w.tenants; ++i) {
    TenantSpec& spec = specs[i];
    spec.name = "t";
    spec.name += std::to_string(i);
    spec.model = static_cast<TenantModelKind>(i % kModels);
    spec.scheme = schemes[i % schemes.size()];
    spec.game.round_size = w.round_size;
    spec.game.bootstrap_size = w.bootstrap_size;
    spec.game.board_capacity = w.board_capacity;
    spec.game.attack_ratio = 0.10 + 0.05 * static_cast<double>(i % 3);
    spec.game.round_mass_trimming = (i / kModels) % 2 == 0;
    switch (spec.model) {
      case TenantModelKind::kScalar:
        spec.scalar_pool = &src->pool;
        break;
      case TenantModelKind::kDistance:
        spec.dataset = &src->data;
        break;
      case TenantModelKind::kLdp:
        spec.ldp_population = &src->population;
        spec.ldp_mechanism = &src->mechanism;
        bundle.attacks.push_back(
            std::make_unique<InputManipulationAttack>(1.0));
        spec.ldp_attack = bundle.attacks.back().get();
        break;
      case TenantModelKind::kResidual:
        spec.regression = &src->regression;
        spec.reference = TenantReferenceKind::kFittedModel;
        break;
    }
  }
  FleetConfig config;
  config.threads = 1;
  config.seed = fleet_seed;
  bundle.fleet = std::make_unique<SessionFleet>(config, std::move(specs));
  return bundle;
}

// The generated arrival stream: the only input the program sees.
struct Stream {
  std::vector<IngestEvent> events;
  std::vector<uint64_t> admitted;  ///< reports per tenant
  uint64_t reports = 0;
  uint64_t rounds = 0;  ///< rounds the stream plays, summed over tenants
};

Stream MakeStream(const Workload& w, uint64_t stream_seed) {
  Stream stream;
  Rng rng(stream_seed);
  const uint32_t rs = static_cast<uint32_t>(w.round_size);
  auto push = [&stream](size_t tenant, uint32_t reports) {
    stream.events.push_back({tenant, reports});
  };
  std::vector<size_t> order(w.tenants);
  for (size_t i = 0; i < w.tenants; ++i) order[i] = i;
  switch (w.shape) {
    case Shape::kChurn:
      // Round-robin in one seeded tenant order; each round arrives as two
      // events split at a seeded point.
      rng.Shuffle(&order);
      for (int r = 0; r < w.rounds; ++r) {
        for (size_t t : order) {
          const uint32_t first = 1 + static_cast<uint32_t>(rng.UniformInt(rs - 1));
          push(t, first);
          push(t, rs - first);
        }
      }
      break;
    case Shape::kHot: {
      // Zipf(1.1) popularity: tenant k has rank k + 1 (tenant 0 is the
      // hottest); the seed drives the draws and the 1-16 event sizes.
      std::vector<double> cdf(w.tenants);
      double total = 0.0;
      for (size_t k = 0; k < w.tenants; ++k) {
        total += std::pow(static_cast<double>(k + 1), -1.1);
        cdf[k] = total;
      }
      for (double& c : cdf) c /= total;
      uint64_t sent = 0;
      while (sent < w.reports) {
        const double u = rng.Uniform();
        const size_t t = std::min<size_t>(
            static_cast<size_t>(std::upper_bound(cdf.begin(), cdf.end(), u) -
                                cdf.begin()),
            w.tenants - 1);
        const uint32_t size = 1 + static_cast<uint32_t>(rng.UniformInt(16));
        push(t, size);
        sent += size;
      }
      break;
    }
    case Shape::kBulk:
      // Full-round events, every tenant once per pass in a seeded order.
      for (int r = 0; r < w.rounds; ++r) {
        rng.Shuffle(&order);
        for (size_t t : order) push(t, rs);
      }
      break;
  }
  stream.admitted.assign(w.tenants, 0);
  for (const IngestEvent& e : stream.events) {
    stream.admitted[e.tenant_id] += e.reports;
    stream.reports += e.reports;
  }
  for (uint64_t a : stream.admitted) stream.rounds += a / rs;
  return stream;
}

// ---------------------------------------------------------------------------
// Span recorder: preallocated, filled from the benchmark's own calls.
// ---------------------------------------------------------------------------

enum class SpanName : uint16_t {
  kBenchIngest,     // root: first Submit .. Flush return
  kIngestSubmit,
  kIngestFlush,
  kFleetBootstrap,  // root: setup of the ingest fleet
  kBenchLatency,    // root: closed-loop latency probes
  kIngestRoundProbe,
  kIngestHandoffProbe,
  kBenchReplay,     // root: single-thread replay
  kFleetStep,
  kFleetHibernate,
  kFleetRehydrate,
  kBenchProbe,      // root: checkpoint / hibernate / rehydrate decomposition
  kGameCheckpoint,
  kFleetMaterialize,
  kGameRestore,
  kCount,
};
constexpr size_t kNumSpanNames = static_cast<size_t>(SpanName::kCount);
constexpr const char* kSpanNames[kNumSpanNames] = {
    "bench.ingest",    "ingest.submit",      "ingest.flush",
    "fleet.bootstrap", "bench.latency",      "ingest.round_probe",
    "ingest.handoff_probe",                  "bench.replay",
    "fleet.step",      "fleet.hibernate",    "fleet.rehydrate",
    "bench.probe",     "game.checkpoint",    "fleet.materialize",
    "game.restore",
};

// Layer of a span: the prefix of its name; the benchmark's own root spans
// ("bench.*") carry the unattributed remainder.
std::string LayerOf(SpanName name) {
  const std::string full = kSpanNames[static_cast<size_t>(name)];
  const std::string layer = full.substr(0, full.find('.'));
  return layer == "bench" ? "unattributed" : layer;
}

constexpr uint32_t kNoTenant = UINT32_MAX;

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint32_t tenant = kNoTenant;
  int32_t round = -1;
  SpanName name = SpanName::kCount;
};

class SpanRecorder {
 public:
  void Reset(size_t capacity) {
    spans_.clear();
    spans_.reserve(capacity);
  }
  int32_t Begin(SpanName name, int32_t parent, uint32_t tenant = kNoTenant) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return -1;
    }
    Span span;
    span.name = name;
    span.parent = parent;
    span.tenant = tenant;
    span.start_ns = NowNs();
    spans_.push_back(span);
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t id, int32_t round = -1) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    spans_[static_cast<size_t>(id)].round = round;
  }
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

// RAII span around one call; a null recorder records nothing.
class Scoped {
 public:
  Scoped(SpanRecorder* rec, SpanName name, int32_t parent,
         uint32_t tenant = kNoTenant)
      : rec_(rec), id_(rec ? rec->Begin(name, parent, tenant) : -1) {}
  ~Scoped() {
    if (rec_ != nullptr) rec_->End(id_, round_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  int32_t id() const { return id_; }
  void set_round(int round) { round_ = round; }

 private:
  SpanRecorder* rec_;
  int32_t id_;
  int round_ = -1;
};

// ---------------------------------------------------------------------------
// Correctness gate and error accounting
// ---------------------------------------------------------------------------

using Books = std::vector<std::vector<RoundRecord>>;

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// First difference between two record books ("" when bit-identical).
std::string FirstDifference(const Books& a, const Books& b) {
  if (a.size() != b.size()) return "tenant count";
  for (size_t i = 0; i < a.size(); ++i) {
    const size_t n = std::min(a[i].size(), b[i].size());
    for (size_t r = 0; r < n; ++r) {
      const RoundRecord& x = a[i][r];
      const RoundRecord& y = b[i][r];
      if (x.round != y.round ||
          !BitEqual(x.collector_percentile, y.collector_percentile) ||
          !BitEqual(x.injection_percentile, y.injection_percentile) ||
          !BitEqual(x.cutoff, y.cutoff) || !BitEqual(x.quality, y.quality) ||
          x.benign_received != y.benign_received ||
          x.poison_received != y.poison_received ||
          x.benign_kept != y.benign_kept || x.poison_kept != y.poison_kept) {
        return "tenant " + std::to_string(i) + " round " +
               std::to_string(r + 1);
      }
    }
    if (a[i].size() != b[i].size()) {
      return "tenant " + std::to_string(i) + " round " +
             std::to_string(n + 1) + " (round counts " +
             std::to_string(a[i].size()) + " vs " +
             std::to_string(b[i].size()) + ")";
    }
  }
  return "";
}

// Each tenant must have played exactly admitted / round_size rounds.
std::string CheckRoundCounts(const Books& books, const Stream& stream,
                             size_t round_size) {
  for (size_t i = 0; i < books.size(); ++i) {
    const uint64_t want = stream.admitted[i] / round_size;
    if (books[i].size() != want) {
      return "tenant " + std::to_string(i) + " played " +
             std::to_string(books[i].size()) + " rounds, admitted " +
             std::to_string(stream.admitted[i]) + " reports = " +
             std::to_string(want) + " rounds";
    }
  }
  return "";
}

// Submit/Flush/Stop outcomes, counted from the returned Statuses.
struct OpCounts {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;

  void Count(const Status& status, const char* what) {
    ++attempted;
    if (status.ok()) return;
    if (failed++ == 0) first_error = std::string(what) + ": " + status.ToString();
  }
};

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) Fatal(std::string(what) + ": " + status.ToString());
}

Books CollectBooks(const SessionFleet& fleet) {
  Books books(fleet.num_tenants());
  for (size_t i = 0; i < books.size(); ++i) {
    Result<std::vector<RoundRecord>> rounds = fleet.TenantRounds(i);
    CheckOk(rounds.status(), "TenantRounds");
    books[i] = std::move(rounds).ValueOrDie();
  }
  return books;
}

// ---------------------------------------------------------------------------
// The threaded ingest pass
// ---------------------------------------------------------------------------

struct IngestRun {
  double setup_s = 0.0;
  double wall_s = 0.0;
  Books books;
  IngestStats stats;
  std::vector<size_t> shard_of;
  obs::MetricsSnapshot scrape;  // traced runs only
};

IngestRun RunIngest(const Workload& w, Sources* src, const Stream& stream,
                    uint64_t fleet_seed, const CpuPlan& cpus,
                    SpanRecorder* rec, OpCounts* ops) {
  IngestRun run;
  const int64_t setup_start = NowNs();
  FleetBundle bundle = MakeFleet(w, src, fleet_seed);
  {
    Scoped span(rec, SpanName::kFleetBootstrap, -1);
    CheckOk(bundle.fleet->Bootstrap(), "fleet Bootstrap");
  }
  IngestConfig config;
  config.shards = kShards;
  config.queue_capacity = 4096;
  config.batch_max = 256;
  config.max_resident_per_shard = ResidentCapPerShard(w);
  // Traced runs turn on deep telemetry for the refit counters.
  config.observe_rounds = rec != nullptr;
  IngestService service(config, bundle.fleet.get());
  const std::vector<pid_t> threads = cpus.BeforeStart();
  CheckOk(service.Start(), "IngestService Start");
  cpus.AfterStart(threads);
  run.setup_s = static_cast<double>(NowNs() - setup_start) * 1e-9;

  const int64_t start = NowNs();
  {
    Scoped root(rec, SpanName::kBenchIngest, -1);
    for (const IngestEvent& event : stream.events) {
      Scoped span(rec, SpanName::kIngestSubmit, root.id(),
                  static_cast<uint32_t>(event.tenant_id));
      ops->Count(service.Submit(event), "Submit");
    }
    Scoped span(rec, SpanName::kIngestFlush, root.id());
    ops->Count(service.Flush(), "Flush");
  }
  run.wall_s = static_cast<double>(NowNs() - start) * 1e-9;

  run.stats = service.Stats();
  if (rec != nullptr) run.scrape = service.Scrape();
  run.books = CollectBooks(*bundle.fleet);
  run.shard_of.resize(w.tenants);
  for (size_t i = 0; i < w.tenants; ++i) run.shard_of[i] = service.ShardOf(i);

  if (rec != nullptr) {
    // Closed-loop latency probes after the gated stream: a round-completing
    // Submit + Flush (round latency), then a one-report Submit + Flush that
    // plays nothing (queue handoff and wake-up only).
    std::vector<uint32_t> pending(w.tenants);
    for (size_t i = 0; i < w.tenants; ++i) {
      pending[i] = static_cast<uint32_t>(stream.admitted[i] % w.round_size);
    }
    const uint32_t rs = static_cast<uint32_t>(w.round_size);
    Scoped root(rec, SpanName::kBenchLatency, -1);
    for (size_t k = 0; k < kLatencyProbes; ++k) {
      const size_t t = (k * 7919) % w.tenants;
      {
        Scoped span(rec, SpanName::kIngestRoundProbe, root.id(),
                    static_cast<uint32_t>(t));
        ops->Count(service.Submit({t, rs - pending[t]}), "Submit");
        ops->Count(service.Flush(), "Flush");
      }
      {
        Scoped span(rec, SpanName::kIngestHandoffProbe, root.id(),
                    static_cast<uint32_t>(t));
        ops->Count(service.Submit({t, 1}), "Submit");
        ops->Count(service.Flush(), "Flush");
      }
      pending[t] = 1;
    }
  }
  ops->Count(service.Stop(), "Stop");
  return run;
}

// ---------------------------------------------------------------------------
// The single-thread replay
// ---------------------------------------------------------------------------

// Per-shard LRU of resident tenants (intrusive doubly linked lists), the
// replay's version of the service's residency bound: evictions follow the
// arrival order event by event instead of the workers' batch boundaries.
class ResidencyLru {
 public:
  ResidencyLru(size_t tenants, size_t shards)
      : prev_(tenants, kNil), next_(tenants, kNil), head_(shards, kNil),
        tail_(shards, kNil), count_(shards, 0) {}

  void PushBack(size_t shard, size_t t) {
    prev_[t] = tail_[shard];
    next_[t] = kNil;
    if (tail_[shard] != kNil) next_[tail_[shard]] = t;
    tail_[shard] = t;
    if (head_[shard] == kNil) head_[shard] = t;
    ++count_[shard];
  }
  void Remove(size_t shard, size_t t) {
    if (prev_[t] != kNil) next_[prev_[t]] = next_[t];
    else head_[shard] = next_[t];
    if (next_[t] != kNil) prev_[next_[t]] = prev_[t];
    else tail_[shard] = prev_[t];
    --count_[shard];
  }
  void Touch(size_t shard, size_t t) {
    if (tail_[shard] == t) return;
    Remove(shard, t);
    PushBack(shard, t);
  }
  size_t Oldest(size_t shard) const { return head_[shard]; }
  size_t count(size_t shard) const { return count_[shard]; }

 private:
  static constexpr size_t kNil = SIZE_MAX;
  std::vector<size_t> prev_, next_, head_, tail_, count_;
};

struct ReplayRun {
  double wall_s = 0.0;
  Books books;
  uint64_t rounds = 0;
  uint64_t hibernations = 0;
  uint64_t rehydrations = 0;
  std::array<uint64_t, kModels> rows{};  ///< rows received per model kind
  double parked_bytes_per_tenant = 0.0;  // probe only
};

size_t ParkedBytes(const TenantHibernation& parked) {
  const SessionCheckpoint& c = parked.checkpoint;
  return sizeof(TenantHibernation) +
         c.records.capacity() * sizeof(RoundRecord) +
         c.board.values.capacity() * sizeof(double);
}

// Decomposes hibernation and rehydration on the replayed fleet: every
// resident tenant is checkpointed and parked, then a sample per model is
// rebuilt piecewise (MaterializeTenant + TrimmingSession::Restore) and
// rehydrated through the fleet.
void RunProbe(SessionFleet* fleet, SpanRecorder* rec, ReplayRun* run) {
  Scoped root(rec, SpanName::kBenchProbe, -1);
  const size_t n = fleet->num_tenants();
  for (size_t i = 0; i < n; ++i) {
    if (!fleet->TenantResident(i)) continue;
    const uint32_t t = static_cast<uint32_t>(i);
    {
      Scoped span(rec, SpanName::kGameCheckpoint, root.id(), t);
      [[maybe_unused]] const SessionCheckpoint checkpoint =
          fleet->tenant(i).session->Checkpoint();
    }
    Scoped span(rec, SpanName::kFleetHibernate, root.id(), t);
    CheckOk(fleet->HibernateTenant(i), "HibernateTenant");
  }
  double parked = 0.0;
  for (size_t i = 0; i < n; ++i) {
    parked += static_cast<double>(ParkedBytes(*fleet->tenant(i).hibernated));
  }
  run->parked_bytes_per_tenant = parked / static_cast<double>(n);
  for (size_t m = 0; m < kModels; ++m) {
    for (size_t k = 0; k < kProbeTenantsPerModel; ++k) {
      const size_t i = m + k * kModels;
      if (i >= n) break;
      const uint32_t t = static_cast<uint32_t>(i);
      const Tenant& parked_tenant = fleet->tenant(i);
      Result<Tenant> fresh = [&] {
        Scoped span(rec, SpanName::kFleetMaterialize, root.id(), t);
        return MaterializeTenant(parked_tenant.spec, parked_tenant.config.seed);
      }();
      CheckOk(fresh.status(), "MaterializeTenant");
      {
        Scoped span(rec, SpanName::kGameRestore, root.id(), t);
        CheckOk(fresh.ValueOrDie().session->Restore(
                    parked_tenant.hibernated->checkpoint),
                "TrimmingSession Restore");
      }
      Scoped span(rec, SpanName::kFleetRehydrate, root.id(), t);
      CheckOk(fleet->RehydrateTenant(i), "RehydrateTenant");
    }
  }
}

ReplayRun RunReplay(const Workload& w, Sources* src, const Stream& stream,
                    uint64_t fleet_seed, const std::vector<size_t>& shard_of,
                    SpanRecorder* rec) {
  ReplayRun run;
  FleetBundle bundle = MakeFleet(w, src, fleet_seed);
  SessionFleet& fleet = *bundle.fleet;
  CheckOk(fleet.Bootstrap(), "fleet Bootstrap");
  CheckOk(fleet.BeginPerTenantStepping(), "BeginPerTenantStepping");

  const size_t cap = ResidentCapPerShard(w);
  const uint32_t rs = static_cast<uint32_t>(w.round_size);
  ResidencyLru lru(w.tenants, kShards);
  for (size_t i = 0; i < w.tenants; ++i) lru.PushBack(shard_of[i], i);
  std::vector<uint32_t> pending(w.tenants, 0);
  std::vector<char> resident(w.tenants, 1);

  const int64_t start = NowNs();
  {
    Scoped root(rec, SpanName::kBenchReplay, -1);
    for (const IngestEvent& event : stream.events) {
      const size_t t = static_cast<size_t>(event.tenant_id);
      const size_t shard = shard_of[t];
      const uint32_t id = static_cast<uint32_t>(t);
      if (resident[t]) lru.Touch(shard, t);
      pending[t] += event.reports;
      while (pending[t] >= rs) {
        if (!resident[t]) {
          Scoped span(rec, SpanName::kFleetRehydrate, root.id(), id);
          CheckOk(fleet.RehydrateTenant(t), "RehydrateTenant");
          resident[t] = 1;
          lru.PushBack(shard, t);
          ++run.rehydrations;
        }
        Scoped span(rec, SpanName::kFleetStep, root.id(), id);
        Result<RoundRecord> record = fleet.StepTenant(t);
        CheckOk(record.status(), "StepTenant");
        const RoundRecord& r = record.ValueOrDie();
        span.set_round(r.round);
        run.rows[t % kModels] += r.benign_received + r.poison_received;
        ++run.rounds;
        pending[t] -= rs;
      }
      while (cap > 0 && lru.count(shard) > cap) {
        const size_t victim = lru.Oldest(shard);
        Scoped span(rec, SpanName::kFleetHibernate, root.id(),
                    static_cast<uint32_t>(victim));
        CheckOk(fleet.HibernateTenant(victim), "HibernateTenant");
        lru.Remove(shard, victim);
        resident[victim] = 0;
        ++run.hibernations;
      }
    }
  }
  run.wall_s = static_cast<double>(NowNs() - start) * 1e-9;
  run.books = CollectBooks(fleet);
  if (rec != nullptr) RunProbe(&fleet, rec, &run);
  return run;
}

// ---------------------------------------------------------------------------
// Gate + metrics
// ---------------------------------------------------------------------------

struct Gate {
  bool ok = true;
  std::string first_failure;

  void Check(const std::string& failure, const char* what) {
    if (failure.empty() || !ok) return;
    ok = false;
    first_failure = std::string(what) + ": " + failure;
  }
};

void GateRepetition(const Workload& w, const Stream& stream,
                    const IngestRun& ingest, const Books& replay, Gate* gate) {
  gate->Check(FirstDifference(ingest.books, replay),
              "ingest records differ from the single-thread replay at");
  gate->Check(CheckRoundCounts(ingest.books, stream, w.round_size),
              "ingest round count");
  gate->Check(CheckRoundCounts(replay, stream, w.round_size),
              "replay round count");
}

// Defense outcome of one record book: the mean over tenants of each
// tenant's poison kept / poison received (tenants that received poison) and
// benign trimmed / benign received (tenants that played a round). Every
// tenant weighs the same, so the few hottest tenants of a skewed stream do
// not decide the figure alone.
struct Quality {
  double poison_survival = 0.0;
  double benign_loss = 0.0;
};

Quality MeasureQuality(const Books& books) {
  double survival = 0.0, loss = 0.0;
  size_t poisoned = 0, played = 0;
  for (const auto& book : books) {
    uint64_t poison = 0, poison_kept = 0, benign = 0, benign_kept = 0;
    for (const RoundRecord& r : book) {
      poison += r.poison_received;
      poison_kept += r.poison_kept;
      benign += r.benign_received;
      benign_kept += r.benign_kept;
    }
    if (poison > 0) {
      survival += static_cast<double>(poison_kept) / static_cast<double>(poison);
      ++poisoned;
    }
    if (benign > 0) {
      loss += static_cast<double>(benign - benign_kept) /
              static_cast<double>(benign);
      ++played;
    }
  }
  Quality q;
  if (poisoned > 0) q.poison_survival = survival / static_cast<double>(poisoned);
  if (played > 0) q.benign_loss = loss / static_cast<double>(played);
  return q;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string ResultJson(bool correct, const OpCounts& ops,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(ops.attempted);
  out += ", \"failed\": " + std::to_string(ops.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (!std::isfinite(metrics[i].value)) {
      Fatal("metric " + metrics[i].name + " is not finite");
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

// Peak resident set of this process so far (VmHWM), in MiB.
double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) Fatal("cannot read /proc/self/status");
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atof(line + 6);
  }
  std::fclose(f);
  if (kb <= 0.0) Fatal("VmHWM missing from /proc/self/status");
  return kb / 1024.0;
}

// Aggregates of the traced repetitions.
struct TraceFold {
  // Durations (ns) by span name and model kind (index kModels: no tenant),
  // the first kMaxSamples of each: enough for p50/p99 at bounded memory.
  static constexpr size_t kMaxSamples = size_t{1} << 17;
  std::array<std::array<std::vector<double>, kModels + 1>, kNumSpanNames> durs;
  std::array<double, kModels> replay_step_ns{};  // all replay steps
  // Self time (ns) by span name under the replay, ingest and probe roots.
  std::array<double, kNumSpanNames> replay_self{};
  std::array<double, kNumSpanNames> ingest_self{};
  std::array<double, kNumSpanNames> probe_self{};
  double replay_wall_ns = 0.0;
  double ingest_wall_ns = 0.0;
  double probe_wall_ns = 0.0;
  std::array<uint64_t, kModels> replay_rows{};

  void Add(const std::vector<Span>& spans) {
    std::vector<double> child(spans.size(), 0.0);
    std::vector<size_t> root(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double d = static_cast<double>(s.end_ns - s.start_ns);
      if (s.parent >= 0) {
        child[static_cast<size_t>(s.parent)] += d;
        root[i] = root[static_cast<size_t>(s.parent)];
      } else {
        root[i] = i;
      }
      const size_t model = s.tenant == kNoTenant ? kModels : s.tenant % kModels;
      std::vector<double>& samples = durs[static_cast<size_t>(s.name)][model];
      if (samples.size() < kMaxSamples) samples.push_back(d);
      if (s.name == SpanName::kFleetStep) replay_step_ns[model] += d;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double self =
          static_cast<double>(s.end_ns - s.start_ns) - child[i];
      const SpanName root_name = spans[root[i]].name;
      if (root_name == SpanName::kBenchReplay) {
        replay_self[static_cast<size_t>(s.name)] += self;
      } else if (root_name == SpanName::kBenchIngest) {
        ingest_self[static_cast<size_t>(s.name)] += self;
      } else if (root_name == SpanName::kBenchProbe) {
        probe_self[static_cast<size_t>(s.name)] += self;
      }
      if (s.parent >= 0) continue;
      const double wall = static_cast<double>(s.end_ns - s.start_ns);
      if (s.name == SpanName::kBenchReplay) replay_wall_ns += wall;
      if (s.name == SpanName::kBenchIngest) ingest_wall_ns += wall;
      if (s.name == SpanName::kBenchProbe) probe_wall_ns += wall;
    }
  }

  std::vector<double> All(SpanName name) const {
    std::vector<double> out;
    for (const auto& v : durs[static_cast<size_t>(name)]) {
      out.insert(out.end(), v.begin(), v.end());
    }
    return out;
  }
  const std::vector<double>& Of(SpanName name, size_t model) const {
    return durs[static_cast<size_t>(name)][model];
  }
  double P(SpanName name, double q) const {
    std::vector<double> all = All(name);
    return all.empty() ? 0.0 : Quantile(std::move(all), q);
  }
};

// Prints the self-time table of one root: per span name, per layer, and
// the check that the self times sum to the root's wall.
void PrintSelfTimes(const char* title,
                    const std::array<double, kNumSpanNames>& self,
                    double wall_ns) {
  std::printf("%s: wall %.3f ms\n", title, wall_ns * 1e-6);
  std::vector<std::pair<std::string, double>> layers;
  double sum = 0.0;
  for (size_t n = 0; n < kNumSpanNames; ++n) {
    if (self[n] == 0.0) continue;
    const std::string layer = LayerOf(static_cast<SpanName>(n));
    std::printf("  %-22s %-13s %12.3f ms %6.2f%%\n", kSpanNames[n],
                layer.c_str(), self[n] * 1e-6, 100.0 * self[n] / wall_ns);
    sum += self[n];
    auto it = std::find_if(layers.begin(), layers.end(),
                           [&](const auto& l) { return l.first == layer; });
    if (it == layers.end()) layers.emplace_back(layer, self[n]);
    else it->second += self[n];
  }
  for (const auto& [layer, ns] : layers) {
    std::printf("  layer %-16s %12.3f ms %6.2f%%\n", layer.c_str(), ns * 1e-6,
                100.0 * ns / wall_ns);
  }
  std::printf("  self-time sum %.3f ms = wall %.3f ms (diff %.6f ms)\n",
              sum * 1e-6, wall_ns * 1e-6, (sum - wall_ns) * 1e-6);
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Fatal("cannot write spans to " + path);
  std::fprintf(f, "id\tname\tlayer\tparent\ttenant\tround\tstart_ns\tend_ns\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%zu\t%s\t%s\t%d\t%ld\t%d\t%lld\t%lld\n", i,
                 kSpanNames[static_cast<size_t>(s.name)],
                 LayerOf(s.name).c_str(), s.parent,
                 s.tenant == kNoTenant ? -1L : static_cast<long>(s.tenant),
                 s.round, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  std::fclose(f);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string spans;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Fatal("missing value for " + flag);
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value);
    } else if (flag == "--spans") {
      args.spans = value;
    } else {
      Fatal("unknown flag " + flag);
    }
  }
  if (!have_workload) Fatal("--workload is required");
  if (args.seconds <= 0.0) Fatal("--seconds must be positive");
  if (args.trace != 0 && args.trace != 1) Fatal("--trace must be 0 or 1");
  return args;
}

// One run: the workload, its generated stream and the outcome accounting.
struct Bench {
  const Workload& w;
  const Stream& stream;
  uint64_t seed;
  uint64_t fleet_seed;
  int64_t deadline_ns;
  const CpuPlan& cpus;
  Sources* sources;
  std::vector<size_t> shard_of;  // the service's tenant -> shard map
  OpCounts ops;
  Gate gate;

  IngestRun Ingest(SpanRecorder* rec) {
    return RunIngest(w, sources, stream, fleet_seed, cpus, rec, &ops);
  }
  ReplayRun Replay(SpanRecorder* rec) {
    return RunReplay(w, sources, stream, fleet_seed, shard_of, rec);
  }
  bool Again() const { return NowNs() < deadline_ns && gate.ok; }

  std::vector<Metric> EndToEnd(double peak_rss_mb, const Quality& quality);
  std::vector<Metric> Layers(const std::string& spans_path);
};

std::vector<Metric> Bench::EndToEnd(double peak_rss_mb,
                                    const Quality& quality) {
  const double reports = static_cast<double>(stream.reports);
  std::vector<double> throughput, replay_throughput, setup;
  do {
    // The threaded figure is the noisier one, so it gets more samples.
    const ReplayRun replay = Replay(nullptr);
    replay_throughput.push_back(reports / replay.wall_s);
    for (int pass = 0; pass < kIngestPassesPerReplay; ++pass) {
      const IngestRun ingest = Ingest(nullptr);
      GateRepetition(w, stream, ingest, replay.books, &gate);
      throughput.push_back(reports / ingest.wall_s);
      setup.push_back(ingest.setup_s);
    }
  } while (Again());
  std::printf("%s seed %llu: %zu replays, %zu ingest passes of %zu events / "
              "%llu reports "
              "/ %llu rounds\n",
              w.name, static_cast<unsigned long long>(seed),
              replay_throughput.size(), setup.size(), stream.events.size(),
              static_cast<unsigned long long>(stream.reports),
              static_cast<unsigned long long>(stream.rounds));
  const char* names[] = {"reports_per_s", "replay_reports_per_s", "setup_s"};
  const std::vector<double>* samples[] = {&throughput, &replay_throughput,
                                          &setup};
  for (int m = 0; m < 3; ++m) {
    const std::vector<double> q =
        Quantiles(*samples[m], {0.0, 0.25, 0.5, 0.75, 1.0});
    std::printf("  %-21s min %.6g q1 %.6g median %.6g q3 %.6g max %.6g\n",
                names[m], q[0], q[1], q[2], q[3], q[4]);
  }
  return {
      {"reports_per_s", Median(throughput), "reports/s"},
      {"replay_reports_per_s", Median(replay_throughput), "reports/s"},
      {"setup_s", Median(setup), "s"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
      {"poison_survival", quality.poison_survival, "ratio"},
      {"benign_loss", quality.benign_loss, "ratio"},
  };
}

std::vector<Metric> Bench::Layers(const std::string& spans_path) {
  SpanRecorder rec;
  TraceFold fold;
  std::vector<double> untraced_wall, traced_wall, parked;
  std::vector<double> blocks, pop_mean, refits, ingest_rounds;
  std::vector<double> ingest_hib, ingest_reh;
  ReplayRun last;
  const size_t capacity = stream.events.size() + 4 * kLatencyProbes +
                          3 * stream.rounds + 4 * w.tenants +
                          3 * kModels * kProbeTenantsPerModel + 64;
  do {
    rec.Reset(capacity);
    const IngestRun ingest = Ingest(&rec);
    // Alternate which replay runs first so neither gets a warmer cache.
    ReplayRun plain, traced;
    if (untraced_wall.size() % 2 == 0) {
      plain = Replay(nullptr);
      traced = Replay(&rec);
    } else {
      traced = Replay(&rec);
      plain = Replay(nullptr);
    }
    GateRepetition(w, stream, ingest, traced.books, &gate);
    GateRepetition(w, stream, ingest, plain.books, &gate);
    fold.Add(rec.spans());
    for (size_t m = 0; m < kModels; ++m) fold.replay_rows[m] += traced.rows[m];
    untraced_wall.push_back(plain.wall_s * 1e3);
    traced_wall.push_back(traced.wall_s * 1e3);
    parked.push_back(traced.parked_bytes_per_tenant);
    const obs::SlotValues& merged = ingest.scrape.merged;
    auto counter = [&merged](obs::Counter c) {
      return static_cast<double>(merged.counters[static_cast<int>(c)]);
    };
    blocks.push_back(counter(obs::Counter::kIngestBackpressureBlocks));
    const obs::HistogramValue& pop = merged.histograms[static_cast<int>(
        obs::Histogram::kIngestPopBatchSize)];
    pop_mean.push_back(pop.count ? pop.sum / static_cast<double>(pop.count)
                                 : 0.0);
    const double refit_rounds = counter(obs::Counter::kSessionReferenceRefits);
    refits.push_back(
        refit_rounds > 0
            ? counter(obs::Counter::kSessionRefitIterations) / refit_rounds
            : 0.0);
    ingest_rounds.push_back(static_cast<double>(ingest.stats.rounds_played));
    ingest_hib.push_back(static_cast<double>(ingest.stats.hibernations));
    ingest_reh.push_back(static_cast<double>(ingest.stats.rehydrations));
    last = std::move(traced);
  } while (Again());
  if (rec.dropped() > 0) Fatal("span buffer overflowed");

  std::printf("%s seed %llu: %zu traced repetitions\n", w.name,
              static_cast<unsigned long long>(seed), traced_wall.size());
  PrintSelfTimes("traced replay (single thread)", fold.replay_self,
                 fold.replay_wall_ns);
  PrintSelfTimes("traced ingest (producer thread)", fold.ingest_self,
                 fold.ingest_wall_ns);
  PrintSelfTimes("hibernate/rehydrate probe", fold.probe_self,
                 fold.probe_wall_ns);

  // Reports per shard through the service's own tenant -> shard map.
  std::array<double, kShards> shard_reports{};
  for (size_t i = 0; i < w.tenants; ++i) {
    shard_reports[shard_of[i]] += static_cast<double>(stream.admitted[i]);
  }
  const double skew =
      *std::max_element(shard_reports.begin(), shard_reports.end()) /
      (static_cast<double>(stream.reports) / kShards);
  auto self = [&fold](SpanName name) {
    return fold.replay_self[static_cast<size_t>(name)];
  };
  auto share = [&](SpanName name) { return self(name) / fold.replay_wall_ns; };
  const double fleet_busy = self(SpanName::kFleetStep) +
                            self(SpanName::kFleetHibernate) +
                            self(SpanName::kFleetRehydrate);

  std::vector<Metric> metrics = {
      {"ingest.submit_p50_ns", fold.P(SpanName::kIngestSubmit, 0.5), "ns"},
      {"ingest.submit_p99_ns", fold.P(SpanName::kIngestSubmit, 0.99), "ns"},
      {"ingest.flush_wait_ms", fold.P(SpanName::kIngestFlush, 0.5) * 1e-6,
       "ms"},
      {"ingest.backpressure_blocks", Median(blocks), "count"},
      {"ingest.pop_batch_mean", Median(pop_mean), "events"},
      {"ingest.shard_skew", skew, "ratio"},
      {"ingest.handoff_p50_us",
       fold.P(SpanName::kIngestHandoffProbe, 0.5) * 1e-3, "us"},
      {"ingest.round_latency_p50_us",
       fold.P(SpanName::kIngestRoundProbe, 0.5) * 1e-3, "us"},
      {"ingest.round_latency_p99_us",
       fold.P(SpanName::kIngestRoundProbe, 0.99) * 1e-3, "us"},
      {"ingest.unattributed_share",
       1.0 - fleet_busy / (kShards * fold.ingest_wall_ns), "ratio"},
  };
  const char* kModelNames[kModels] = {"scalar", "distance", "ldp",
                                      "residual"};
  auto per_model = [&](const char* prefix, SpanName name) {
    for (size_t m = 0; m < kModels; ++m) {
      metrics.push_back({std::string(prefix) + kModelNames[m],
                         Median(fold.Of(name, m)) * 1e-3, "us"});
    }
  };
  per_model("fleet.rehydrate_p50_us.", SpanName::kFleetRehydrate);
  per_model("fleet.materialize_p50_us.", SpanName::kFleetMaterialize);
  per_model("game.restore_p50_us.", SpanName::kGameRestore);
  metrics.push_back({"fleet.rehydrate_busy_share",
                     share(SpanName::kFleetRehydrate), "ratio"});
  metrics.push_back({"fleet.hibernate_p50_us",
                     fold.P(SpanName::kFleetHibernate, 0.5) * 1e-3, "us"});
  metrics.push_back({"fleet.hibernate_busy_share",
                     share(SpanName::kFleetHibernate), "ratio"});
  metrics.push_back({"game.checkpoint_p50_us",
                     fold.P(SpanName::kGameCheckpoint, 0.5) * 1e-3, "us"});
  metrics.push_back(
      {"fleet.parked_bytes_per_tenant", Median(parked), "bytes"});
  per_model("fleet.step_p50_us.", SpanName::kFleetStep);
  metrics.push_back(
      {"fleet.step_busy_share", share(SpanName::kFleetStep), "ratio"});
  for (size_t m = 0; m < kModels; ++m) {
    metrics.push_back(
        {std::string("game.ns_per_row.") + kModelNames[m],
         fold.replay_step_ns[m] /
             static_cast<double>(std::max<uint64_t>(1, fold.replay_rows[m])),
         "ns/row"});
  }
  metrics.push_back(
      {"ml.refit_iterations_per_round", Median(refits), "count"});
  metrics.push_back({"fleet.bootstrap_ms",
                     fold.P(SpanName::kFleetBootstrap, 0.5) * 1e-6, "ms"});
  metrics.push_back(
      {"fleet.rounds", static_cast<double>(last.rounds), "count"});
  metrics.push_back({"fleet.hibernations",
                     static_cast<double>(last.hibernations), "count"});
  metrics.push_back({"fleet.rehydrations",
                     static_cast<double>(last.rehydrations), "count"});
  metrics.push_back({"ingest.rounds", Median(ingest_rounds), "count"});
  metrics.push_back({"ingest.hibernations", Median(ingest_hib), "count"});
  metrics.push_back({"ingest.rehydrations", Median(ingest_reh), "count"});
  metrics.push_back({"replay.unattributed_share",
                     share(SpanName::kBenchReplay), "ratio"});
  metrics.push_back({"trace.overhead_ms",
                     Median(traced_wall) - Median(untraced_wall), "ms"});
  if (!spans_path.empty()) WriteSpans(spans_path, rec.spans());
  return metrics;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr) Fatal("unknown workload " + args.workload);

  SplitMix64 seeds(args.seed);
  const uint64_t fleet_seed = seeds.Next();
  const Stream stream = MakeStream(*found, seeds.Next());
  const CpuPlan cpus;
  Sources sources;
  Bench bench{*found, stream, args.seed, fleet_seed, 0, cpus, &sources, {},
              {}, {}};

  // Warm repetition (untimed): first-touch costs land here. The peak RSS
  // is read right after its ingest pass, so it is the footprint of one
  // fresh process serving the workload.
  Quality quality;
  double peak_rss_mb = 0.0;
  {
    const IngestRun warm = bench.Ingest(nullptr);
    peak_rss_mb = PeakRssMb();
    bench.shard_of = warm.shard_of;
    const ReplayRun replay = bench.Replay(nullptr);
    GateRepetition(*found, stream, warm, replay.books, &bench.gate);
    quality = MeasureQuality(replay.books);
  }

  bench.deadline_ns = NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  const std::vector<Metric> metrics =
      args.trace == 0 ? bench.EndToEnd(peak_rss_mb, quality)
                      : bench.Layers(args.spans);

  const OpCounts& ops = bench.ops;
  const bool correct = bench.gate.ok && ops.failed == 0;
  if (!bench.gate.ok) {
    std::fprintf(stderr, "perfbench: correctness gate failed: %s\n",
                 bench.gate.first_failure.c_str());
  }
  if (ops.failed > 0) {
    std::fprintf(stderr,
                 "perfbench: %llu of %llu service calls failed; first: %s\n",
                 static_cast<unsigned long long>(ops.failed),
                 static_cast<unsigned long long>(ops.attempted),
                 ops.first_error.c_str());
  }
  std::printf("%s\n", ResultJson(correct, ops, metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace itrim::perfbench

int main(int argc, char** argv) { return itrim::perfbench::Main(argc, argv); }
