#include "exp/schemes.h"

#include <utility>

#include "game/score_model.h"

namespace itrim {

std::string SchemeName(SchemeId id) {
  switch (id) {
    case SchemeId::kGroundtruth:
      return "Groundtruth";
    case SchemeId::kOstrich:
      return "Ostrich";
    case SchemeId::kBaseline09:
      return "Baseline0.9";
    case SchemeId::kBaselineStatic:
      return "Baselinestatic";
    case SchemeId::kTitfortat:
      return "Titfortat";
    case SchemeId::kElastic01:
      return "Elastic0.1";
    case SchemeId::kElastic05:
      return "Elastic0.5";
  }
  return "unknown";
}

namespace {

// make_unique that also tallies the concrete object size into `bytes`.
template <typename T, typename... Args>
std::unique_ptr<T> Own(size_t* bytes, Args&&... args) {
  *bytes += sizeof(T);
  return std::make_unique<T>(std::forward<Args>(args)...);
}

}  // namespace

SchemeInstance MakeScheme(SchemeId id, double tth,
                          const SchemeOptions& options) {
  SchemeInstance s;
  s.id = id;
  s.name = SchemeName(id);
  size_t* const bytes = &s.object_bytes;
  switch (id) {
    case SchemeId::kGroundtruth:
      // Clean reference: no trimming; pair with a dormant adversary (the
      // runner sets attack_ratio = 0 for this scheme).
      s.collector = Own<OstrichCollector>(bytes);
      s.adversary = Own<FixedPercentileAdversary>(bytes, 0.99);
      break;
    case SchemeId::kOstrich:
      s.collector = Own<OstrichCollector>(bytes);
      s.adversary = Own<FixedPercentileAdversary>(bytes, 0.99);
      break;
    case SchemeId::kBaseline09:
      s.collector = Own<StaticCollector>(bytes, 0.9, "Baseline0.9");
      s.adversary = Own<UniformRangeAdversary>(bytes, 0.9, 1.0);
      break;
    case SchemeId::kBaselineStatic:
      s.collector = Own<StaticCollector>(bytes, tth, "Baselinestatic");
      s.adversary = Own<ThresholdOffsetAdversary>(bytes, -0.01);
      break;
    case SchemeId::kTitfortat:
      s.collector = Own<TitfortatCollector>(
          bytes, +0.01, -0.03, options.titfortat_trigger_quality);
      // The Theorem-3-compliant adversary: under the trigger threat it
      // concedes the utility compromise delta and plays the soft position
      // Tth - 3% (the same concession the Elastic equilibrium converges
      // to), keeping the quality evaluation clear of the defect band.
      s.adversary = Own<FixedPercentileAdversary>(bytes, tth - 0.03);
      // Band edges are percentile *positions* (the distance game's score
      // domain), hence the absolute cutoff mode.
      s.quality = Own<DefectShareQuality>(
          bytes, options.band_lo, options.band_hi,
          DefectShareQuality::CutoffMode::kAbsolute);
      break;
    case SchemeId::kElastic01:
      s.collector = Own<ElasticCollector>(bytes, 0.1);
      s.adversary = Own<ElasticAdversary>(bytes, 0.1);
      break;
    case SchemeId::kElastic05:
      s.collector = Own<ElasticCollector>(bytes, 0.5);
      s.adversary = Own<ElasticAdversary>(bytes, 0.5);
      break;
  }
  return s;
}

Result<GameSummary> RunSchemeSession(const GameConfig& config,
                                     SchemeInstance* scheme,
                                     ScoreModel* model,
                                     ReferencePolicy* reference) {
  TrimmingSession session(config, model, scheme->collector.get(),
                          scheme->adversary.get(), scheme->quality.get(),
                          reference);
  return session.RunToCompletion();
}

Result<GameSummary> RunSchemeSession(const GameConfig& config,
                                     SchemeInstance* scheme, ModelKind kind,
                                     const ScoreModelInputs& inputs,
                                     std::unique_ptr<ScoreModel>* model_out,
                                     ReferencePolicy* reference) {
  ITRIM_ASSIGN_OR_RETURN(std::unique_ptr<ScoreModel> model,
                         MakeScoreModel(kind, inputs));
  ITRIM_ASSIGN_OR_RETURN(
      GameSummary summary,
      RunSchemeSession(config, scheme, model.get(), reference));
  if (model_out != nullptr) *model_out = std::move(model);
  return summary;
}

std::vector<SchemeId> PlottedSchemes() {
  return {SchemeId::kOstrich,    SchemeId::kBaseline09,
          SchemeId::kBaselineStatic, SchemeId::kTitfortat,
          SchemeId::kElastic01,  SchemeId::kElastic05};
}

std::vector<SchemeId> DefenseSchemes() { return PlottedSchemes(); }

std::vector<SchemeId> AllSchemes() {
  std::vector<SchemeId> all = {SchemeId::kGroundtruth};
  for (SchemeId id : PlottedSchemes()) all.push_back(id);
  return all;
}

}  // namespace itrim
