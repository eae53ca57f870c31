#ifndef WYM_CORE_WYM_H_
#define WYM_CORE_WYM_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/explainable_matcher.h"
#include "core/matcher.h"
#include "core/relevance_scorer.h"
#include "core/tokenized_record.h"
#include "core/unit_generator.h"
#include "data/record.h"
#include "embedding/semantic_encoder.h"
#include "text/tokenizer.h"
#include "util/parallel.h"
#include "util/serde.h"
#include "util/status.h"

/// \file
/// The WYM facade: the full "Why do You Match?" pipeline of the paper —
/// tokenize -> encode -> discover decision units (Algorithm 1) -> score
/// their relevance -> engineer features -> classify -> attribute impact
/// scores. This is the library's primary public API.
///
/// Every entry point — PredictProba, Explain, the batch APIs,
/// PredictDataset, and through them MatchTables and wym_serve — pushes
/// each record through one staged per-record function (EX(r), paper
/// §3.1), so a served decision, its explanation and the offline batch
/// answer for the same record are the same bits.
///
/// Typical use:
/// \code
///   wym::core::WymModel model;                 // default WymConfig
///   model.Fit(split.train, split.validation);
///   auto explanation = model.Explain(record);  // prediction + units
/// \endcode

namespace wym::core {

/// End-to-end configuration of the pipeline. Defaults reproduce the
/// paper's setting (theta/eta/epsilon = 0.6/0.65/0.7, SBERT-like encoder,
/// neural relevance scorer, full feature engineering, best-of-pool
/// classifier selection).
struct WymConfig {
  text::TokenizerOptions tokenizer;
  /// Pairing thresholds. The paper's values (0.6 / 0.65 / 0.7) are tuned
  /// to BERT's cosine geometry; the substitute hash-gram + PPMI encoder
  /// has a wider cosine spread, so the calibrated defaults sit lower
  /// while preserving the increasing theta < eta < epsilon ordering the
  /// paper prescribes (§4.1.2).
  UnitGeneratorOptions generator = {.theta = 0.45,
                                    .eta = 0.50,
                                    .epsilon = 0.55,
                                    .similarity =
                                        PairingSimilarity::kEmbedding,
                                    .rules = {}};
  embedding::SemanticEncoderOptions encoder = {
      .mode = embedding::EncoderMode::kSiamese,
      .hash_dim = 32,
      .cooc_dim = 16,
      .cooc = {},
      .context = {},
      .siamese = {},
      .seed = 0xE11C0DE};
  RelevanceScorerOptions scorer;
  /// Use the 6-feature simplified matcher (Table 4 ablation).
  bool simplified_features = false;
  /// Pin the classifier ("LR", ..., empty = best-of-pool).
  std::string classifier;
  uint64_t seed = 0x3717;
};

/// One explained decision unit.
struct ExplainedUnit {
  DecisionUnit unit;
  double relevance = 0.0;
  double impact = 0.0;
};

/// Per-run quarantine report of the batch APIs. Degenerate records —
/// zero tokens on both sides after tokenization, or a non-finite
/// probability — are not predictable; instead of aborting or
/// propagating NaNs, every entry point gives them the non-match fallback
/// (probability 0.0, prediction 0, no units), and the batch APIs list
/// them here.
struct PredictionReport {
  struct Quarantined {
    size_t index = 0;     ///< Record index within the dataset.
    std::string reason;   ///< Why the record could not be predicted.
  };
  std::vector<Quarantined> quarantined;
  /// Records that went through the full pipeline.
  size_t predicted = 0;

  bool clean() const { return quarantined.empty(); }
};

/// Prediction plus explanation for one record (paper §3.1: EX(r)).
struct Explanation {
  int prediction = 0;
  double probability = 0.0;
  std::vector<ExplainedUnit> units;

  /// Unit indices sorted by |impact| descending (explanation reading
  /// order; also used by the conciseness and MoRF/LeRF evaluations).
  std::vector<size_t> RankByImpactMagnitude() const;

  /// Unit indices ranked by signed impact toward class `label`:
  /// descending impact for 1, ascending for 0 (stable under ties).
  std::vector<size_t> RankTowardClass(int label) const;

  /// The units at indices `keep`, in that order, as a set to re-predict
  /// from.
  ScoredUnitSet SubsetUnits(const std::vector<size_t>& keep) const;
};

/// The intrinsically interpretable EM system.
class WymModel : public Matcher {
 public:
  explicit WymModel(WymConfig config = {});

  const char* name() const override { return "WYM"; }

  /// Trains the full pipeline. `validation` steers classifier selection
  /// (pass an empty dataset to select on training F1).
  void Fit(const data::Dataset& train,
           const data::Dataset& validation) override;

  /// Matching probability for a record (0.0 for a degenerate record,
  /// see PredictionReport).
  double PredictProba(const data::EmRecord& record) const override;

  /// Prediction + decision units with relevance and impact scores (an
  /// empty non-match explanation for a degenerate record).
  Explanation Explain(const data::EmRecord& record) const;

  /// --- batch APIs (deterministic parallel runtime) ---
  ///
  /// Each batch API is one ParallelFor over the per-record pipeline
  /// behind PredictProba/Explain: records fan across `pool` (the global
  /// WYM_THREADS pool when nullptr) and results are written by record
  /// index, so output is bit-identical to the single-record calls at
  /// every thread count — see DESIGN.md "Threading model". Degenerate
  /// records are listed in `report` (when non-null); they never abort
  /// the batch and never yield NaN.

  /// Matching probabilities for `records`, in order. The streaming
  /// candidate tier (blocking::MatchTables) feeds this in bounded-memory
  /// chunks.
  std::vector<double> PredictProbaBatch(
      std::span<const data::EmRecord> records,
      PredictionReport* report = nullptr,
      util::ThreadPool* pool = nullptr) const;
  /// Same, over `dataset.records`.
  std::vector<double> PredictProbaBatch(
      const data::Dataset& dataset, PredictionReport* report = nullptr,
      util::ThreadPool* pool = nullptr) const {
    return PredictProbaBatch(std::span(dataset.records), report, pool);
  }

  /// Explanations for `records`, in order.
  std::vector<Explanation> ExplainBatch(
      std::span<const data::EmRecord> records,
      PredictionReport* report = nullptr,
      util::ThreadPool* pool = nullptr) const;
  /// Same, over `dataset.records`.
  std::vector<Explanation> ExplainBatch(
      const data::Dataset& dataset, PredictionReport* report = nullptr,
      util::ThreadPool* pool = nullptr) const {
    return ExplainBatch(std::span(dataset.records), report, pool);
  }

  /// Hard predictions, chunked through PredictProbaBatch.
  std::vector<int> PredictDataset(const data::Dataset& dataset) const override;

  /// --- lower-level hooks used by the evaluation harnesses ---

  /// Tokenizes + encodes a record with the trained encoder.
  TokenizedRecord Prepare(const data::EmRecord& record) const;

  /// Decision units of a prepared record.
  std::vector<DecisionUnit> GenerateUnits(const TokenizedRecord& record) const;

  /// Relevance scores for given units.
  std::vector<double> ScoreUnits(const TokenizedRecord& record,
                                 const std::vector<DecisionUnit>& units) const;

  /// Probability from an explicit (possibly perturbed) scored unit set —
  /// the entry point of the MoRF/LeRF/sufficiency experiments, which
  /// remove units and re-predict. A non-null `impacts` also receives each
  /// unit's impact score from the same feature pass.
  double PredictProbaFromUnits(const ScoredUnitSet& set,
                               std::vector<double>* impacts = nullptr) const;

  /// Persists the trained pipeline (encoder state, scorer network,
  /// selected classifier, calibration) in model-file format v2: a framed
  /// container with a magic + format-version header, one
  /// length-prefixed, CRC32C-checksummed section per component, and a
  /// whole-file trailer (see DESIGN.md "Failure model & file-format
  /// v2"). The write is atomic (temp file -> flush -> fsync -> rename),
  /// so a crashed or out-of-space save never clobbers a previous good
  /// model. Custom pairing rules (config().generator.rules) are code,
  /// not data: they are NOT serialized and must be re-registered via
  /// LoadFromFile's config parameter.
  [[nodiscard]] Status SaveToFile(const std::string& path) const;

  /// Restores a SaveToFile()d model. Format v2 files are verified frame
  /// by frame before any state is deserialized; damage yields
  /// `Status::Corruption` naming the broken section. Legacy v1 files
  /// (unframed, unchecksummed) are rejected with `Status::Corruption`.
  /// `rules` re-attaches the pairing rules that were active at training
  /// time (empty = none).
  static Result<WymModel> LoadFromFile(
      const std::string& path, std::vector<PairingRule> rules = {});

  /// Checks a model file's structure and every CRC without
  /// deserializing any model state (the `wym_cli verify` backend).
  /// `summary` (optional) receives a per-frame report. Legacy v1 files
  /// fail with `Status::Corruption`, as in LoadFromFile.
  [[nodiscard]] static Status VerifyFile(const std::string& path,
                                         std::string* summary = nullptr);

  bool fitted() const { return fitted_; }
  const WymConfig& config() const { return config_; }
  const ExplainableMatcher& matcher() const { return matcher_; }
  const embedding::SemanticEncoder& encoder() const { return encoder_; }
  size_t num_attributes() const { return num_attributes_; }

 private:
  /// Tokenizes + encodes one entity into `*out` (Prepare's per-side
  /// step).
  void PrepareEntity(const data::Entity& entity, TokenizedEntity* out) const;

  /// The record pipeline, EX(r) of paper §3.1, behind every entry
  /// point, over a prepared record: decision units, relevance scores
  /// and the match probability; impacts and ExplainedUnits only when
  /// `with_units`, from the feature pass behind the probability (one
  /// FeatureExtractor::Compute per record). A degenerate record yields
  /// the empty non-match explanation and sets `*reason` (when non-null).
  Explanation ExplainRecord(const TokenizedRecord& tokenized, bool with_units,
                            std::string* reason) const;

  /// The one batch body: Prepare + ExplainRecord over `records` in a
  /// ParallelFor, traced and counted under `explain.*` (with_units) or
  /// `predict.*`. A run of consecutive records with equal left values
  /// prepares its left entity once (left-run reuse).
  std::vector<Explanation> ExplainRecords(
      std::span<const data::EmRecord> records, bool with_units,
      PredictionReport* report, util::ThreadPool* pool) const;

  WymConfig config_;
  text::Tokenizer tokenizer_;
  embedding::SemanticEncoder encoder_;
  DecisionUnitGenerator generator_;
  RelevanceScorer scorer_;
  ExplainableMatcher matcher_;
  size_t num_attributes_ = 0;
  bool fitted_ = false;
};

}  // namespace wym::core

#endif  // WYM_CORE_WYM_H_
