#ifndef WYM_CORE_RELEVANCE_SCORER_H_
#define WYM_CORE_RELEVANCE_SCORER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/decision_unit.h"
#include "core/tokenized_record.h"
#include "nn/mlp.h"
#include "util/serde.h"

/// \file
/// The decision-unit relevance scorer (paper §4.2): a regression model
/// mapping each unit to a score in [-1, 1] — negative pushes toward
/// non-match, positive toward match. The training targets implement the
/// label-consistency rules of Eq. 2 (thresholds alpha/beta handle the
/// label-mismatch challenge R1) averaged per distinct unit as in Eq. 3.
/// Unit features are the mean and absolute difference of the two token
/// embeddings — symmetric (challenge R3) — with unpaired units paired
/// against the zero [UNP] embedding (challenge R5).

namespace wym::core {

/// Scorer variants of the Table 4 "Scorer" ablation.
enum class ScorerKind {
  kNeural,  ///< WYM default: the MLP regressor.
  kBinary,  ///< +1 for paired units, -1 for unpaired.
  kCosine,  ///< Pairing similarity for paired units, -0.5 for unpaired.
};

/// Options for RelevanceScorer.
struct RelevanceScorerOptions {
  ScorerKind kind = ScorerKind::kNeural;
  /// Eq. 2 similarity thresholds: alpha gates "consistent" paired units in
  /// matching records, beta in non-matching records.
  double alpha = 0.55;
  double beta = 0.45;
  /// Cap on training rows (subsampled deterministically beyond this).
  size_t max_training_units = 60000;
  /// MLP topology/training (scaled to the substitute embedding dims; the
  /// paper's BERT-sized network is {300, 64, 32} over 768-d embeddings).
  nn::MlpOptions mlp = {.hidden = {64, 32},
                        .epochs = 12,
                        .batch_size = 128,
                        .learning_rate = 2e-3,
                        .weight_decay = 1e-5,
                        .clamp_output = true,
                        .seed = 0x5c03e};
  uint64_t seed = 0x5c03e;
};

/// Learns and applies relevance scores.
class RelevanceScorer {
 public:
  using Options = RelevanceScorerOptions;

  explicit RelevanceScorer(Options options = {});

  /// Builds the Eq. 2/3 training set from the units of the training
  /// records (labels taken from the records) and fits the regressor.
  /// A no-op for the binary/cosine variants.
  void Fit(const std::vector<TokenizedRecord>& records,
           const std::vector<std::vector<DecisionUnit>>& units_per_record);

  /// Relevance scores for the units of one record, in unit order. The
  /// neural scorer packs every unit's feature row into one block and
  /// scores it with one nn::Mlp::PredictRows call.
  std::vector<double> Score(const TokenizedRecord& record,
                            const std::vector<DecisionUnit>& units) const;

  /// The symmetric feature row of a unit (mean ++ |diff| of the two token
  /// embeddings, zero vector for the missing side). Exposed for tests.
  static std::vector<double> UnitFeatures(
      const TokenizedRecord& record, const DecisionUnit& unit);

  /// Eq. 2: target for one unit occurrence given the record label.
  /// Exposed for tests.
  double RawTarget(const DecisionUnit& unit, int label) const;

  /// Serialization of the fitted scorer (see util/serde.h).
  void Save(serde::Serializer* s) const;
  bool Load(serde::Deserializer* d);

  bool fitted() const { return fitted_; }
  const Options& options() const { return options_; }
  /// The regressor; unfitted for the binary/cosine kinds and after a
  /// degenerate training corpus.
  const nn::Mlp& network() const { return mlp_; }

 private:
  Options options_;
  bool fitted_ = false;
  nn::Mlp mlp_;
};

}  // namespace wym::core

#endif  // WYM_CORE_RELEVANCE_SCORER_H_
