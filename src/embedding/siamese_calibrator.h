#ifndef WYM_EMBEDDING_SIAMESE_CALIBRATOR_H_
#define WYM_EMBEDDING_SIAMESE_CALIBRATOR_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "la/vector_ops.h"
#include "util/serde.h"

/// \file
/// Siamese calibration: the "SBERT" component of the semantic encoder.
/// Learns per-dimension weights that pull the pooled embeddings of
/// matching record pairs together and push non-matching pairs apart —
/// the diagonal analogue of SBERT's siamese fine-tuning objective
/// (Reimers & Gurevych 2019), trained on the EM labels.

namespace wym::embedding {

/// Options for SiameseCalibrator.
struct SiameseCalibratorOptions {
  size_t epochs = 12;
  double learning_rate = 0.1;
  /// Cosine target for non-matching pairs (they still share brand/venue
  /// tokens, so 0.0 would be an unreachable target).
  double negative_target = 0.2;
  /// Weight clamp range keeps the metric non-degenerate.
  double min_weight = 0.25;
  double max_weight = 4.0;
  uint64_t seed = 0x51A3;
};

/// Diagonal metric learner over pooled pair embeddings.
class SiameseCalibrator {
 public:
  using Options = SiameseCalibratorOptions;

  explicit SiameseCalibrator(Options options = {});

  /// Trains the diagonal weights. `pairs[i]` holds the pooled (mean)
  /// embeddings of the two entities of record i, `labels[i]` its 0/1
  /// match label. No-op when pairs is empty.
  void Fit(const std::vector<std::pair<la::Vec, la::Vec>>& pairs,
           const std::vector<int>& labels);

  /// Applies the learned weights to one row of `dim` floats in place,
  /// then re-normalizes it (identity before Fit).
  void Apply(float* row, size_t dim) const;

  bool fitted() const { return fitted_; }
  const std::vector<float>& weights() const { return weights_; }

  /// Serialization (see util/serde.h).
  void Save(serde::Serializer* s) const;
  bool Load(serde::Deserializer* d);

 private:
  Options options_;
  bool fitted_ = false;
  std::vector<float> weights_;
};

}  // namespace wym::embedding

#endif  // WYM_EMBEDDING_SIAMESE_CALIBRATOR_H_
