#ifndef WYM_CORE_FEATURE_EXTRACTOR_H_
#define WYM_CORE_FEATURE_EXTRACTOR_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/decision_unit.h"

/// \file
/// The explainable matcher's feature engineering (paper §4.3): statistics
/// (max, min, count, sum, mean, median, range) over the relevance scores,
/// aggregated per attribute, per entity description and per record —
/// injecting structural and pragmatic knowledge into the classifier. The
/// same pass applies the *inverse* transformation: given the classifier's
/// raw coefficients, it routes each one back to the units its feature
/// aggregates, which forms their impact scores.

namespace wym::core {

/// A record's decision units plus their relevance scores (parallel).
struct ScoredUnitSet {
  std::vector<DecisionUnit> units;
  std::vector<double> scores;

  size_t size() const { return units.size(); }
};

/// Turns scored units into classifier features.
class FeatureExtractor {
 public:
  /// `num_attributes` = schema width. `simplified` selects the 6-feature
  /// variant of the Table 4 "Matcher / smp. feat." ablation (count and
  /// mean over all / positive / negative scores).
  explicit FeatureExtractor(size_t num_attributes, bool simplified = false);

  /// Number of features produced.
  size_t dim() const { return names_.size(); }

  /// Stable, human-readable feature names (used by tests and benches).
  const std::vector<std::string>& feature_names() const { return names_; }

  bool simplified() const { return simplified_; }
  size_t num_attributes() const { return num_attributes_; }

  /// Extracts the feature row of one record.
  std::vector<double> Extract(const ScoredUnitSet& set) const;

  /// One pass over `set`: the feature row into `*features` and, when
  /// `impacts` is non-null, each unit's impact under the raw
  /// `coefficients` (one per feature) into `*impacts` (paper §4.3): the
  /// mean over its attributions of coefficient x weight x relevance, with
  /// |relevance| for counts, whose direction lives in the coefficient.
  /// Weights: 1/N per unit of a count or mean over N, 1 per unit of a sum,
  /// 1 on the unit achieving a min, max or odd median, 0.5 on each middle
  /// unit of an even median, +1 / -1 on the max / min unit of a range. A
  /// unit no feature touches has impact 0.
  void Compute(const ScoredUnitSet& set, std::vector<double>* features,
               std::span<const double> coefficients = {},
               std::vector<double>* impacts = nullptr) const;

 private:
  size_t num_attributes_;
  bool simplified_;
  std::vector<std::string> names_;
};

}  // namespace wym::core

#endif  // WYM_CORE_FEATURE_EXTRACTOR_H_
