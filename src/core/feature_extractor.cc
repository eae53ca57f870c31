#include "core/feature_extractor.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace wym::core {

namespace {

/// Statistic kinds emitted over a group of unit indices.
enum class Stat { kCount, kSum, kMean, kMedian, kMax, kMin, kRange };

const char* StatName(Stat stat) {
  switch (stat) {
    case Stat::kCount:
      return "count";
    case Stat::kSum:
      return "sum";
    case Stat::kMean:
      return "mean";
    case Stat::kMedian:
      return "median";
    case Stat::kMax:
      return "max";
    case Stat::kMin:
      return "min";
    case Stat::kRange:
      return "range";
  }
  return "?";
}

/// The impact side of one Compute pass: per unit, the running sum of
/// coefficient x weight x relevance and the number of attributions.
/// `sums` is null when the pass collects no impacts.
struct ImpactSums {
  std::span<const double> coefficients;
  std::vector<double>* sums = nullptr;
  std::vector<size_t> touched;
};

/// Emits one statistic over the group `members` (unit indices) and adds
/// each member's attribution to `impacts`.
void EmitStat(Stat stat, const std::vector<size_t>& members,
              const std::vector<double>& scores, size_t feature_index,
              std::vector<double>* features, ImpactSums* impacts) {
  const size_t n = members.size();
  auto attribute = [&](size_t unit, double weight) {
    if (impacts->sums == nullptr || weight == 0.0) return;
    const double relevance =
        stat == Stat::kCount ? std::abs(scores[unit]) : scores[unit];
    (*impacts->sums)[unit] +=
        impacts->coefficients[feature_index] * weight * relevance;
    ++impacts->touched[unit];
  };

  if (n == 0) {
    features->push_back(0.0);
    return;
  }

  switch (stat) {
    case Stat::kCount: {
      features->push_back(static_cast<double>(n));
      const double weight = 1.0 / static_cast<double>(n);
      for (size_t u : members) attribute(u, weight);
      break;
    }
    case Stat::kSum: {
      double sum = 0.0;
      for (size_t u : members) sum += scores[u];
      features->push_back(sum);
      for (size_t u : members) attribute(u, 1.0);
      break;
    }
    case Stat::kMean: {
      double sum = 0.0;
      for (size_t u : members) sum += scores[u];
      features->push_back(sum / static_cast<double>(n));
      const double weight = 1.0 / static_cast<double>(n);
      for (size_t u : members) attribute(u, weight);
      break;
    }
    case Stat::kMedian: {
      std::vector<size_t> sorted = members;
      std::stable_sort(sorted.begin(), sorted.end(),
                       [&](size_t a, size_t b) {
                         return scores[a] < scores[b];
                       });
      if (n % 2 == 1) {
        const size_t mid = sorted[n / 2];
        features->push_back(scores[mid]);
        attribute(mid, 1.0);
      } else {
        const size_t lo = sorted[n / 2 - 1];
        const size_t hi = sorted[n / 2];
        features->push_back(0.5 * (scores[lo] + scores[hi]));
        attribute(lo, 0.5);
        attribute(hi, 0.5);
      }
      break;
    }
    case Stat::kMax: {
      size_t best = members[0];
      for (size_t u : members) {
        if (scores[u] > scores[best]) best = u;
      }
      features->push_back(scores[best]);
      attribute(best, 1.0);
      break;
    }
    case Stat::kMin: {
      size_t best = members[0];
      for (size_t u : members) {
        if (scores[u] < scores[best]) best = u;
      }
      features->push_back(scores[best]);
      attribute(best, 1.0);
      break;
    }
    case Stat::kRange: {
      size_t max_u = members[0], min_u = members[0];
      for (size_t u : members) {
        if (scores[u] > scores[max_u]) max_u = u;
        if (scores[u] < scores[min_u]) min_u = u;
      }
      features->push_back(scores[max_u] - scores[min_u]);
      attribute(max_u, 1.0);
      attribute(min_u, -1.0);
      break;
    }
  }
}

}  // namespace

FeatureExtractor::FeatureExtractor(size_t num_attributes, bool simplified)
    : num_attributes_(num_attributes), simplified_(simplified) {
  auto add = [&](const std::string& group, Stat stat) {
    names_.push_back(group + "_" + StatName(stat));
  };
  if (simplified_) {
    // Paper §5.1.3: 6 features — count and average over all scores, the
    // positive scores and the negative scores.
    add("all", Stat::kCount);
    add("all", Stat::kMean);
    add("pos", Stat::kCount);
    add("pos", Stat::kMean);
    add("neg", Stat::kCount);
    add("neg", Stat::kMean);
    return;
  }
  for (size_t a = 0; a < num_attributes_; ++a) {
    const std::string attr = "attr" + std::to_string(a);
    add(attr + "_paired", Stat::kCount);
    add(attr + "_paired", Stat::kMean);
    add(attr + "_paired", Stat::kMax);
    add(attr + "_paired", Stat::kMin);
    add(attr + "_unpaired", Stat::kCount);
    add(attr + "_unpaired", Stat::kMean);
    add(attr + "_unpaired", Stat::kMin);
  }
  // Entity-description scope.
  add("left_unpaired", Stat::kCount);
  add("left_unpaired", Stat::kMean);
  add("right_unpaired", Stat::kCount);
  add("right_unpaired", Stat::kMean);
  // Record scope.
  add("all", Stat::kCount);
  add("all", Stat::kSum);
  add("all", Stat::kMean);
  add("all", Stat::kMedian);
  add("all", Stat::kMax);
  add("all", Stat::kMin);
  add("all", Stat::kRange);
  add("pos", Stat::kCount);
  add("pos", Stat::kSum);
  add("pos", Stat::kMean);
  add("neg", Stat::kCount);
  add("neg", Stat::kSum);
  add("neg", Stat::kMean);
  add("paired", Stat::kCount);
  add("paired", Stat::kMean);
  add("unpaired", Stat::kCount);
  add("unpaired", Stat::kMean);
}

void FeatureExtractor::Compute(const ScoredUnitSet& set,
                               std::vector<double>* features,
                               std::span<const double> coefficients,
                               std::vector<double>* impacts) const {
  WYM_CHECK_EQ(set.units.size(), set.scores.size());
  features->clear();
  features->reserve(dim());
  ImpactSums sums{coefficients, impacts, {}};
  if (impacts != nullptr) {
    WYM_CHECK_EQ(coefficients.size(), dim());
    impacts->assign(set.size(), 0.0);
    sums.touched.assign(set.size(), 0);
  }

  // Group memberships.
  std::vector<size_t> all, positive, negative, paired, unpaired;
  std::vector<size_t> left_unpaired, right_unpaired;
  std::vector<std::vector<size_t>> attr_paired(num_attributes_);
  std::vector<std::vector<size_t>> attr_unpaired(num_attributes_);
  for (size_t u = 0; u < set.size(); ++u) {
    const DecisionUnit& unit = set.units[u];
    all.push_back(u);
    (set.scores[u] > 0.0 ? positive : negative).push_back(u);
    const size_t attr = std::min(unit.AnchorAttribute(),
                                 num_attributes_ == 0 ? 0
                                                      : num_attributes_ - 1);
    if (unit.paired) {
      paired.push_back(u);
      if (num_attributes_ > 0) attr_paired[attr].push_back(u);
    } else {
      unpaired.push_back(u);
      if (num_attributes_ > 0) attr_unpaired[attr].push_back(u);
      (unit.unpaired_side == Side::kLeft ? left_unpaired : right_unpaired)
          .push_back(u);
    }
  }

  size_t f = 0;
  auto emit = [&](Stat stat, const std::vector<size_t>& group) {
    EmitStat(stat, group, set.scores, f++, features, &sums);
  };

  if (simplified_) {
    emit(Stat::kCount, all);
    emit(Stat::kMean, all);
    emit(Stat::kCount, positive);
    emit(Stat::kMean, positive);
    emit(Stat::kCount, negative);
    emit(Stat::kMean, negative);
  } else {
    for (size_t a = 0; a < num_attributes_; ++a) {
      emit(Stat::kCount, attr_paired[a]);
      emit(Stat::kMean, attr_paired[a]);
      emit(Stat::kMax, attr_paired[a]);
      emit(Stat::kMin, attr_paired[a]);
      emit(Stat::kCount, attr_unpaired[a]);
      emit(Stat::kMean, attr_unpaired[a]);
      emit(Stat::kMin, attr_unpaired[a]);
    }
    emit(Stat::kCount, left_unpaired);
    emit(Stat::kMean, left_unpaired);
    emit(Stat::kCount, right_unpaired);
    emit(Stat::kMean, right_unpaired);
    emit(Stat::kCount, all);
    emit(Stat::kSum, all);
    emit(Stat::kMean, all);
    emit(Stat::kMedian, all);
    emit(Stat::kMax, all);
    emit(Stat::kMin, all);
    emit(Stat::kRange, all);
    emit(Stat::kCount, positive);
    emit(Stat::kSum, positive);
    emit(Stat::kMean, positive);
    emit(Stat::kCount, negative);
    emit(Stat::kSum, negative);
    emit(Stat::kMean, negative);
    emit(Stat::kCount, paired);
    emit(Stat::kMean, paired);
    emit(Stat::kCount, unpaired);
    emit(Stat::kMean, unpaired);
  }
  WYM_CHECK_EQ(f, dim());
  // The mean over each unit's attributions (no units without impacts).
  for (size_t u = 0; u < sums.touched.size(); ++u) {
    if (sums.touched[u] > 0) (*impacts)[u] /= sums.touched[u];
  }
}

std::vector<double> FeatureExtractor::Extract(const ScoredUnitSet& set) const {
  std::vector<double> features;
  Compute(set, &features);
  return features;
}

}  // namespace wym::core
