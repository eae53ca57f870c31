#include "core/relevance_scorer.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <utility>

#include "util/logging.h"
#include "util/random.h"

namespace wym::core {

namespace {

/// Canonical key of a unit for the Eq. 3 averaging: the unordered token
/// pair for paired units, (token, [UNP]) for unpaired ones. Symmetry of
/// the key enforces rs((l,r)) == rs((r,l)) at target level (R3).
std::string UnitKey(const DecisionUnit& unit) {
  if (!unit.paired) return unit.UnpairedToken().token + "\x1f[UNP]";
  const std::string& a = unit.left.token;
  const std::string& b = unit.right.token;
  return (a <= b) ? a + "\x1f" + b : b + "\x1f" + a;
}

/// Embedding width of a record's units, read from whichever side is
/// encoded.
size_t EmbeddingDim(const TokenizedRecord& record) {
  WYM_CHECK(record.left.HasEmbeddings() || record.right.HasEmbeddings())
      << "unit features need at least one encoded entity";
  return record.left.HasEmbeddings() ? record.left.embedding_dim
                                     : record.right.embedding_dim;
}

/// The raw embedding row of token `index` on one side, or nullptr (the
/// zero [UNP] embedding) when that side is not encoded.
const float* SideEmbedding(const TokenizedEntity& entity, size_t index,
                           size_t dim) {
  if (!entity.HasEmbeddings()) return nullptr;
  WYM_CHECK_LT(index, entity.size());
  WYM_CHECK_EQ(entity.embedding_dim, dim);
  return entity.EmbeddingRow(index);
}

/// The one feature writer: out[0, 2*dim) = mean ++ |diff| of the unit's
/// two embeddings, the missing side of an unpaired unit being the zero
/// vector. The float arithmetic is la::MeanOf's and la::AbsDiff's,
/// widened to double per element.
void WriteUnitFeatures(const TokenizedRecord& record, const DecisionUnit& unit,
                       size_t dim, double* out) {
  const float* left = nullptr;
  const float* right = nullptr;
  if (unit.paired || unit.unpaired_side == Side::kLeft) {
    left = SideEmbedding(record.left, unit.left.position, dim);
  }
  if (unit.paired || unit.unpaired_side == Side::kRight) {
    right = SideEmbedding(record.right, unit.right.position, dim);
  }
  for (size_t i = 0; i < dim; ++i) {
    const float l = left == nullptr ? 0.0f : left[i];
    const float r = right == nullptr ? 0.0f : right[i];
    out[i] = 0.5f * (l + r);
    out[dim + i] = std::fabs(l - r);
  }
}

}  // namespace

RelevanceScorer::RelevanceScorer(Options options)
    : options_(options), mlp_(options.mlp) {}

std::vector<double> RelevanceScorer::UnitFeatures(
    const TokenizedRecord& record, const DecisionUnit& unit) {
  const size_t dim = EmbeddingDim(record);
  std::vector<double> features(2 * dim);
  WriteUnitFeatures(record, unit, dim, features.data());
  return features;
}

double RelevanceScorer::RawTarget(const DecisionUnit& unit, int label) const {
  if (!unit.paired) {
    // Unpaired evidence is consistent with non-match (-1); in matching
    // records it is neutralized to 0 (the R1 mirror case).
    return label == 1 ? 0.0 : -1.0;
  }
  if (label == 1) {
    return unit.similarity >= options_.alpha ? 1.0 : 0.0;
  }
  return unit.similarity < options_.beta ? -1.0 : 0.0;
}

void RelevanceScorer::Fit(
    const std::vector<TokenizedRecord>& records,
    const std::vector<std::vector<DecisionUnit>>& units_per_record) {
  WYM_CHECK_EQ(records.size(), units_per_record.size());
  if (options_.kind != ScorerKind::kNeural) {
    fitted_ = true;
    return;
  }

  // Eq. 3: average the Eq. 2 targets over all occurrences of each
  // distinct unit.
  struct Aggregate {
    double sum = 0.0;
    size_t count = 0;
  };
  std::unordered_map<std::string, Aggregate> targets;
  size_t total_units = 0;
  for (size_t r = 0; r < records.size(); ++r) {
    for (const auto& unit : units_per_record[r]) {
      Aggregate& agg = targets[UnitKey(unit)];
      agg.sum += RawTarget(unit, records[r].label);
      ++agg.count;
      ++total_units;
    }
  }
  if (total_units == 0) {
    fitted_ = true;
    return;
  }

  // Deterministic subsample when the corpus is large.
  double keep_probability = 1.0;
  if (total_units > options_.max_training_units) {
    keep_probability = static_cast<double>(options_.max_training_units) /
                       static_cast<double>(total_units);
  }
  Rng rng(options_.seed);

  std::vector<std::pair<size_t, const DecisionUnit*>> kept;
  std::vector<double> y;
  kept.reserve(std::min(total_units, options_.max_training_units) + 64);
  for (size_t r = 0; r < records.size(); ++r) {
    for (const auto& unit : units_per_record[r]) {
      if (keep_probability < 1.0 && !rng.Bernoulli(keep_probability)) {
        continue;
      }
      const Aggregate& agg = targets[UnitKey(unit)];
      kept.emplace_back(r, &unit);
      y.push_back(agg.sum / static_cast<double>(agg.count));
    }
  }
  if (kept.empty()) {
    fitted_ = true;
    return;
  }

  const size_t dim = EmbeddingDim(records[kept[0].first]);
  la::Matrix x(kept.size(), 2 * dim);
  for (size_t i = 0; i < kept.size(); ++i) {
    WriteUnitFeatures(records[kept[i].first], *kept[i].second, dim, x.Row(i));
  }
  mlp_ = nn::Mlp(options_.mlp);
  mlp_.Fit(x, y);
  fitted_ = true;
}

std::vector<double> RelevanceScorer::Score(
    const TokenizedRecord& record,
    const std::vector<DecisionUnit>& units) const {
  WYM_CHECK(fitted_) << "RelevanceScorer used before Fit";
  std::vector<double> scores(units.size());
  if (options_.kind == ScorerKind::kNeural && mlp_.fitted()) {
    if (units.empty()) return scores;
    // Every unit of the record as one row-major block, scored by one
    // block forward pass; the block is per-thread scratch.
    const size_t dim = EmbeddingDim(record);
    const size_t width = 2 * dim;
    WYM_CHECK_EQ(width, mlp_.input_dim());
    thread_local std::vector<double> block;
    block.resize(units.size() * width);
    for (size_t u = 0; u < units.size(); ++u) {
      WriteUnitFeatures(record, units[u], dim, block.data() + u * width);
    }
    mlp_.PredictRows(block.data(), units.size(), scores.data());
    return scores;
  }
  for (size_t u = 0; u < units.size(); ++u) {
    const DecisionUnit& unit = units[u];
    if (options_.kind == ScorerKind::kCosine) {
      scores[u] = unit.paired ? std::clamp(unit.similarity, -1.0, 1.0) : -0.5;
    } else {
      // kBinary, and kNeural fitted on a degenerate training corpus.
      scores[u] = unit.paired ? 1.0 : -1.0;
    }
  }
  return scores;
}

void RelevanceScorer::Save(serde::Serializer* s) const {
  s->Tag("scorer/v1");
  s->U64(static_cast<uint64_t>(options_.kind));
  s->F64(options_.alpha);
  s->F64(options_.beta);
  s->Bool(fitted_);
  s->Bool(mlp_.fitted());
  if (mlp_.fitted()) mlp_.Save(s);
}

bool RelevanceScorer::Load(serde::Deserializer* d) {
  if (!d->Tag("scorer/v1")) return false;
  const uint64_t kind = d->U64();
  if (kind > static_cast<uint64_t>(ScorerKind::kCosine)) return false;
  options_.kind = static_cast<ScorerKind>(kind);
  options_.alpha = d->F64();
  options_.beta = d->F64();
  fitted_ = d->Bool();
  const bool has_mlp = d->Bool();
  if (has_mlp && !mlp_.Load(d)) return false;
  return d->ok();
}

}  // namespace wym::core
