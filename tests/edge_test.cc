// Edge cases across modules that the main suites do not pin down.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "baselines/similarity_features.h"
#include "core/feature_extractor.h"
#include "core/wym.h"
#include "data/benchmark_gen.h"
#include "data/record.h"
#include "data/split.h"
#include "matching/stable_marriage.h"
#include "ml/metrics.h"
#include "text/tokenizer.h"
#include "util/random.h"

namespace wym {
namespace {

TEST(TokenizerEdgeTest, MultiDotNumbers) {
  const text::Tokenizer tokenizer;
  // "1.2.3" keeps digit-adjacent dots: a single version-like token.
  EXPECT_EQ(tokenizer.Tokenize("v 1.2.3"),
            (std::vector<std::string>{"v", "1.2.3"}));
  // Trailing dot is punctuation.
  EXPECT_EQ(tokenizer.Tokenize("end."), (std::vector<std::string>{"end"}));
  // Colon-separated times split (no digit-dot rule for ':').
  EXPECT_EQ(tokenizer.Tokenize("3:45"),
            (std::vector<std::string>{"3", "45"}));
}

TEST(TokenizerEdgeTest, ConsecutiveSeparators) {
  const text::Tokenizer tokenizer;
  // Note "a" alone would be removed as a stop word.
  EXPECT_EQ(tokenizer.Tokenize("x..y--c//d"),
            (std::vector<std::string>{"x", "y", "c", "d"}));
}

TEST(StableMarriageEdgeTest, ThresholdAboveEverything) {
  la::Matrix sim(3, 3, 0.4);
  EXPECT_TRUE(matching::StableMarriage(sim, 0.9).empty());
}

TEST(StableMarriageEdgeTest, MoreLeftsThanRights) {
  la::Matrix sim(5, 2, 0.8);
  const auto matching = matching::StableMarriage(sim, 0.5);
  EXPECT_EQ(matching.size(), 2u);  // One-to-one caps at min side.
}

TEST(ExplanationEdgeTest, RankIsStableUnderTies) {
  core::Explanation explanation;
  for (double impact : {0.5, -0.5, 0.5}) {
    explanation.units.push_back({{}, 0.0, impact});
  }
  const auto order = explanation.RankByImpactMagnitude();
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2}));  // stable_sort.
}

TEST(FeatureExtractorEdgeTest, EvenMedianSplitsAttribution) {
  const core::FeatureExtractor extractor(1, /*simplified=*/false);
  core::ScoredUnitSet set;
  for (double score : {0.1, 0.2, 0.3, 0.4}) {
    core::DecisionUnit unit;
    unit.paired = true;
    set.units.push_back(unit);
    set.scores.push_back(score);
  }
  size_t median_feature = 0;
  const auto& names = extractor.feature_names();
  for (size_t f = 0; f < names.size(); ++f) {
    if (names[f] == "all_median") median_feature = f;
  }
  // Value = mean of middle two; each gets half of the median's
  // coefficient. Under a coefficient of 1 on all_median alone, a unit's
  // impact is its weight times its relevance over the 11 attributions
  // it receives (attr0_paired count + mean, all count + sum + mean,
  // pos count + sum + mean, paired count + mean, all_median); the
  // middle units achieve no max, min or range.
  const auto features = extractor.Extract(set);
  EXPECT_NEAR(features[median_feature], 0.25, 1e-12);
  std::vector<double> coefficients(extractor.dim(), 0.0);
  coefficients[median_feature] = 1.0;
  std::vector<double> row, impacts;
  extractor.Compute(set, &row, coefficients, &impacts);
  ASSERT_EQ(impacts.size(), set.size());
  EXPECT_EQ(impacts[0], 0.0);
  EXPECT_DOUBLE_EQ(impacts[1], 0.5 * 0.2 / 11.0);
  EXPECT_DOUBLE_EQ(impacts[2], 0.5 * 0.3 / 11.0);
  EXPECT_EQ(impacts[3], 0.0);
}

TEST(MetricsEdgeTest, ThresholdHelpersDegenerateInputs) {
  EXPECT_DOUBLE_EQ(ml::BestF1Threshold({}, {}), 0.5);
  const double threshold = ml::BestF1Threshold({0.3, 0.4}, {0, 0});
  EXPECT_GT(threshold, 0.0);
  EXPECT_LT(threshold, 1.0);
  // Degenerate thresholds are identity mappings.
  EXPECT_DOUBLE_EQ(ml::RecalibrateProba(0.7, 0.0), 0.7);
  EXPECT_DOUBLE_EQ(ml::RecalibrateProba(0.7, 1.0), 0.7);
}

TEST(RngEdgeTest, ForkedStreamsDiverge) {
  Rng parent(1);
  Rng a(parent.Fork());
  Rng b(parent.Fork());
  bool differ = false;
  for (int i = 0; i < 16 && !differ; ++i) {
    differ = a.Uniform() != b.Uniform();
  }
  EXPECT_TRUE(differ);
}

TEST(DatasetEdgeTest, EmptySubset) {
  data::Dataset dataset;
  dataset.name = "d";
  dataset.schema = {{"a"}};
  const data::Dataset subset = data::Subset(dataset, {}, "/empty");
  EXPECT_EQ(subset.size(), 0u);
  EXPECT_DOUBLE_EQ(subset.MatchPercent(), 0.0);
}

TEST(SimilarityFeaturesEdgeTest, BothEmptyValues) {
  const auto features = baselines::AttributePairFeatures("", "");
  ASSERT_EQ(features.size(), baselines::kPerAttributeFeatures);
  EXPECT_DOUBLE_EQ(features.back(), 0.0);  // Both-present flag off.
  for (double f : features) {
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0 + 1e-12);
  }
}

TEST(WymEdgeTest, RecordWithEmptyEntityStillPredicts) {
  const data::Dataset dataset = data::GenerateById("S-FZ", 13, 0.2);
  const data::Split split = data::DefaultSplit(dataset, 13);
  core::WymModel model;
  model.Fit(split.train, split.validation);

  data::EmRecord record = split.test.records.front();
  for (auto& value : record.right.values) value.clear();
  const double proba = model.PredictProba(record);
  EXPECT_GE(proba, 0.0);
  EXPECT_LE(proba, 1.0);
  // All surviving units are unpaired lefts.
  const core::Explanation explanation = model.Explain(record);
  for (const auto& eu : explanation.units) {
    EXPECT_FALSE(eu.unit.paired);
    EXPECT_EQ(eu.unit.unpaired_side, core::Side::kLeft);
  }
}

TEST(WymEdgeTest, BothEntitiesEmptyYieldNoUnits) {
  const data::Dataset dataset = data::GenerateById("S-FZ", 13, 0.2);
  const data::Split split = data::DefaultSplit(dataset, 13);
  core::WymModel model;
  model.Fit(split.train, split.validation);

  // Two records with zero tokens on both sides: empty values, and
  // stopword-only values that the tokenizer drops entirely.
  data::EmRecord empty;
  empty.left.values.assign(dataset.schema.size(), "");
  empty.right.values.assign(dataset.schema.size(), "");
  data::EmRecord stopwords = empty;
  stopwords.left.values[0] = "the";
  stopwords.right.values[0] = "a of";
  data::Dataset batch;
  batch.schema = dataset.schema;
  batch.records = {empty, stopwords};
  const std::vector<data::EmRecord>& records = batch.records;

  // Every entry point gives them the same non-match fallback, bit for
  // bit: probability 0.0, prediction 0, no units.
  core::PredictionReport predict_report, explain_report;
  const std::vector<double> probabilities =
      model.PredictProbaBatch(batch, &predict_report);
  const std::vector<core::Explanation> explained =
      model.ExplainBatch(batch, &explain_report);
  EXPECT_EQ(predict_report.quarantined.size(), records.size());
  EXPECT_EQ(explain_report.quarantined.size(), records.size());
  const double zero = 0.0;
  for (size_t i = 0; i < records.size(); ++i) {
    const double single = model.PredictProba(records[i]);
    const core::Explanation explanation = model.Explain(records[i]);
    EXPECT_EQ(std::memcmp(&single, &zero, sizeof(double)), 0) << i;
    EXPECT_EQ(std::memcmp(&explanation.probability, &zero, sizeof(double)),
              0)
        << i;
    EXPECT_EQ(std::memcmp(&probabilities[i], &zero, sizeof(double)), 0)
        << i;
    EXPECT_EQ(std::memcmp(&explained[i].probability, &zero, sizeof(double)),
              0)
        << i;
    EXPECT_EQ(model.Predict(records[i]), 0) << i;
    EXPECT_EQ(explanation.prediction, 0) << i;
    EXPECT_EQ(explained[i].prediction, 0) << i;
    EXPECT_TRUE(explanation.units.empty()) << i;
    EXPECT_TRUE(explained[i].units.empty()) << i;
  }
}

}  // namespace
}  // namespace wym
