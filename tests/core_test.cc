#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <string>

#include "core/decision_unit.h"
#include "core/explainable_matcher.h"
#include "core/feature_extractor.h"
#include "core/relevance_scorer.h"
#include "core/tokenized_record.h"
#include "core/unit_generator.h"
#include "data/benchmark_gen.h"
#include "embedding/semantic_encoder.h"
#include "la/vector_ops.h"
#include "text/tokenizer.h"
#include "util/random.h"

namespace wym::core {
namespace {

const text::Tokenizer& TestTokenizer() {
  static const text::Tokenizer tokenizer{};
  return tokenizer;
}

embedding::SemanticEncoder MakeEncoder(
    const std::vector<std::vector<std::string>>& corpus) {
  embedding::SemanticEncoderOptions options;
  options.mode = embedding::EncoderMode::kFineTuned;
  options.hash_dim = 24;
  options.cooc_dim = 8;
  options.numeric_dims = 6;
  embedding::SemanticEncoder encoder(options);
  encoder.Fit(corpus);
  return encoder;
}

TokenizedRecord MakeRecord(const data::Schema& schema,
                           std::vector<std::string> left_values,
                           std::vector<std::string> right_values,
                           int label,
                           const embedding::SemanticEncoder& encoder) {
  data::EmRecord record;
  record.left.values = std::move(left_values);
  record.right.values = std::move(right_values);
  record.label = label;
  TokenizedRecord tokenized = TokenizeRecord(record, schema, TestTokenizer());
  EncodeEntity(encoder, &tokenized.left);
  EncodeEntity(encoder, &tokenized.right);
  tokenized.label = label;
  return tokenized;
}

// ---------------------------------------------------------------------
// Decision unit & tokenization basics.
// ---------------------------------------------------------------------

TEST(DecisionUnitTest, Labels) {
  DecisionUnit paired;
  paired.paired = true;
  paired.left.token = "exch";
  paired.right.token = "exch";
  EXPECT_EQ(paired.Label(), "(exch, exch)");

  DecisionUnit unpaired;
  unpaired.paired = false;
  unpaired.unpaired_side = Side::kRight;
  unpaired.right.token = "eng";
  EXPECT_EQ(unpaired.Label(), "(eng)");
}

TEST(DecisionUnitTest, AnchorAttribute) {
  DecisionUnit unit;
  unit.paired = true;
  unit.left.attribute = 2;
  unit.right.attribute = 0;
  EXPECT_EQ(unit.AnchorAttribute(), 2u);
  unit.paired = false;
  unit.unpaired_side = Side::kRight;
  EXPECT_EQ(unit.AnchorAttribute(), 0u);
}

TEST(TokenizedRecordTest, AttributeBookkeeping) {
  const data::Schema schema{{"name", "brand"}};
  data::Entity entity;
  entity.values = {"digital camera", "sony"};
  const TokenizedEntity tokenized =
      TokenizeEntity(entity, schema.size(), TestTokenizer());
  ASSERT_EQ(tokenized.tokens.size(), 3u);
  EXPECT_EQ(tokenized.attribute_of[0], 0u);
  EXPECT_EQ(tokenized.attribute_of[2], 1u);
  EXPECT_EQ(tokenized.TokensOfAttribute(0).size(), 2u);
  EXPECT_EQ(tokenized.TokensOfAttribute(1).size(), 1u);
}

// ---------------------------------------------------------------------
// Algorithm 1: DecisionUnitDiscovery.
// ---------------------------------------------------------------------

class UnitGeneratorTest : public ::testing::Test {
 protected:
  UnitGeneratorTest()
      : schema_{{"name", "brand"}},
        encoder_(MakeEncoder({{"digital", "camera", "sony"},
                              {"digital", "lens", "nikon"}})) {}

  data::Schema schema_;
  embedding::SemanticEncoder encoder_;
};

TEST_F(UnitGeneratorTest, IdenticalDescriptionsFullyPair) {
  const TokenizedRecord record = MakeRecord(
      schema_, {"digital camera", "sony"}, {"digital camera", "sony"}, 1,
      encoder_);
  const DecisionUnitGenerator generator;
  const auto units =
      generator.Generate(record.left, record.right, schema_.size());
  size_t paired = 0;
  for (const auto& unit : units) paired += unit.paired;
  EXPECT_EQ(paired, 3u);
  EXPECT_EQ(units.size(), 3u);  // No unpaired leftovers.
  EXPECT_TRUE(CheckUnitConstraints(units, record.left, record.right));
}

TEST_F(UnitGeneratorTest, DisjointDescriptionsAllUnpaired) {
  const TokenizedRecord record = MakeRecord(
      schema_, {"digital camera", "sony"}, {"wooden table", "ikea"}, 0,
      encoder_);
  UnitGeneratorOptions options;
  options.theta = 0.9;  // Nothing clears a 0.9 bar here.
  options.eta = 0.92;
  options.epsilon = 0.95;
  const DecisionUnitGenerator generator(options);
  const auto units =
      generator.Generate(record.left, record.right, schema_.size());
  for (const auto& unit : units) EXPECT_FALSE(unit.paired);
  EXPECT_EQ(units.size(), 6u);  // 3 left + 3 right tokens, all unpaired.
  EXPECT_TRUE(CheckUnitConstraints(units, record.left, record.right));
}

TEST_F(UnitGeneratorTest, InterAttributePhaseRescuesMisplacedValues) {
  // "sony" sits in the name on the left and in brand on the right:
  // phase 1 cannot pair it, phase 2 must.
  const TokenizedRecord record = MakeRecord(
      schema_, {"camera sony", ""}, {"camera", "sony"}, 1, encoder_);
  const DecisionUnitGenerator generator;
  const auto units =
      generator.Generate(record.left, record.right, schema_.size());
  bool found_inter = false;
  for (const auto& unit : units) {
    if (unit.paired && unit.left.token == "sony") {
      EXPECT_EQ(unit.phase, UnitPhase::kInterAttribute);
      EXPECT_EQ(unit.right.token, "sony");
      found_inter = true;
    }
  }
  EXPECT_TRUE(found_inter);
  EXPECT_TRUE(CheckUnitConstraints(units, record.left, record.right));
}

TEST_F(UnitGeneratorTest, OneToManyPhaseHandlesRepetitions) {
  // Left repeats "camera"; the right has one. The second left "camera"
  // can only pair through phase 3 against the already-paired right token.
  const TokenizedRecord record = MakeRecord(
      schema_, {"camera camera", "sony"}, {"camera", "sony"}, 1, encoder_);
  const DecisionUnitGenerator generator;
  const auto units =
      generator.Generate(record.left, record.right, schema_.size());
  size_t camera_pairs = 0;
  bool saw_one_to_many = false;
  for (const auto& unit : units) {
    if (unit.paired && unit.left.token == "camera") {
      ++camera_pairs;
      saw_one_to_many =
          saw_one_to_many || unit.phase == UnitPhase::kOneToMany;
    }
  }
  EXPECT_EQ(camera_pairs, 2u);
  EXPECT_TRUE(saw_one_to_many);
  EXPECT_TRUE(CheckUnitConstraints(units, record.left, record.right));
}

TEST_F(UnitGeneratorTest, JaroWinklerModeNeedsNoEmbeddings) {
  data::EmRecord raw;
  raw.left.values = {"digital camera", "sony"};
  raw.right.values = {"digitall camera", "sonny"};
  TokenizedRecord record =
      TokenizeRecord(raw, schema_, TestTokenizer());  // No encoding.
  UnitGeneratorOptions options;
  options.similarity = PairingSimilarity::kJaroWinkler;
  const DecisionUnitGenerator generator(options);
  const auto units =
      generator.Generate(record.left, record.right, schema_.size());
  size_t paired = 0;
  for (const auto& unit : units) paired += unit.paired;
  EXPECT_EQ(paired, 3u);  // Typos survive Jaro-Winkler at 0.6.
}

TEST_F(UnitGeneratorTest, RuleVetoesPairs) {
  const TokenizedRecord record = MakeRecord(
      schema_, {"camera dslra200w", "sony"}, {"camera dslra300w", "sony"},
      0, encoder_);
  // Sibling codes sit around cosine ~0.4 in the hash space; drop the
  // thresholds so the spurious pair forms without the rule.
  UnitGeneratorOptions options;
  options.theta = 0.35;
  options.eta = 0.4;
  options.epsilon = 0.45;
  const DecisionUnitGenerator unruled(options);
  options.rules.push_back(EqualProductCodeRule());
  const DecisionUnitGenerator ruled(options);

  auto count_code_pairs = [&](const DecisionUnitGenerator& generator) {
    size_t count = 0;
    for (const auto& unit :
         generator.Generate(record.left, record.right, schema_.size())) {
      if (unit.paired && unit.left.token == "dslra200w") ++count;
    }
    return count;
  };
  EXPECT_GT(count_code_pairs(unruled), 0u);  // Spurious sibling-code pair.
  EXPECT_EQ(count_code_pairs(ruled), 0u);    // Vetoed.
}

TEST_F(UnitGeneratorTest, ConstraintsHoldOnGeneratedBenchmark) {
  // Property sweep: the two §3.1.1 constraints hold on real records.
  const data::Dataset dataset = data::GenerateById("S-IA", 3, 0.2);
  std::vector<std::vector<std::string>> corpus;
  std::vector<TokenizedRecord> records;
  for (const auto& raw : dataset.records) {
    TokenizedRecord record =
        TokenizeRecord(raw, dataset.schema, TestTokenizer());
    corpus.push_back(record.left.tokens);
    corpus.push_back(record.right.tokens);
    records.push_back(std::move(record));
  }
  const embedding::SemanticEncoder encoder = MakeEncoder(corpus);
  const DecisionUnitGenerator generator;
  for (auto& record : records) {
    EncodeEntity(encoder, &record.left);
    EncodeEntity(encoder, &record.right);
    const auto units =
        generator.Generate(record.left, record.right, dataset.schema.size());
    EXPECT_TRUE(CheckUnitConstraints(units, record.left, record.right));
  }
}

// ---------------------------------------------------------------------
// Relevance scorer: Eq. 2 rules, symmetry (R3), cardinality (R5).
// ---------------------------------------------------------------------

TEST(RelevanceScorerTest, Eq2TargetRules) {
  RelevanceScorer scorer;  // alpha = 0.55, beta = 0.45.
  DecisionUnit paired;
  paired.paired = true;

  paired.similarity = 0.9;
  EXPECT_DOUBLE_EQ(scorer.RawTarget(paired, 1), 1.0);   // Consistent match.
  EXPECT_DOUBLE_EQ(scorer.RawTarget(paired, 0), 0.0);   // Neutralized (R1).
  paired.similarity = 0.1;
  EXPECT_DOUBLE_EQ(scorer.RawTarget(paired, 1), 0.0);   // Neutralized (R1).
  EXPECT_DOUBLE_EQ(scorer.RawTarget(paired, 0), -1.0);  // Consistent.

  DecisionUnit unpaired;
  unpaired.paired = false;
  EXPECT_DOUBLE_EQ(scorer.RawTarget(unpaired, 1), 0.0);
  EXPECT_DOUBLE_EQ(scorer.RawTarget(unpaired, 0), -1.0);
}

TEST(RelevanceScorerTest, FeaturesAreSymmetric) {
  const data::Schema schema{{"name"}};
  const auto encoder = MakeEncoder({{"alpha", "beta"}});
  const TokenizedRecord record =
      MakeRecord(schema, {"alpha"}, {"beta"}, 1, encoder);

  DecisionUnit forward;
  forward.paired = true;
  forward.left = {0, 0, "alpha"};
  forward.right = {0, 0, "beta"};

  // Swap the record sides to reverse the unit: features must not change
  // (requirement R3 — mean and |diff| are symmetric).
  TokenizedRecord reversed = record;
  std::swap(reversed.left, reversed.right);
  DecisionUnit backward;
  backward.paired = true;
  backward.left = {0, 0, "beta"};
  backward.right = {0, 0, "alpha"};

  const auto f = RelevanceScorer::UnitFeatures(record, forward);
  const auto g = RelevanceScorer::UnitFeatures(reversed, backward);
  ASSERT_EQ(f.size(), g.size());
  for (size_t i = 0; i < f.size(); ++i) {
    EXPECT_NEAR(f[i], g[i], 1e-9);
  }
}

TEST(RelevanceScorerTest, UnpairedUsesZeroEmbedding) {
  const data::Schema schema{{"name"}};
  const auto encoder = MakeEncoder({{"alpha"}});
  const TokenizedRecord record =
      MakeRecord(schema, {"alpha"}, {"alpha"}, 1, encoder);
  DecisionUnit unpaired;
  unpaired.paired = false;
  unpaired.unpaired_side = Side::kLeft;
  unpaired.left = {0, 0, "alpha"};

  const auto features = RelevanceScorer::UnitFeatures(record, unpaired);
  const size_t dim = record.left.embedding_dim;
  ASSERT_EQ(features.size(), 2 * dim);
  // mean = v/2 and |diff| = |v| must coincide up to factor 2 (R5).
  for (size_t i = 0; i < dim; ++i) {
    EXPECT_NEAR(2.0 * features[i],
                std::fabs(features[dim + i]) *
                    (features[i] >= 0 ? 1.0 : -1.0),
                1e-5);
  }
}

TEST(RelevanceScorerTest, NeuralScorerLearnsPairedVsUnpaired) {
  // Train on a corpus where paired units in matches are identical tokens
  // and non-matches carry unpaired tokens; the scorer must score paired
  // units above unpaired ones.
  const data::Schema schema{{"name", "brand"}};
  std::vector<std::vector<std::string>> corpus = {
      {"digital", "camera", "sony"}, {"wireless", "router", "netgear"}};
  const auto encoder = MakeEncoder(corpus);

  std::vector<TokenizedRecord> records;
  std::vector<std::vector<DecisionUnit>> units;
  const DecisionUnitGenerator generator;
  for (int i = 0; i < 30; ++i) {
    records.push_back(MakeRecord(schema, {"digital camera", "sony"},
                                 {"digital camera", "sony"}, 1, encoder));
    records.push_back(MakeRecord(schema, {"digital camera", "sony"},
                                 {"wireless router", "netgear"}, 0,
                                 encoder));
  }
  for (const auto& record : records) {
    units.push_back(
        generator.Generate(record.left, record.right, schema.size()));
  }
  RelevanceScorerOptions options;
  options.mlp.epochs = 30;
  RelevanceScorer scorer(options);
  scorer.Fit(records, units);

  const auto scores = scorer.Score(records[0], units[0]);
  const auto non_match_scores = scorer.Score(records[1], units[1]);
  // Paired identical units in the match score positive...
  for (size_t u = 0; u < units[0].size(); ++u) {
    if (units[0][u].paired) {
      EXPECT_GT(scores[u], 0.0);
    }
  }
  // ...and unpaired units in the non-match score negative.
  for (size_t u = 0; u < units[1].size(); ++u) {
    if (!units[1][u].paired) {
      EXPECT_LT(non_match_scores[u], 0.0);
    }
  }
}

TEST(RelevanceScorerTest, UnitFeaturesMatchMeanOfAndAbsDiff) {
  // The feature writer keeps la::MeanOf / la::AbsDiff's float
  // arithmetic, with the zero vector standing in for an unpaired side.
  const data::Schema schema{{"name"}};
  const auto encoder = MakeEncoder({{"alpha", "beta"}});
  const TokenizedRecord record =
      MakeRecord(schema, {"alpha"}, {"beta"}, 1, encoder);
  const size_t dim = record.left.embedding_dim;
  const la::Vec left(record.left.EmbeddingRow(0),
                     record.left.EmbeddingRow(0) + dim);
  const la::Vec right(record.right.EmbeddingRow(0),
                      record.right.EmbeddingRow(0) + dim);
  const la::Vec zero = la::Zeros(left.size());

  DecisionUnit paired;
  paired.paired = true;
  DecisionUnit left_only;
  left_only.unpaired_side = Side::kLeft;
  DecisionUnit right_only;
  right_only.unpaired_side = Side::kRight;
  struct Case {
    const DecisionUnit* unit;
    const la::Vec* l;
    const la::Vec* r;
  };
  const Case cases[] = {{&paired, &left, &right},
                        {&left_only, &left, &zero},
                        {&right_only, &zero, &right}};
  for (const Case& c : cases) {
    std::vector<double> expected;
    for (float v : la::MeanOf(*c.l, *c.r)) expected.push_back(v);
    for (float v : la::AbsDiff(*c.l, *c.r)) expected.push_back(v);
    const std::vector<double> features =
        RelevanceScorer::UnitFeatures(record, *c.unit);
    ASSERT_EQ(features.size(), expected.size());
    EXPECT_EQ(std::memcmp(features.data(), expected.data(),
                          expected.size() * sizeof(double)),
              0);
  }
}

TEST(RelevanceScorerTest, BlockScoreEqualsPerUnitPredictBitForBit) {
  // Score packs a record's units into one block for one forward pass;
  // each score must equal the per-unit path bit for bit.
  const data::Schema schema{{"name", "brand"}};
  const auto encoder = MakeEncoder(
      {{"digital", "camera", "sony"}, {"wireless", "router", "netgear"}});
  std::vector<TokenizedRecord> records;
  std::vector<std::vector<DecisionUnit>> units;
  const DecisionUnitGenerator generator;
  for (int i = 0; i < 10; ++i) {
    records.push_back(MakeRecord(schema, {"digital camera", "sony"},
                                 {"digital camera", "sony"}, 1, encoder));
    records.push_back(MakeRecord(schema, {"digital camera", "sony"},
                                 {"wireless router", "netgear"}, 0,
                                 encoder));
  }
  for (const auto& record : records) {
    units.push_back(
        generator.Generate(record.left, record.right, schema.size()));
  }
  RelevanceScorerOptions options;
  options.mlp.epochs = 3;
  RelevanceScorer scorer(options);
  scorer.Fit(records, units);
  ASSERT_TRUE(scorer.network().fitted());

  // Paired, unpaired-left and unpaired-right units in one record.
  const TokenizedRecord mixed =
      MakeRecord(schema, {"digital camera", "sony"},
                 {"digital router", "sony"}, 0, encoder);
  const std::vector<DecisionUnit> mixed_units =
      generator.Generate(mixed.left, mixed.right, schema.size());
  size_t paired = 0, left_only = 0, right_only = 0;
  for (const auto& unit : mixed_units) {
    if (unit.paired) {
      ++paired;
    } else if (unit.unpaired_side == Side::kLeft) {
      ++left_only;
    } else {
      ++right_only;
    }
  }
  ASSERT_GT(paired, 0u);
  ASSERT_GT(left_only, 0u);
  ASSERT_GT(right_only, 0u);

  // The same units over a record whose right side has no embeddings:
  // every right-hand lookup reads the zero [UNP] vector.
  TokenizedRecord one_sided = mixed;
  one_sided.right.raw_embeddings.clear();

  const TokenizedRecord* checked[] = {&mixed, &one_sided};
  for (const TokenizedRecord* record : checked) {
    const std::vector<double> scores = scorer.Score(*record, mixed_units);
    ASSERT_EQ(scores.size(), mixed_units.size());
    for (size_t u = 0; u < mixed_units.size(); ++u) {
      const double single = scorer.network().Predict(
          RelevanceScorer::UnitFeatures(*record, mixed_units[u]));
      EXPECT_EQ(std::memcmp(&scores[u], &single, sizeof(double)), 0)
          << (record == &mixed ? "mixed" : "one-sided") << " unit " << u;
    }
  }
}

TEST(RelevanceScorerTest, BinaryAndCosineVariants) {
  const data::Schema schema{{"name"}};
  const auto encoder = MakeEncoder({{"a"}});
  const TokenizedRecord record = MakeRecord(schema, {"a"}, {"a"}, 1, encoder);
  std::vector<DecisionUnit> units(2);
  units[0].paired = true;
  units[0].similarity = 0.8;
  units[1].paired = false;

  RelevanceScorerOptions binary;
  binary.kind = ScorerKind::kBinary;
  RelevanceScorer binary_scorer(binary);
  binary_scorer.Fit({}, {});
  EXPECT_EQ(binary_scorer.Score(record, units),
            (std::vector<double>{1.0, -1.0}));

  RelevanceScorerOptions cosine;
  cosine.kind = ScorerKind::kCosine;
  RelevanceScorer cosine_scorer(cosine);
  cosine_scorer.Fit({}, {});
  const auto scores = cosine_scorer.Score(record, units);
  EXPECT_DOUBLE_EQ(scores[0], 0.8);
  EXPECT_LT(scores[1], 0.0);
}

// ---------------------------------------------------------------------
// Feature extractor + inverse transformation.
// ---------------------------------------------------------------------

ScoredUnitSet MakeScoredSet() {
  ScoredUnitSet set;
  auto add = [&](bool paired, size_t attr, double score) {
    DecisionUnit unit;
    unit.paired = paired;
    unit.left.attribute = attr;
    unit.right.attribute = attr;
    if (!paired) unit.unpaired_side = Side::kLeft;
    set.units.push_back(unit);
    set.scores.push_back(score);
  };
  add(true, 0, 0.8);
  add(true, 0, 0.4);
  add(false, 0, -0.9);
  add(true, 1, 0.1);
  add(false, 1, -0.5);
  return set;
}

TEST(FeatureExtractorTest, DimsAndNames) {
  const FeatureExtractor full(2, /*simplified=*/false);
  EXPECT_EQ(full.dim(), full.feature_names().size());
  EXPECT_EQ(full.dim(), 2 * 7 + 4 + 17u);
  const FeatureExtractor simplified(2, /*simplified=*/true);
  EXPECT_EQ(simplified.dim(), 6u);
}

TEST(FeatureExtractorTest, SimplifiedFeatureValues) {
  const FeatureExtractor extractor(2, /*simplified=*/true);
  const auto f = extractor.Extract(MakeScoredSet());
  ASSERT_EQ(f.size(), 6u);
  EXPECT_DOUBLE_EQ(f[0], 5.0);                          // all count.
  EXPECT_NEAR(f[1], (0.8 + 0.4 - 0.9 + 0.1 - 0.5) / 5, 1e-12);  // mean.
  EXPECT_DOUBLE_EQ(f[2], 3.0);                          // pos count.
  EXPECT_NEAR(f[3], (0.8 + 0.4 + 0.1) / 3, 1e-12);
  EXPECT_DOUBLE_EQ(f[4], 2.0);                          // neg count.
  EXPECT_NEAR(f[5], (-0.9 - 0.5) / 2, 1e-12);
}

TEST(FeatureExtractorTest, EmptySetIsAllZero) {
  const FeatureExtractor extractor(2, false);
  const auto f = extractor.Extract({});
  for (double v : f) EXPECT_DOUBLE_EQ(v, 0.0);
}

/// Impacts under a coefficient vector that is 1 on the feature `name`
/// and 0 elsewhere: each unit's impact is then the weight that feature
/// routes to it times its relevance, over the number of attributions
/// the unit receives from all features.
std::vector<double> OneHotImpacts(const FeatureExtractor& extractor,
                                  const ScoredUnitSet& set,
                                  const std::string& name) {
  const auto& names = extractor.feature_names();
  std::vector<double> coefficients(names.size(), 0.0);
  const auto it = std::find(names.begin(), names.end(), name);
  EXPECT_NE(it, names.end()) << name;
  if (it != names.end()) coefficients[it - names.begin()] = 1.0;
  std::vector<double> features, impacts;
  extractor.Compute(set, &features, coefficients, &impacts);
  EXPECT_EQ(impacts.size(), set.size());
  return impacts;
}

TEST(FeatureExtractorTest, AttributionWeightsAreInverse) {
  const FeatureExtractor extractor(2, /*simplified=*/true);
  const ScoredUnitSet set = MakeScoredSet();
  // Every unit receives exactly four attributions: all_count, all_mean,
  // and count + mean of its sign group.
  constexpr double kTouched = 4.0;

  // all_count spreads 1/5 onto |relevance|: a negative unit still gets a
  // positive share of a positive count coefficient.
  const auto all_count = OneHotImpacts(extractor, set, "all_count");
  for (size_t u = 0; u < set.size(); ++u) {
    EXPECT_DOUBLE_EQ(all_count[u], 0.2 * std::abs(set.scores[u]) / kTouched)
        << u;
  }
  EXPECT_GT(all_count[2], 0.0);  // Relevance -0.9.

  // all_mean spreads 1/5 onto the signed relevance.
  const auto all_mean = OneHotImpacts(extractor, set, "all_mean");
  for (size_t u = 0; u < set.size(); ++u) {
    EXPECT_DOUBLE_EQ(all_mean[u], 0.2 * set.scores[u] / kTouched) << u;
  }

  // pos_count spreads 1/3 over the three positive units only.
  const auto pos_count = OneHotImpacts(extractor, set, "pos_count");
  for (size_t u : {0u, 1u, 3u}) {
    EXPECT_DOUBLE_EQ(pos_count[u], set.scores[u] / 3.0 / kTouched) << u;
  }
  EXPECT_EQ(pos_count[2], 0.0);
  EXPECT_EQ(pos_count[4], 0.0);
}

TEST(FeatureExtractorTest, MinMaxAttachToAchievingUnit) {
  const FeatureExtractor extractor(1, /*simplified=*/false);
  ScoredUnitSet set;
  for (double score : {0.9, -0.7, 0.2}) {
    DecisionUnit unit;
    unit.paired = true;
    set.units.push_back(unit);
    set.scores.push_back(score);
  }
  // Attributions per unit. All three receive attr0_paired count + mean,
  // all count + sum + mean, their sign group's count + sum + mean and
  // paired count + mean (10). On top of that unit 0 (0.9) gets
  // attr0_paired_max, all_max and all_range's +1 (13), unit 1 (-0.7)
  // gets attr0_paired_min, all_min and all_range's -1 (13), and unit 2
  // (0.2) gets all_median (11).
  const double touched[] = {13.0, 13.0, 11.0};

  const auto max = OneHotImpacts(extractor, set, "all_max");
  EXPECT_DOUBLE_EQ(max[0], 0.9 / touched[0]);
  EXPECT_EQ(max[1], 0.0);
  EXPECT_EQ(max[2], 0.0);

  const auto min = OneHotImpacts(extractor, set, "all_min");
  EXPECT_EQ(min[0], 0.0);
  EXPECT_DOUBLE_EQ(min[1], -0.7 / touched[1]);
  EXPECT_EQ(min[2], 0.0);

  // Range = max - min: +1 on the max unit, -1 on the min unit.
  const auto range = OneHotImpacts(extractor, set, "all_range");
  EXPECT_DOUBLE_EQ(range[0], 1.0 * 0.9 / touched[0]);
  EXPECT_DOUBLE_EQ(range[1], -1.0 * -0.7 / touched[1]);
  EXPECT_EQ(range[2], 0.0);

  // The per-attribute max and min follow the same rule.
  const auto attr_max = OneHotImpacts(extractor, set, "attr0_paired_max");
  EXPECT_DOUBLE_EQ(attr_max[0], 0.9 / touched[0]);
  EXPECT_EQ(attr_max[1], 0.0);
  const auto attr_min = OneHotImpacts(extractor, set, "attr0_paired_min");
  EXPECT_DOUBLE_EQ(attr_min[1], -0.7 / touched[1]);
  EXPECT_EQ(attr_min[0], 0.0);
}

// The sparse attribution the extractor built in a second pass before
// impacts came out of the feature pass: one contribution list per unit,
// folded into a weighted mean. Groups and statistics are rebuilt from
// the feature names, so the reference shares no code with Compute.
struct ReferenceContribution {
  size_t feature = 0;
  double weight = 0.0;
  bool magnitude = false;
};

std::vector<double> ReferenceImpacts(const FeatureExtractor& extractor,
                                     const ScoredUnitSet& set,
                                     const std::vector<double>& coefficients) {
  const size_t width = extractor.num_attributes();
  auto in_group = [&](const std::string& group, size_t u) {
    const DecisionUnit& unit = set.units[u];
    const double score = set.scores[u];
    if (group == "all") return true;
    if (group == "pos") return score > 0.0;
    if (group == "neg") return !(score > 0.0);
    if (group == "paired") return unit.paired;
    if (group == "unpaired") return !unit.paired;
    if (group == "left_unpaired") {
      return !unit.paired && unit.unpaired_side == Side::kLeft;
    }
    if (group == "right_unpaired") {
      return !unit.paired && unit.unpaired_side == Side::kRight;
    }
    // "attr<a>_paired" / "attr<a>_unpaired"; anchors past the schema
    // width fold into the last attribute.
    const size_t cut = group.find('_');
    const size_t attr = std::stoul(group.substr(4, cut - 4));
    const bool paired = group.substr(cut + 1) == "paired";
    return unit.paired == paired &&
           std::min(unit.AnchorAttribute(), width - 1) == attr;
  };

  std::vector<std::vector<ReferenceContribution>> attribution(set.size());
  const auto& names = extractor.feature_names();
  for (size_t f = 0; f < names.size(); ++f) {
    const size_t cut = names[f].rfind('_');
    const std::string group = names[f].substr(0, cut);
    const std::string stat = names[f].substr(cut + 1);
    std::vector<size_t> members;
    for (size_t u = 0; u < set.size(); ++u) {
      if (in_group(group, u)) members.push_back(u);
    }
    const size_t n = members.size();
    if (n == 0) continue;
    auto attribute = [&](size_t u, double weight) {
      if (weight != 0.0) {
        attribution[u].push_back({f, weight, stat == "count"});
      }
    };
    const auto& scores = set.scores;
    if (stat == "count" || stat == "mean") {
      for (size_t u : members) attribute(u, 1.0 / static_cast<double>(n));
    } else if (stat == "sum") {
      for (size_t u : members) attribute(u, 1.0);
    } else if (stat == "median") {
      std::vector<size_t> sorted = members;
      std::stable_sort(sorted.begin(), sorted.end(), [&](size_t a, size_t b) {
        return scores[a] < scores[b];
      });
      if (n % 2 == 1) {
        attribute(sorted[n / 2], 1.0);
      } else {
        attribute(sorted[n / 2 - 1], 0.5);
        attribute(sorted[n / 2], 0.5);
      }
    } else {
      size_t max_u = members[0], min_u = members[0];
      for (size_t u : members) {
        if (scores[u] > scores[max_u]) max_u = u;
        if (scores[u] < scores[min_u]) min_u = u;
      }
      if (stat == "max" || stat == "range") attribute(max_u, 1.0);
      if (stat == "min") attribute(min_u, 1.0);
      if (stat == "range") attribute(min_u, -1.0);
    }
  }

  std::vector<double> impacts(set.size(), 0.0);
  for (size_t u = 0; u < set.size(); ++u) {
    double sum = 0.0;
    size_t touched = 0;
    for (const ReferenceContribution& c : attribution[u]) {
      const double relevance =
          c.magnitude ? std::abs(set.scores[u]) : set.scores[u];
      sum += coefficients[c.feature] * c.weight * relevance;
      ++touched;
    }
    if (touched == 0) continue;
    impacts[u] = sum / static_cast<double>(touched);
  }
  return impacts;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(FeatureExtractorTest, OnePassImpactsMatchSparseReferenceBitForBit) {
  Rng rng(18);
  // Few distinct scores, zero among them, so max, min and median ties
  // are common; every fourth set draws continuous scores instead.
  const double kScores[] = {-0.9, -0.4, 0.0, 0.3, 0.7};
  size_t empty = 0, even = 0, max_ties = 0, min_ties = 0, median_ties = 0,
         zeros = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const size_t width = 1 + rng.Index(3);
    const size_t n = rng.Index(14);
    ScoredUnitSet set;
    for (size_t u = 0; u < n; ++u) {
      DecisionUnit unit;
      unit.paired = rng.Bernoulli(0.5);
      unit.unpaired_side = rng.Bernoulli(0.5) ? Side::kLeft : Side::kRight;
      // Up to one attribute past the width exercises the clamp.
      unit.left.attribute = rng.Index(width + 1);
      unit.right.attribute = rng.Index(width + 1);
      set.units.push_back(unit);
      set.scores.push_back(trial % 4 == 3 ? rng.Uniform(-1.0, 1.0)
                                          : kScores[rng.Index(5)]);
    }

    std::vector<double> sorted = set.scores;
    std::sort(sorted.begin(), sorted.end());
    empty += n == 0;
    even += n > 0 && n % 2 == 0;
    max_ties += n > 1 && sorted[n - 1] == sorted[n - 2];
    min_ties += n > 1 && sorted[0] == sorted[1];
    median_ties += n > 2 && (sorted[n / 2] == sorted[n / 2 - 1] ||
                             sorted[n / 2] == sorted[n / 2 + 1]);
    zeros += std::count(sorted.begin(), sorted.end(), 0.0) > 0;

    for (bool simplified : {false, true}) {
      const FeatureExtractor extractor(width, simplified);
      std::vector<double> coefficients(extractor.dim());
      for (double& c : coefficients) c = rng.Normal(0.0, 2.0);
      std::vector<double> features, impacts;
      extractor.Compute(set, &features, coefficients, &impacts);
      const std::vector<double> expected =
          ReferenceImpacts(extractor, set, coefficients);
      EXPECT_TRUE(SameBits(impacts, expected))
          << "trial " << trial << " simplified " << simplified;
      // Collecting impacts leaves the feature row's bits alone.
      EXPECT_TRUE(SameBits(features, extractor.Extract(set)))
          << "trial " << trial << " simplified " << simplified;
    }
  }
  // The draw covers the cases the attribution rules single out.
  EXPECT_GT(empty, 0u);
  EXPECT_GT(even, 50u);
  EXPECT_GT(max_ties, 50u);
  EXPECT_GT(min_ties, 50u);
  EXPECT_GT(median_ties, 50u);
  EXPECT_GT(zeros, 50u);
}

// ---------------------------------------------------------------------
// Explainable matcher.
// ---------------------------------------------------------------------

TEST(ExplainableMatcherTest, LearnsAndExplains) {
  // Matches: many positive-scored paired units. Non-matches: negative
  // unpaired units.
  std::vector<ScoredUnitSet> train;
  std::vector<int> labels;
  Rng rng(5);
  for (int i = 0; i < 120; ++i) {
    const bool match = i % 2 == 0;
    ScoredUnitSet set;
    const size_t paired = match ? 5 : 1;
    const size_t unpaired = match ? 1 : 5;
    for (size_t u = 0; u < paired; ++u) {
      DecisionUnit unit;
      unit.paired = true;
      set.units.push_back(unit);
      set.scores.push_back(rng.Uniform(0.3, 0.9));
    }
    for (size_t u = 0; u < unpaired; ++u) {
      DecisionUnit unit;
      unit.paired = false;
      set.units.push_back(unit);
      set.scores.push_back(rng.Uniform(-0.9, -0.3));
    }
    train.push_back(std::move(set));
    labels.push_back(match ? 1 : 0);
  }

  ExplainableMatcher matcher(1, /*simplified=*/false);
  matcher.Fit(train, labels, {}, {});
  ASSERT_TRUE(matcher.fitted());
  EXPECT_GT(matcher.best_validation_f1(), 0.9);

  // In aggregate, the paired positive units push toward match and the
  // unpaired negative units toward non-match (individual units may pick
  // up small cross-terms from min/max features).
  const std::vector<double> impacts = matcher.UnitImpacts(train[0]);
  double paired_impact = 0.0, unpaired_impact = 0.0;
  for (size_t u = 0; u < train[0].size(); ++u) {
    (train[0].units[u].paired ? paired_impact : unpaired_impact) +=
        impacts[u];
  }
  EXPECT_GT(paired_impact, 0.0);
  EXPECT_LT(unpaired_impact, 0.0);
}

TEST(ExplainableMatcherTest, SingleClassifierSelection) {
  std::vector<ScoredUnitSet> train;
  std::vector<int> labels;
  for (int i = 0; i < 40; ++i) {
    ScoredUnitSet set;
    DecisionUnit unit;
    unit.paired = i % 2 == 0;
    set.units.push_back(unit);
    set.scores.push_back(i % 2 == 0 ? 0.8 : -0.8);
    train.push_back(std::move(set));
    labels.push_back(i % 2 == 0 ? 1 : 0);
  }
  ExplainableMatcherOptions options;
  options.classifier = "LR";
  ExplainableMatcher matcher(1, false, options);
  matcher.Fit(train, labels, {}, {});
  EXPECT_EQ(matcher.best_name(), "LR");
  EXPECT_EQ(matcher.pool().size(), 1u);
  EXPECT_GT(matcher.PredictProba(train[0]), 0.5);
  EXPECT_LT(matcher.PredictProba(train[1]), 0.5);
}

}  // namespace
}  // namespace wym::core
