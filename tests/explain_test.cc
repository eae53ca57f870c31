#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/matcher.h"
#include "core/wym.h"
#include "data/benchmark_gen.h"
#include "data/split.h"
#include "explain/evaluation.h"
#include "explain/landmark.h"
#include "explain/lime.h"
#include "explain/report.h"
#include "explain/token_explanation.h"
#include "obs/json.h"
#include "util/stats.h"

namespace wym::explain {
namespace {

/// A transparent matcher for explainer tests: probability grows with the
/// token-overlap of the identity attribute, so the important tokens are
/// known by construction.
class OverlapMatcher : public core::Matcher {
 public:
  const char* name() const override { return "overlap"; }
  void Fit(const data::Dataset&, const data::Dataset&) override {}
  double PredictProba(const data::EmRecord& record) const override {
    const text::Tokenizer tokenizer;
    const auto lt = tokenizer.Tokenize(record.left.values[0]);
    const auto rt = tokenizer.Tokenize(record.right.values[0]);
    if (lt.empty() || rt.empty()) return 0.0;
    size_t shared = 0;
    for (const auto& l : lt) {
      for (const auto& r : rt) shared += (l == r);
    }
    return std::min(1.0, static_cast<double>(shared) /
                             static_cast<double>(std::max(lt.size(),
                                                          rt.size())));
  }
};

data::EmRecord MakeRecord(const std::string& left_name,
                          const std::string& right_name, int label) {
  data::EmRecord record;
  record.left.values = {left_name, "x"};
  record.right.values = {right_name, "x"};
  record.label = label;
  return record;
}

TEST(TokenExplanationTest, EnumerateAndMaskRoundTrip) {
  const text::Tokenizer tokenizer;
  const data::EmRecord record = MakeRecord("digital camera", "oak table", 0);
  const auto tokens = EnumerateTokens(record, tokenizer);
  ASSERT_EQ(tokens.size(), 6u);  // 2+1 left, 2+1 right.

  // Keeping everything reproduces the token content.
  const data::EmRecord full =
      MaskRecord(record, tokens, std::vector<bool>(tokens.size(), true));
  EXPECT_EQ(full.left.values[0], "digital camera");
  EXPECT_EQ(full.right.values[0], "oak table");

  // Dropping everything empties the values.
  const data::EmRecord empty =
      MaskRecord(record, tokens, std::vector<bool>(tokens.size(), false));
  EXPECT_TRUE(empty.left.values[0].empty());
  EXPECT_TRUE(empty.right.values[1].empty());
}

TEST(TokenExplanationTest, RankByMagnitude) {
  TokenLevelExplanation explanation;
  explanation.weights = {{{}, 0.1}, {{}, -0.9}, {{}, 0.5}};
  const auto order = explanation.RankByMagnitude();
  EXPECT_EQ(order, (std::vector<size_t>{1, 2, 0}));
}

TEST(LimeTest, FindsTheSharedToken) {
  // "camera" is the only shared token: dropping it kills the probability,
  // so LIME must give it the largest positive weight among left tokens.
  const OverlapMatcher matcher;
  const data::EmRecord record =
      MakeRecord("camera zebra", "camera window", 1);
  LimeOptions options;
  options.num_samples = 200;
  const LimeExplainer lime(options);
  const TokenLevelExplanation explanation = lime.Explain(matcher, record);

  double camera_weight = -1e9, other_max = -1e9;
  for (const auto& tw : explanation.weights) {
    if (tw.key.token == "camera") {
      camera_weight = std::max(camera_weight, tw.weight);
    } else if (tw.key.attribute == 0) {
      other_max = std::max(other_max, tw.weight);
    }
  }
  EXPECT_GT(camera_weight, other_max);
  EXPECT_GT(camera_weight, 0.0);
}

TEST(LimeTest, DeterministicForSeed) {
  const OverlapMatcher matcher;
  const data::EmRecord record = MakeRecord("a b c", "a d e", 1);
  const LimeExplainer lime;
  const auto e1 = lime.Explain(matcher, record);
  const auto e2 = lime.Explain(matcher, record);
  ASSERT_EQ(e1.weights.size(), e2.weights.size());
  for (size_t i = 0; i < e1.weights.size(); ++i) {
    EXPECT_DOUBLE_EQ(e1.weights[i].weight, e2.weights[i].weight);
  }
}

TEST(LandmarkTest, CoversBothSidesOnce) {
  const OverlapMatcher matcher;
  const data::EmRecord record = MakeRecord("alpha beta", "alpha gamma", 1);
  const LandmarkExplainer landmark;
  const TokenLevelExplanation explanation =
      landmark.Explain(matcher, record);
  size_t left = 0, right = 0;
  for (const auto& tw : explanation.weights) {
    (tw.key.side == core::Side::kLeft ? left : right) += 1;
  }
  EXPECT_EQ(left, 3u);   // alpha beta x.
  EXPECT_EQ(right, 3u);  // alpha gamma x.
}

TEST(LandmarkTest, SharedTokenOutweighsUniqueToken) {
  const OverlapMatcher matcher;
  const data::EmRecord record =
      MakeRecord("camera zebra", "camera window", 1);
  LandmarkOptions options;
  options.num_samples = 200;
  const LandmarkExplainer landmark(options);
  const auto explanation = landmark.Explain(matcher, record);
  double camera = -1e9, zebra = 1e9;
  for (const auto& tw : explanation.weights) {
    if (tw.key.token == "camera" && tw.key.side == core::Side::kLeft) {
      camera = tw.weight;
    }
    if (tw.key.token == "zebra") zebra = tw.weight;
  }
  EXPECT_GT(camera, zebra);
}

// ---------------------------------------------------------------------
// Explanation-quality evaluation on a trained WYM model.
// ---------------------------------------------------------------------

class EvaluationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const data::Dataset dataset = data::GenerateById("S-FZ", 42, 0.4);
    split_ = std::make_unique<data::Split>(data::DefaultSplit(dataset, 42));
    model_ = std::make_unique<core::WymModel>();
    model_->Fit(split_->train, split_->validation);
    sample_ = std::make_unique<data::Dataset>(
        data::Subset(split_->test, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, "/s"));
  }
  static void TearDownTestSuite() {
    sample_.reset();
    model_.reset();
    split_.reset();
  }

  static std::unique_ptr<data::Split> split_;
  static std::unique_ptr<core::WymModel> model_;
  static std::unique_ptr<data::Dataset> sample_;
};

std::unique_ptr<data::Split> EvaluationTest::split_;
std::unique_ptr<core::WymModel> EvaluationTest::model_;
std::unique_ptr<data::Dataset> EvaluationTest::sample_;

TEST_F(EvaluationTest, ConcisenessCurveIsMonotone) {
  std::vector<core::Explanation> explanations;
  for (const auto& record : sample_->records) {
    explanations.push_back(model_->Explain(record));
  }
  const std::vector<double> fractions = {0.05, 0.2, 0.5, 1.0};
  const auto curve = AverageConcisenessCurve(explanations, fractions);
  ASSERT_EQ(curve.size(), 4u);
  for (size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i], curve[i - 1] - 1e-9);
  }
  EXPECT_NEAR(curve.back(), 1.0, 1e-9);  // All units = all impact.
  EXPECT_GT(curve.front(), 0.0);
}

TEST_F(EvaluationTest, CumulativeImpactShareEdgeCases) {
  core::Explanation empty;
  EXPECT_DOUBLE_EQ(CumulativeImpactShare(empty, 0.5), 1.0);
  core::Explanation one;
  one.units.push_back({{}, 0.2, 0.7});
  EXPECT_DOUBLE_EQ(CumulativeImpactShare(one, 0.01), 1.0);
}

TEST_F(EvaluationTest, PostHocAccuracyImprovesWithMoreUnits) {
  const double acc1 = PostHocAccuracyWym(*model_, *sample_, 1);
  const double acc5 = PostHocAccuracyWym(*model_, *sample_, 5);
  EXPECT_GE(acc5 + 1e-9, acc1 - 0.21);  // Not strictly monotone, but close.
  EXPECT_GT(acc5, 0.5);
}

TEST_F(EvaluationTest, PostHocAccuracyTokensRuns) {
  LimeOptions options;
  options.num_samples = 25;
  const LimeExplainer lime(options);
  const double acc = PostHocAccuracyTokens(
      *model_, *sample_,
      [&](const data::EmRecord& r) { return lime.Explain(*model_, r); }, 3);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
}

TEST_F(EvaluationTest, MoRFHurtsMoreThanLeRF) {
  const double baseline = F1AfterUnitRemoval(
      *model_, split_->test, RemovalStrategy::kMoRF, 0, 1);
  const double morf = F1AfterUnitRemoval(
      *model_, split_->test, RemovalStrategy::kMoRF, 4, 1);
  const double lerf = F1AfterUnitRemoval(
      *model_, split_->test, RemovalStrategy::kLeRF, 4, 1);
  EXPECT_LT(morf, baseline);        // Removing key units hurts.
  EXPECT_GT(lerf + 1e-9, morf);     // LeRF is gentler than MoRF.
}

TEST_F(EvaluationTest, RemovalStrategyNames) {
  EXPECT_STREQ(RemovalStrategyName(RemovalStrategy::kMoRF), "MoRF");
  EXPECT_STREQ(RemovalStrategyName(RemovalStrategy::kLeRF), "LeRF");
  EXPECT_STREQ(RemovalStrategyName(RemovalStrategy::kRandom), "Random");
}

TEST_F(EvaluationTest, LandmarkCorrelationsInRange) {
  LandmarkOptions options;
  options.num_samples = 25;
  const LandmarkExplainer landmark(options);
  const auto correlations =
      UnitLandmarkCorrelations(*model_, landmark, *sample_);
  for (double c : correlations) {
    EXPECT_GE(c, -1.0);
    EXPECT_LE(c, 1.0);
  }
}


// ---------------------------------------------------------------------
// Report rendering.
// ---------------------------------------------------------------------

core::Explanation MakeTinyExplanation() {
  core::Explanation explanation;
  explanation.prediction = 1;
  explanation.probability = 0.93;
  core::ExplainedUnit paired;
  paired.unit.paired = true;
  paired.unit.phase = core::UnitPhase::kIntraAttribute;
  paired.unit.left.token = "exch";
  paired.unit.right.token = "exch";
  paired.relevance = 0.8;
  paired.impact = 1.2;
  core::ExplainedUnit unpaired;
  unpaired.unit.paired = false;
  unpaired.unit.unpaired_side = core::Side::kLeft;
  unpaired.unit.left.token = "eng\"x";  // Needs JSON escaping.
  unpaired.relevance = -0.6;
  unpaired.impact = -0.4;
  explanation.units = {paired, unpaired};
  return explanation;
}

TEST(ReportTest, RendersBarsAndOrder) {
  const std::string text = RenderExplanation(MakeTinyExplanation());
  EXPECT_NE(text.find("MATCH (p=0.930)"), std::string::npos);
  EXPECT_NE(text.find("(exch, exch)"), std::string::npos);
  EXPECT_NE(text.find("#"), std::string::npos);
  // Positive impact rendered before negative.
  EXPECT_LT(text.find("exch"), text.find("eng"));
  EXPECT_NE(text.find("+1.200"), std::string::npos);
  EXPECT_NE(text.find("-0.400"), std::string::npos);
}

TEST(ReportTest, MaxUnitsTruncates) {
  ReportOptions options;
  options.max_units = 1;
  const std::string text =
      RenderExplanation(MakeTinyExplanation(), options);
  EXPECT_NE(text.find("exch"), std::string::npos);
  EXPECT_EQ(text.find("eng"), std::string::npos);
}

TEST(ReportTest, EmptyExplanation) {
  core::Explanation empty;
  const std::string text = RenderExplanation(empty);
  EXPECT_NE(text.find("no decision units"), std::string::npos);
}

TEST(ReportTest, JsonIsWellFormedAndEscaped) {
  const std::string json = ExplanationToJson(MakeTinyExplanation());
  EXPECT_EQ(json,
            "{\"prediction\":1,\"probability\":0.930000,\"units\":["
            "{\"label\":\"(exch, exch)\",\"paired\":true,\"phase\":\"intra\","
            "\"attribute\":0,\"left\":\"exch\",\"right\":\"exch\","
            "\"relevance\":0.800000,\"impact\":1.200000},"
            "{\"label\":\"(eng\\\"x)\",\"paired\":false,\"phase\":\"unpaired\","
            "\"attribute\":0,\"token\":\"eng\\\"x\",\"side\":\"left\","
            "\"relevance\":-0.600000,\"impact\":-0.400000}]}");
  obs::JsonValue root;
  std::string error;
  EXPECT_TRUE(obs::ParseJson(json, &root, &error)) << error;
}

}  // namespace
}  // namespace wym::explain
