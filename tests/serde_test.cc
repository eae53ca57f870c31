#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/relevance_scorer.h"
#include "core/wym.h"
#include "data/benchmark_gen.h"
#include "data/split.h"
#include "embedding/semantic_encoder.h"
#include "ml/classifier_pool.h"
#include "nn/mlp.h"
#include "util/random.h"
#include "util/serde.h"

namespace wym {
namespace {

TEST(SerdeTest, PrimitivesRoundTrip) {
  std::stringstream stream;
  serde::Serializer s(&stream);
  s.Tag("test/v1");
  s.U64(42);
  s.I64(-7);
  s.Bool(true);
  s.F64(0.1);  // Not exactly representable: hexfloat must round-trip.
  s.F64(-1e300);
  s.Str("hello world\nwith newline");
  s.VecF64({1.5, -2.25, 0.0});
  s.VecF32({0.5f});
  s.VecU64({});

  serde::Deserializer d(&stream);
  EXPECT_TRUE(d.Tag("test/v1"));
  EXPECT_EQ(d.U64(), 42u);
  EXPECT_EQ(d.I64(), -7);
  EXPECT_TRUE(d.Bool());
  EXPECT_EQ(d.F64(), 0.1);  // Exact.
  EXPECT_EQ(d.F64(), -1e300);
  EXPECT_EQ(d.Str(), "hello world\nwith newline");
  EXPECT_EQ(d.VecF64(), (std::vector<double>{1.5, -2.25, 0.0}));
  EXPECT_EQ(d.VecF32(), (std::vector<float>{0.5f}));
  EXPECT_TRUE(d.VecU64().empty());
  EXPECT_TRUE(d.ok());
}

TEST(SerdeTest, TagMismatchFails) {
  std::stringstream stream;
  serde::Serializer s(&stream);
  s.Tag("alpha/v1");
  serde::Deserializer d(&stream);
  EXPECT_FALSE(d.Tag("beta/v1"));
  EXPECT_FALSE(d.ok());
}

TEST(SerdeTest, TruncatedInputFails) {
  std::stringstream stream("3");
  serde::Deserializer d(&stream);
  (void)d.U64();
  (void)d.U64();  // Nothing left.
  EXPECT_FALSE(d.ok());
}

TEST(SerdeTest, AbsurdVectorLengthFails) {
  std::stringstream stream("999999999999 1 2 3");
  serde::Deserializer d(&stream);
  (void)d.VecF64();
  EXPECT_FALSE(d.ok());
}

// Regression: Str() used to consume the byte after the length blindly.
// On corrupt input whose separator is not the ' ' the Serializer wrote,
// that byte belongs to the string body, and swallowing it silently
// shifted every subsequent read by one.
TEST(SerdeTest, StrRejectsMissingSeparator) {
  std::stringstream stream("5-hello 7");
  serde::Deserializer d(&stream);
  EXPECT_EQ(d.Str(), "");
  EXPECT_FALSE(d.ok());
}

TEST(SerdeTest, StrRejectsLengthAtEof) {
  std::stringstream stream("5");
  serde::Deserializer d(&stream);
  (void)d.Str();
  EXPECT_FALSE(d.ok());
}

TEST(SerdeTest, StrRejectsTruncatedBody) {
  std::stringstream stream("10 short");
  serde::Deserializer d(&stream);
  (void)d.Str();
  EXPECT_FALSE(d.ok());
}

TEST(MlpSerdeTest, RoundTripPredictsIdentically) {
  Rng rng(3);
  la::Matrix x(64, 4);
  std::vector<double> y(64);
  for (size_t i = 0; i < 64; ++i) {
    for (size_t j = 0; j < 4; ++j) x.At(i, j) = rng.Uniform(-1, 1);
    y[i] = x.At(i, 0) - x.At(i, 2);
  }
  nn::MlpOptions options;
  options.hidden = {8, 4};
  options.epochs = 20;
  nn::Mlp original(options);
  original.Fit(x, y);

  std::stringstream stream;
  serde::Serializer s(&stream);
  original.Save(&s);
  nn::Mlp restored;
  serde::Deserializer d(&stream);
  ASSERT_TRUE(restored.Load(&d));
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(restored.Predict(x.RowVector(i)),
                     original.Predict(x.RowVector(i)));
  }
}

/// A hand-built mlp/v1 payload: one (rows x cols) layer per entry, every
/// weight `fill`, every bias 0, no output clamp.
std::string MlpPayload(bool fitted, uint64_t input_dim,
                       const std::vector<std::pair<size_t, size_t>>& layers,
                       double fill = 0.5) {
  std::ostringstream out;
  serde::Serializer s(&out);
  s.Tag("mlp/v1");
  s.Bool(fitted);
  s.Bool(false);
  s.U64(input_dim);
  s.U64(layers.size());
  for (const auto& [rows, cols] : layers) {
    la::Matrix(rows, cols, fill).Save(&s);
    s.VecF64(std::vector<double>(rows, 0.0));
  }
  return out.str();
}

bool LoadMlp(const std::string& payload, nn::Mlp* mlp) {
  std::istringstream in(payload);
  serde::Deserializer d(&in);
  return mlp->Load(&d);
}

TEST(MlpSerdeTest, LoadRejectsLayerShapesThatDoNotChain) {
  nn::Mlp mlp;
  // 4 -> 3 -> 1 connects: on all-ones input each hidden cell is
  // 4 * 0.5 = 2 and the output 3 * 0.5 * 2 = 3.
  ASSERT_TRUE(LoadMlp(MlpPayload(true, 4, {{3, 4}, {1, 3}}), &mlp));
  EXPECT_EQ(mlp.Predict({1.0, 1.0, 1.0, 1.0}), 3.0);

  // Layer 0 narrower than the input: the forward pass would read past
  // the end of each weight row.
  EXPECT_FALSE(LoadMlp(MlpPayload(true, 4, {{3, 2}, {1, 3}}), &mlp));
  // Layer 0 wider than the input.
  EXPECT_FALSE(LoadMlp(MlpPayload(true, 4, {{3, 5}, {1, 3}}), &mlp));
  // Layer 1 does not read layer 0's width.
  EXPECT_FALSE(LoadMlp(MlpPayload(true, 4, {{3, 4}, {1, 2}}), &mlp));
  // Two outputs.
  EXPECT_FALSE(LoadMlp(MlpPayload(true, 4, {{3, 4}, {2, 3}}), &mlp));
  // A fitted network without layers.
  EXPECT_FALSE(LoadMlp(MlpPayload(true, 4, {}), &mlp));
  // A rejected payload leaves the loaded network untouched.
  EXPECT_EQ(mlp.Predict({1.0, 1.0, 1.0, 1.0}), 3.0);
}

TEST(ScorerSerdeTest, LoadRejectsUnknownKind) {
  // Kinds 0-2 exist; any other value would leave Score with no rule.
  for (uint64_t kind : {uint64_t{2}, uint64_t{3}}) {
    std::ostringstream out;
    serde::Serializer s(&out);
    s.Tag("scorer/v1");
    s.U64(kind);
    s.F64(0.55);
    s.F64(0.45);
    s.Bool(true);   // fitted
    s.Bool(false);  // no network
    std::istringstream in(out.str());
    serde::Deserializer d(&in);
    core::RelevanceScorer scorer;
    EXPECT_EQ(scorer.Load(&d), kind == 2) << kind;
  }
}

TEST(MatrixSerdeTest, LoadRejectsRowsTimesColsOverflow) {
  // 2^32 x 2^32 wraps to 0 in 64 bits, which an empty data vector
  // would otherwise match.
  std::ostringstream out;
  serde::Serializer s(&out);
  s.Tag("matrix/v1");
  s.U64(uint64_t{1} << 32);
  s.U64(uint64_t{1} << 32);
  s.VecF64({});
  std::istringstream in(out.str());
  serde::Deserializer d(&in);
  la::Matrix matrix;
  EXPECT_FALSE(matrix.Load(&d));
}

// Every pool member must round-trip through SaveState/LoadState with
// bit-identical predictions.
class ClassifierSerdeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ClassifierSerdeTest, RoundTripPredictsIdentically) {
  Rng rng(11);
  la::Matrix x(120, 3);
  std::vector<int> y(120);
  for (size_t i = 0; i < 120; ++i) {
    y[i] = static_cast<int>(i % 2);
    x.At(i, 0) = rng.Normal(y[i] == 1 ? 1.0 : -1.0, 0.5);
    x.At(i, 1) = rng.Normal(0, 1);
    x.At(i, 2) = rng.Normal(y[i] == 1 ? -0.5 : 0.5, 0.7);
  }
  auto original = ml::MakeClassifier(GetParam(), 5);
  original->Fit(x, y);

  std::stringstream stream;
  serde::Serializer s(&stream);
  original->SaveState(&s);

  auto restored = ml::MakeClassifier(GetParam(), 99);  // Seed irrelevant.
  serde::Deserializer d(&stream);
  ASSERT_TRUE(restored->LoadState(&d)) << GetParam();
  for (size_t i = 0; i < 40; ++i) {
    EXPECT_DOUBLE_EQ(restored->PredictProba(x.RowVector(i)),
                     original->PredictProba(x.RowVector(i)))
        << GetParam();
  }
  // The impact bookkeeping must survive as well.
  EXPECT_EQ(restored->SignedImportance(), original->SignedImportance())
      << GetParam();
}

TEST_P(ClassifierSerdeTest, RejectsWrongTag) {
  std::stringstream stream;
  serde::Serializer s(&stream);
  s.Tag("garbage/v1");
  auto classifier = ml::MakeClassifier(GetParam(), 1);
  serde::Deserializer d(&stream);
  EXPECT_FALSE(classifier->LoadState(&d)) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllPoolMembers, ClassifierSerdeTest,
                         ::testing::ValuesIn(ml::PoolMemberNames()),
                         [](const auto& info) { return info.param; });

TEST(EncoderSerdeTest, RoundTripEncodesIdentically) {
  embedding::SemanticEncoderOptions options;
  options.hash_dim = 16;
  options.cooc_dim = 8;
  embedding::SemanticEncoder original(options);
  original.Fit({{"digital", "camera", "sony"}, {"digital", "lens"}});

  std::stringstream stream;
  serde::Serializer s(&stream);
  original.Save(&s);
  embedding::SemanticEncoder restored;
  serde::Deserializer d(&stream);
  ASSERT_TRUE(restored.Load(&d));
  EXPECT_EQ(restored.dim(), original.dim());
  EXPECT_EQ(restored.EncodeTokens({"digital", "camera", "37.5"}),
            original.EncodeTokens({"digital", "camera", "37.5"}));
}

TEST(WymModelSerdeTest, FileRoundTripPredictsIdentically) {
  const data::Dataset dataset = data::GenerateById("S-FZ", 42, 0.3);
  const data::Split split = data::DefaultSplit(dataset, 42);
  core::WymModel original;
  original.Fit(split.train, split.validation);

  const std::string path = "/tmp/wym_model_roundtrip.bin";
  ASSERT_TRUE(original.SaveToFile(path).ok());

  auto loaded = core::WymModel::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const core::WymModel& restored = loaded.value();
  EXPECT_TRUE(restored.fitted());
  EXPECT_EQ(restored.matcher().best_name(), original.matcher().best_name());

  for (size_t i = 0; i < split.test.size(); ++i) {
    const data::EmRecord& record = split.test.records[i];
    EXPECT_DOUBLE_EQ(restored.PredictProba(record),
                     original.PredictProba(record));
  }
  // Explanations round-trip too (units + relevance + impacts).
  const core::Explanation a = original.Explain(split.test.records[0]);
  const core::Explanation b = restored.Explain(split.test.records[0]);
  ASSERT_EQ(a.units.size(), b.units.size());
  for (size_t u = 0; u < a.units.size(); ++u) {
    EXPECT_EQ(a.units[u].unit.Label(), b.units[u].unit.Label());
    EXPECT_DOUBLE_EQ(a.units[u].relevance, b.units[u].relevance);
    EXPECT_DOUBLE_EQ(a.units[u].impact, b.units[u].impact);
  }
}

TEST(WymModelSerdeTest, SaveUnfittedFails) {
  core::WymModel model;
  EXPECT_FALSE(model.SaveToFile("/tmp/never.bin").ok());
}

TEST(WymModelSerdeTest, LoadMissingFileFails) {
  EXPECT_FALSE(core::WymModel::LoadFromFile("/tmp/nonexistent.wym").ok());
}

TEST(WymModelSerdeTest, RuleCountMismatchIsRejected) {
  const data::Dataset dataset = data::GenerateById("S-FZ", 7, 0.15);
  const data::Split split = data::DefaultSplit(dataset, 7);
  core::WymConfig config;
  config.generator.rules.push_back(core::EqualProductCodeRule());
  core::WymModel model(config);
  model.Fit(split.train, split.validation);
  const std::string path = "/tmp/wym_model_rules.bin";
  ASSERT_TRUE(model.SaveToFile(path).ok());

  // Loading without re-supplying the rule must fail loudly...
  EXPECT_FALSE(core::WymModel::LoadFromFile(path).ok());
  // ...and succeed when the rule is passed back in.
  auto loaded = core::WymModel::LoadFromFile(
      path, {core::EqualProductCodeRule()});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_DOUBLE_EQ(loaded.value().PredictProba(split.test.records[0]),
                   model.PredictProba(split.test.records[0]));
}

}  // namespace
}  // namespace wym
