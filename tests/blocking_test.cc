#include <gtest/gtest.h>

#include "blocking/blocker.h"
#include "blocking/candidate_stream.h"
#include "blocking/lsh.h"
#include "data/catalog.h"
#include "data/corruption.h"
#include "util/random.h"

namespace wym::blocking {
namespace {

EntityTable MakeTable(std::vector<std::vector<std::string>> rows) {
  EntityTable table;
  table.schema = {{"name", "brand"}};
  for (auto& values : rows) {
    data::Entity entity;
    entity.values = std::move(values);
    table.rows.push_back(std::move(entity));
  }
  return table;
}

/// Token-stage candidates only: no LSH stage and no exact-duplicate
/// short-circuit, so every pair is Jaccard-scored and capped per row.
std::vector<CandidatePair> TokenCandidates(
    const EntityTable& left, const EntityTable& right,
    const TokenBlockerOptions& token = {}) {
  CandidateStreamOptions options;
  options.token = token;
  options.encoder = nullptr;
  options.exact_short_circuit = false;
  CandidateStream stream(left, right, options);
  return stream.Drain();
}

TEST(TokenBlockerTest, FindsOverlappingRows) {
  const EntityTable left = MakeTable({{"digital camera x100", "sony"},
                                      {"wireless router r7", "netgear"}});
  const EntityTable right = MakeTable({{"camera x100 digital", "sony"},
                                       {"oak dining table", "ikea"}});
  const auto candidates = TokenCandidates(left, right);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].left_row, 0u);
  EXPECT_EQ(candidates[0].right_row, 0u);
  EXPECT_GT(candidates[0].score, 0.5);
}

TEST(TokenBlockerTest, MinJaccardFilters) {
  const EntityTable left = MakeTable({{"alpha beta gamma delta", "x"}});
  const EntityTable right = MakeTable({{"alpha zz yy ww vv uu", "q"}});
  TokenBlockerOptions options;
  options.min_jaccard = 0.5;
  EXPECT_TRUE(TokenCandidates(left, right, options).empty());
  options.min_jaccard = 0.05;
  EXPECT_EQ(TokenCandidates(left, right, options).size(), 1u);
}

TEST(TokenBlockerTest, CapsCandidatesPerRow) {
  EntityTable left = MakeTable({{"shared token here", "b"}});
  EntityTable right;
  right.schema = left.schema;
  for (int i = 0; i < 20; ++i) {
    data::Entity entity;
    entity.values = {"shared token here", "b" + std::to_string(i)};
    right.rows.push_back(entity);
  }
  TokenBlockerOptions options;
  options.max_candidates_per_row = 5;
  options.max_token_frequency = 1.0;  // Disable stop-token pruning.
  EXPECT_EQ(TokenCandidates(left, right, options).size(), 5u);
}

TEST(EmbeddingBlockerTest, RecoversTypoedRow) {
  // "dgital camera x100" shares embedding mass with the clean row even
  // though key tokens are typo'd.
  embedding::SemanticEncoderOptions encoder_options;
  encoder_options.mode = embedding::EncoderMode::kPretrained;
  embedding::SemanticEncoder encoder(encoder_options);
  encoder.Fit({});
  const EntityTable left = MakeTable({{"dgital camer x100", "sony"}});
  const EntityTable right = MakeTable({{"digital camera x100", "sony"},
                                       {"completely unrelated row", "zzz"}});
  EmbeddingLshOptions options;
  options.k = 1;
  options.min_cosine = 0.3;
  EmbeddingLsh lsh(&encoder, options);
  const text::Tokenizer tokenizer;
  lsh.Build(right, tokenizer);
  std::vector<CandidatePair> candidates;
  lsh.Probe(0, lsh.PoolRow(left.rows[0], tokenizer), &candidates);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].right_row, 0u);
}

TEST(BuildCandidateDatasetTest, LabelsFromIdentity) {
  const EntityTable left = MakeTable({{"a", "x"}, {"b", "y"}});
  const EntityTable right = MakeTable({{"a2", "x"}, {"c", "z"}});
  const std::vector<CandidatePair> pairs = {{0, 0, 1.0}, {1, 1, 1.0}};
  const data::Dataset dataset = BuildCandidateDataset(
      left, right, pairs, {7, 8}, {7, 9}, "test");
  ASSERT_EQ(dataset.size(), 2u);
  EXPECT_EQ(dataset.records[0].label, 1);  // Identity 7 == 7.
  EXPECT_EQ(dataset.records[1].label, 0);  // 8 != 9.
  EXPECT_EQ(dataset.records[0].left.values[0], "a");
  EXPECT_EQ(dataset.records[0].right.values[0], "a2");
}

TEST(BlockingRecallTest, CountsSurvivingMatches) {
  // Identities: left {1, 2}, right {1, 2}: two true matches.
  const std::vector<size_t> left_identity = {1, 2};
  const std::vector<size_t> right_identity = {1, 2};
  EXPECT_DOUBLE_EQ(
      BlockingRecall({{0, 0, 1.0}}, left_identity, right_identity), 0.5);
  EXPECT_DOUBLE_EQ(
      BlockingRecall({{0, 0, 1.0}, {1, 1, 1.0}}, left_identity,
                     right_identity),
      1.0);
  EXPECT_DOUBLE_EQ(BlockingRecall({}, {5}, {6}), 1.0);  // No true matches.
}

TEST(BlockingIntegrationTest, HighRecallOnCorruptedCatalog) {
  Rng rng(4);
  const data::Schema schema = data::DomainSchema(data::Domain::kProduct);
  const auto catalog =
      data::GenerateCatalog(data::Domain::kProduct, 120, &rng);
  data::CorruptionProfile profile;
  EntityTable a{schema, {}}, b{schema, {}};
  std::vector<size_t> ids_a, ids_b;
  for (size_t i = 0; i < catalog.size(); ++i) {
    data::Entity base;
    base.values = catalog[i].values;
    a.rows.push_back(data::CorruptEntity(base, schema, profile, &rng));
    ids_a.push_back(i);
    b.rows.push_back(data::CorruptEntity(base, schema, profile, &rng));
    ids_b.push_back(i);
  }
  const auto candidates = TokenCandidates(a, b);
  EXPECT_GT(BlockingRecall(candidates, ids_a, ids_b), 0.9);
  // And it prunes: far fewer candidates than the cross product.
  EXPECT_LT(candidates.size(), a.size() * b.size() / 5);
}

}  // namespace
}  // namespace wym::blocking
