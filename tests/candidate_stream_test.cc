// Candidate-generation tier tests: inverted-index invariants,
// fingerprint short-circuit, thread-count / SIMD determinism of the
// streaming blocker, LSH recall against the exhaustive scan, and the
// two-raw-tables MatchTables path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "blocking/candidate_stream.h"
#include "blocking/fingerprint.h"
#include "blocking/inverted_index.h"
#include "blocking/lsh.h"
#include "core/wym.h"
#include "data/benchmark_gen.h"
#include "data/catalog.h"
#include "data/corruption.h"
#include "data/split.h"
#include "la/kernels.h"
#include "obs/metrics.h"
#include "util/random.h"
#include "util/thread_pool.h"

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

/// Two corrupted views of one synthetic catalog; row i of either table
/// has ground-truth identity i.
struct TablePair {
  EntityTable left, right;
  std::vector<size_t> ids;
};

TablePair MakeCorruptedPair(size_t rows, uint64_t seed) {
  Rng rng(seed);
  const data::Schema schema = data::DomainSchema(data::Domain::kProduct);
  const auto catalog = data::GenerateCatalog(data::Domain::kProduct, rows, &rng);
  data::CorruptionProfile profile;
  TablePair out;
  out.left.schema = schema;
  out.right.schema = schema;
  for (size_t i = 0; i < catalog.size(); ++i) {
    data::Entity base;
    base.values = catalog[i].values;
    out.left.rows.push_back(data::CorruptEntity(base, schema, profile, &rng));
    out.right.rows.push_back(data::CorruptEntity(base, schema, profile, &rng));
    out.ids.push_back(i);
  }
  return out;
}

std::set<std::string> RowTokenSet(const data::Entity& row,
                                  const text::Tokenizer& tokenizer) {
  std::set<std::string> tokens;
  for (const auto& value : row.values) {
    for (auto& token : tokenizer.Tokenize(value)) {
      tokens.insert(std::move(token));
    }
  }
  return tokens;
}

/// The seed token blocker, reimplemented naively: exhaustive probe over
/// full posting lists, no prefix filter, no early exit. The optimized
/// path must reproduce this list exactly.
std::vector<CandidatePair> ReferenceTokenCandidates(
    const EntityTable& left, const EntityTable& right,
    const TokenBlockerOptions& options) {
  const text::Tokenizer tokenizer;
  std::vector<std::set<std::string>> right_tokens(right.size());
  std::map<std::string, size_t> df;
  for (size_t r = 0; r < right.size(); ++r) {
    right_tokens[r] = RowTokenSet(right.rows[r], tokenizer);
    for (const auto& token : right_tokens[r]) ++df[token];
  }
  const size_t stop_count = static_cast<size_t>(
      options.max_token_frequency * static_cast<double>(right.size()));

  std::vector<CandidatePair> out;
  for (size_t l = 0; l < left.size(); ++l) {
    const std::set<std::string> tokens = RowTokenSet(left.rows[l], tokenizer);
    std::map<size_t, size_t> shared_counts;
    for (const auto& token : tokens) {
      auto it = df.find(token);
      if (it == df.end()) continue;
      if (stop_count > 0 && it->second > stop_count) continue;
      for (size_t r = 0; r < right.size(); ++r) {
        if (right_tokens[r].count(token)) ++shared_counts[r];
      }
    }
    std::vector<CandidatePair> row_candidates;
    for (const auto& [r, shared] : shared_counts) {
      if (shared < options.min_shared_tokens) continue;
      size_t full_shared = 0;
      for (const auto& token : tokens) {
        full_shared += right_tokens[r].count(token);
      }
      const size_t unioned =
          tokens.size() + right_tokens[r].size() - full_shared;
      const double jaccard = unioned == 0 ? 0.0
                                          : static_cast<double>(full_shared) /
                                                static_cast<double>(unioned);
      if (jaccard < options.min_jaccard) continue;
      row_candidates.push_back({l, r, jaccard});
    }
    std::sort(row_candidates.begin(), row_candidates.end(),
              [](const CandidatePair& a, const CandidatePair& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.right_row < b.right_row;
              });
    if (options.max_candidates_per_row > 0 &&
        row_candidates.size() > options.max_candidates_per_row) {
      row_candidates.resize(options.max_candidates_per_row);
    }
    out.insert(out.end(), row_candidates.begin(), row_candidates.end());
  }
  return out;
}

void ExpectSameCandidates(const std::vector<CandidatePair>& a,
                          const std::vector<CandidatePair>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].left_row, b[i].left_row) << "at " << i;
    EXPECT_EQ(a[i].right_row, b[i].right_row) << "at " << i;
    EXPECT_DOUBLE_EQ(a[i].score, b[i].score) << "at " << i;
  }
}

TEST(ShardedInvertedIndexTest, BuildsConsistentCsr) {
  const EntityTable table = MakeTable({{"digital camera x100", "sony"},
                                       {"wireless router r7", "netgear"},
                                       {"digital frame", "sony"}});
  const text::Tokenizer tokenizer;
  ShardedInvertedIndex index;
  index.Build(table, tokenizer, /*stop_fraction=*/1.0);

  ASSERT_TRUE(index.built());
  EXPECT_EQ(index.rows(), 3u);
  EXPECT_TRUE(index.DebugValidate());

  // Vocabulary is sorted, ids round-trip, and df matches the data.
  for (uint32_t id = 0; id + 1 < index.vocab_size(); ++id) {
    EXPECT_LT(index.Token(id), index.Token(id + 1));
  }
  const uint32_t digital = index.TokenId("digital");
  ASSERT_NE(digital, ShardedInvertedIndex::kNoToken);
  EXPECT_EQ(index.Df(digital), 2u);
  size_t count = 0;
  const uint32_t* postings = index.Postings(digital, &count);
  ASSERT_EQ(count, 2u);
  EXPECT_EQ(postings[0], 0u);
  EXPECT_EQ(postings[1], 2u);
  EXPECT_EQ(index.TokenId("nonexistent"), ShardedInvertedIndex::kNoToken);

  // Row CSR: sorted unique ids, equal to the row's sorted token set.
  const uint32_t* row0 = index.RowTokens(0, &count);
  ASSERT_EQ(count, 4u);
  for (size_t i = 0; i + 1 < count; ++i) EXPECT_LT(row0[i], row0[i + 1]);
  EXPECT_EQ(index.RowTokenCount(1), 4u);
}

TEST(ShardedInvertedIndexTest, StopTokensFollowSeedRule) {
  // "common" in 3/4 rows; stop threshold floor(0.5 * 4) = 2 -> stop.
  const EntityTable table = MakeTable({{"common aa", "x"},
                                       {"common bb", "x"},
                                       {"common cc", "y"},
                                       {"dd", "y"}});
  const text::Tokenizer tokenizer;
  ShardedInvertedIndex index;
  index.Build(table, tokenizer, /*stop_fraction=*/0.5);
  EXPECT_EQ(index.stop_df(), 2u);
  EXPECT_TRUE(index.IsStop(index.TokenId("common")));  // df 3 > 2.
  EXPECT_FALSE(index.IsStop(index.TokenId("x")));      // df 2 is not > 2.
  EXPECT_FALSE(index.IsStop(index.TokenId("aa")));

  // A stop fraction yielding floor 0 disables pruning entirely.
  ShardedInvertedIndex tiny;
  tiny.Build(MakeTable({{"a a", "b"}}), tokenizer, /*stop_fraction=*/0.25);
  EXPECT_EQ(tiny.stop_df(), 0u);
  EXPECT_FALSE(tiny.IsStop(tiny.TokenId("a")));
}

TEST(ShardedInvertedIndexTest, IdenticalAtEveryThreadCount) {
  const TablePair pair = MakeCorruptedPair(120, 21);
  const text::Tokenizer tokenizer;
  util::ThreadPool pool1(1), pool8(8);
  ShardedInvertedIndex a, b;
  a.Build(pair.right, tokenizer, 0.25, &pool1);
  b.Build(pair.right, tokenizer, 0.25, &pool8);

  ASSERT_EQ(a.vocab_size(), b.vocab_size());
  ASSERT_EQ(a.rows(), b.rows());
  for (uint32_t id = 0; id < a.vocab_size(); ++id) {
    ASSERT_EQ(a.Token(id), b.Token(id));
    size_t ca = 0, cb = 0;
    const uint32_t* pa = a.Postings(id, &ca);
    const uint32_t* pb = b.Postings(id, &cb);
    ASSERT_EQ(ca, cb);
    EXPECT_TRUE(std::equal(pa, pa + ca, pb));
  }
  EXPECT_TRUE(a.DebugValidate());
  EXPECT_TRUE(b.DebugValidate());
}

TEST(FingerprintTest, HashesSortedTokenSets) {
  const uint64_t fp = FingerprintTokens({"camera", "digital", "x100"});
  EXPECT_EQ(fp, FingerprintTokens({"camera", "digital", "x100"}));
  EXPECT_NE(fp, FingerprintTokens({"camera", "digital"}));
  // The separator keeps token boundaries: {"ab","c"} != {"a","bc"}.
  EXPECT_NE(FingerprintTokens({"ab", "c"}), FingerprintTokens({"a", "bc"}));
}

TEST(FingerprintTest, IndexFindsEqualTokenSets) {
  const EntityTable table = MakeTable({{"digital camera x100", "sony"},
                                       {"x100 sony digital camera", ""},
                                       {"unrelated row", "ikea"}});
  const text::Tokenizer tokenizer;
  ShardedInvertedIndex index;
  index.Build(table, tokenizer, 1.0);
  FingerprintIndex fingerprints;
  fingerprints.Build(index);
  ASSERT_EQ(fingerprints.size(), 3u);

  // Rows 0 and 1 have the same token *set* (order/attribute-independent).
  std::vector<uint32_t> rows;
  fingerprints.Lookup(
      FingerprintTokens({"camera", "digital", "sony", "x100"}), &rows);
  EXPECT_EQ(rows, (std::vector<uint32_t>{0, 1}));
}

TEST(CandidateStreamTest, MatchesExhaustiveReferenceBlocker) {
  const TablePair pair = MakeCorruptedPair(80, 33);
  for (const double min_jaccard : {0.15, 0.4}) {
    TokenBlockerOptions options;
    options.min_jaccard = min_jaccard;
    CandidateStreamOptions stream_options;
    stream_options.token = options;
    stream_options.exact_short_circuit = false;
    CandidateStream stream(pair.left, pair.right, stream_options);
    ExpectSameCandidates(stream.Drain(),
                         ReferenceTokenCandidates(pair.left, pair.right,
                                                  options));
  }
}

TEST(CandidateStreamTest, ByteIdenticalAcrossThreadCounts) {
  const TablePair pair = MakeCorruptedPair(150, 5);
  embedding::SemanticEncoderOptions encoder_options;
  encoder_options.mode = embedding::EncoderMode::kPretrained;
  embedding::SemanticEncoder encoder(encoder_options);
  encoder.Fit({});

  CandidateStreamOptions options;
  options.encoder = &encoder;  // LSH stage on.
  options.exact_short_circuit = true;

  util::ThreadPool pool1(1), pool8(8);
  CandidateStream stream1(pair.left, pair.right, options, &pool1);
  CandidateStream stream8(pair.left, pair.right, options, &pool8);
  const auto candidates1 = stream1.Drain();
  const auto candidates8 = stream8.Drain();
  EXPECT_FALSE(candidates1.empty());
  ExpectSameCandidates(candidates1, candidates8);
}

TEST(CandidateStreamTest, ByteIdenticalAcrossSimdLevels) {
  const TablePair pair = MakeCorruptedPair(60, 9);
  embedding::SemanticEncoderOptions encoder_options;
  encoder_options.mode = embedding::EncoderMode::kPretrained;
  embedding::SemanticEncoder encoder(encoder_options);
  encoder.Fit({});
  CandidateStreamOptions options;
  options.encoder = &encoder;

  using la::kernels::SimdLevel;
  const SimdLevel ambient = la::kernels::ActiveSimdLevel();
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (la::kernels::DetectedSimdLevel() != SimdLevel::kScalar) {
    levels.push_back(la::kernels::DetectedSimdLevel());
  }
  std::vector<std::vector<CandidatePair>> per_level;
  for (SimdLevel level : levels) {
    la::kernels::SetSimdLevel(level);
    CandidateStream stream(pair.left, pair.right, options);
    per_level.push_back(stream.Drain());
  }
  la::kernels::SetSimdLevel(ambient);
  for (size_t i = 1; i < per_level.size(); ++i) {
    ExpectSameCandidates(per_level[0], per_level[i]);
  }
}

TEST(CandidateStreamTest, ChunkedStreamEqualsDrain) {
  const TablePair pair = MakeCorruptedPair(50, 13);
  CandidateStreamOptions options;
  options.chunk_left_rows = 7;
  CandidateStream chunked(pair.left, pair.right, options);
  std::vector<CandidatePair> accumulated, chunk;
  size_t chunks = 0;
  while (chunked.Next(&chunk)) {
    // Chunks are ordered by left row and bounded by the chunk size.
    for (const auto& pair_out : chunk) {
      EXPECT_LT(pair_out.left_row, chunked.left_rows_consumed());
    }
    accumulated.insert(accumulated.end(), chunk.begin(), chunk.end());
    ++chunks;
  }
  EXPECT_EQ(chunks, (pair.left.size() + 6) / 7);
  EXPECT_EQ(chunked.left_rows_consumed(), pair.left.size());

  CandidateStream whole(pair.left, pair.right, CandidateStreamOptions{});
  ExpectSameCandidates(accumulated, whole.Drain());
}

TEST(CandidateStreamTest, ExactDuplicateShortCircuit) {
  // Left row 0's token set equals right row 1's (order scrambled);
  // left row 1 matches nothing exactly.
  const EntityTable left = MakeTable({{"x100 digital camera", "sony"},
                                      {"wireless router r7", "netgear"}});
  const EntityTable right = MakeTable({{"oak dining table", "ikea"},
                                       {"sony camera digital x100", ""},
                                       {"wireless router r9", "netgear"}});
  CandidateStreamOptions options;
  options.exact_short_circuit = true;
  obs::Counter& dupes =
      obs::Registry::Global().GetCounter("blocking.exact_dupes");
  const uint64_t dupes_before = dupes.Value();

  CandidateStream stream(left, right, options);
  const auto candidates = stream.Drain();

  // Row 0 short-circuits to exactly its duplicate at score 1.0.
  std::vector<CandidatePair> row0;
  for (const auto& c : candidates) {
    if (c.left_row == 0) row0.push_back(c);
  }
  ASSERT_EQ(row0.size(), 1u);
  EXPECT_EQ(row0[0].right_row, 1u);
  EXPECT_DOUBLE_EQ(row0[0].score, 1.0);
  // Row 1 still goes through the token probe.
  bool found_row1 = false;
  for (const auto& c : candidates) {
    if (c.left_row == 1 && c.right_row == 2) found_row1 = true;
  }
  EXPECT_TRUE(found_row1);
  if (obs::MetricsEnabled()) {
    EXPECT_EQ(dupes.Value(), dupes_before + 1);
  }
}

TEST(EmbeddingLshTest, RecallAgainstExhaustiveScan) {
  const TablePair pair = MakeCorruptedPair(100, 17);
  embedding::SemanticEncoderOptions encoder_options;
  encoder_options.mode = embedding::EncoderMode::kPretrained;
  embedding::SemanticEncoder encoder(encoder_options);
  encoder.Fit({});
  const text::Tokenizer tokenizer;

  EmbeddingLsh lsh(&encoder);  // Default options.
  lsh.Build(pair.right, tokenizer);

  // Exhaustive reference: all pooled cosines, same filter + top-k.
  const EmbeddingLshOptions defaults;
  std::vector<la::Vec> right_pool(pair.right.size());
  for (size_t r = 0; r < pair.right.size(); ++r) {
    right_pool[r] = lsh.PoolRow(pair.right.rows[r], tokenizer);
  }
  size_t reference_pairs = 0, recovered = 0;
  for (size_t l = 0; l < pair.left.size(); ++l) {
    const la::Vec pooled = lsh.PoolRow(pair.left.rows[l], tokenizer);
    if (pooled.empty()) continue;
    std::vector<CandidatePair> exact;
    for (size_t r = 0; r < pair.right.size(); ++r) {
      if (right_pool[r].empty()) continue;
      const double cosine = la::kernels::Dot(pooled.data(),
                                             right_pool[r].data(),
                                             pooled.size());
      if (cosine < defaults.min_cosine) continue;
      exact.push_back({l, r, cosine});
    }
    std::sort(exact.begin(), exact.end(),
              [](const CandidatePair& a, const CandidatePair& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.right_row < b.right_row;
              });
    if (exact.size() > defaults.k) exact.resize(defaults.k);

    std::vector<CandidatePair> approx;
    lsh.Probe(l, pooled, &approx);
    std::set<size_t> approx_rows;
    for (const auto& c : approx) approx_rows.insert(c.right_row);
    for (const auto& c : exact) {
      ++reference_pairs;
      recovered += approx_rows.count(c.right_row);
    }
  }
  ASSERT_GT(reference_pairs, 0u);
  EXPECT_GE(static_cast<double>(recovered) /
                static_cast<double>(reference_pairs),
            0.95);
}

TEST(MatchTablesTest, StreamsRankedMatchesEndToEnd) {
  const data::Dataset dataset = data::GenerateById("S-FZ", 42, 0.5);
  const data::Split split = data::DefaultSplit(dataset, 42);
  core::WymModel model;
  model.Fit(split.train, split.validation);

  // Two raw tables from the test split: matched records land on the
  // diagonal (identity i for row i of both tables).
  EntityTable left, right;
  left.schema = dataset.schema;
  right.schema = dataset.schema;
  std::vector<size_t> ids;
  for (const auto& record : split.test.records) {
    if (record.label != 1) continue;
    left.rows.push_back(record.left);
    right.rows.push_back(record.right);
    ids.push_back(ids.size());
    if (ids.size() >= 12) break;
  }
  ASSERT_GE(ids.size(), 6u);

  MatchTablesOptions options;
  options.batch_candidates = 8;  // Force several flush cycles.
  MatchTablesStats stats;
  const std::vector<TableMatch> matches =
      MatchTables(model, left, right, options, nullptr, &stats);

  EXPECT_GT(stats.candidates_scored, 0u);
  EXPECT_GE(matches.size(), ids.size() / 2);  // Most diagonals match.
  size_t diagonal = 0;
  for (size_t i = 0; i < matches.size(); ++i) {
    EXPECT_LT(matches[i].left_row, left.size());
    EXPECT_LT(matches[i].right_row, right.size());
    EXPECT_GE(matches[i].probability, options.min_probability);
    EXPECT_GT(matches[i].blocking_score, 0.0);
    if (i > 0) {
      EXPECT_LE(matches[i].probability, matches[i - 1].probability);
    }
    diagonal += matches[i].left_row == matches[i].right_row;
  }
  EXPECT_GE(diagonal, ids.size() / 2);

  // The same run through a model-free stream finds the diagonal too
  // (sanity that candidate generation, not the matcher, does recall).
  CandidateStreamOptions stream_options;
  stream_options.encoder = &model.encoder();
  CandidateStream stream(left, right, stream_options);
  EXPECT_GT(BlockingRecall(stream.Drain(), ids, ids), 0.8);
}

TEST(MatchTablesTest, ProbabilitiesEqualPerRecordPredictProba) {
  // MatchTables scores each left row's candidates as one run, and the
  // batch predictor prepares a run's left entity once. Every scored
  // candidate must still carry the bits of PredictProba on its own
  // (left, right) record, at 1 and 4 threads, with batches small enough
  // to split a run across two PredictProbaBatch calls.
  const data::Dataset dataset = data::GenerateById("S-FZ", 42, 0.5);
  const data::Split split = data::DefaultSplit(dataset, 42);
  core::WymModel model;
  model.Fit(split.train, split.validation);

  EntityTable left, right;
  left.schema = dataset.schema;
  right.schema = dataset.schema;
  for (const auto& record : split.test.records) {
    left.rows.push_back(record.left);
    right.rows.push_back(record.right);
    if (left.size() >= 16) break;
  }

  MatchTablesOptions options;
  options.min_probability = 0.0;  // Keep every scored candidate.
  options.batch_candidates = 3;
  std::vector<std::vector<TableMatch>> runs;
  for (size_t threads : {1, 4}) {
    util::ThreadPool pool(threads);
    MatchTablesStats stats;
    runs.push_back(MatchTables(model, left, right, options, &pool, &stats));
    EXPECT_EQ(runs.back().size(), stats.candidates_scored);
  }
  ASSERT_EQ(runs[0].size(), runs[1].size());

  std::map<size_t, size_t> per_left;
  for (const TableMatch& match : runs[0]) ++per_left[match.left_row];
  size_t longest = 0;
  for (const auto& [row, count] : per_left) longest = std::max(longest, count);
  ASSERT_GT(longest, options.batch_candidates) << "no run spans two batches";

  for (const std::vector<TableMatch>& matches : runs) {
    for (size_t i = 0; i < matches.size(); ++i) {
      data::EmRecord record;
      record.left = left.rows[matches[i].left_row];
      record.right = right.rows[matches[i].right_row];
      const double single = model.PredictProba(record);
      EXPECT_EQ(std::memcmp(&matches[i].probability, &single, sizeof(double)),
                0)
          << "left " << matches[i].left_row << " right "
          << matches[i].right_row;
      EXPECT_EQ(matches[i].left_row, runs[0][i].left_row);
      EXPECT_EQ(matches[i].right_row, runs[0][i].right_row);
    }
  }
}

}  // namespace
}  // namespace wym::blocking
