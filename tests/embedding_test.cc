#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "embedding/context_mixer.h"
#include "embedding/cooc_embedder.h"
#include "embedding/hash_embedder.h"
#include "embedding/semantic_encoder.h"
#include "embedding/siamese_calibrator.h"
#include "la/kernels.h"
#include "la/vector_ops.h"
#include "obs/metrics.h"
#include "util/random.h"
#include "util/serde.h"

namespace wym::embedding {
namespace {

using la::kernels::SimdLevel;

/// The per-row mixing loop the block ContextMixer replaced, kept as the
/// reference oracle: one Dot per similarity cell, one std::exp per
/// weight, and one la::Axpy into a fresh context vector per (i, j).
std::vector<la::Vec> MixReference(const std::vector<la::Vec>& base,
                                  const ContextMixerOptions& options) {
  if (base.size() < 2 || options.blend <= 0.0) return base;
  const size_t n = base.size();
  const size_t dim = base.front().size();
  la::Vec packed_rows(n * dim, 0.0f);
  for (size_t i = 0; i < n; ++i) {
    float* row = packed_rows.data() + i * dim;
    for (size_t j = 0; j < dim; ++j) row[j] = base[i][j];
    const double norm = std::sqrt(la::kernels::SquaredNorm(row, dim));
    if (norm > 0.0) la::kernels::Scale(1.0 / norm, row, dim);
  }
  std::vector<double> sim(n * n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const float* row_i = packed_rows.data() + i * dim;
    for (size_t j = i + 1; j < n; ++j) {
      const double s =
          la::kernels::Dot(row_i, packed_rows.data() + j * dim, dim);
      sim[i * n + j] = sim[j * n + i] = s;
    }
  }
  std::vector<la::Vec> out(n);
  for (size_t i = 0; i < n; ++i) {
    const double* sim_row = sim.data() + i * n;
    double max_sim = -2.0;
    for (size_t j = 0; j < n; ++j) {
      if (j != i) max_sim = std::max(max_sim, sim_row[j]);
    }
    la::Vec context = la::Zeros(dim);
    double z = 0.0;
    for (size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const double a = std::exp((sim_row[j] - max_sim) / options.temperature);
      la::Axpy(a, base[j], &context);
      z += a;
    }
    if (z > 0.0) la::Scale(1.0 / z, &context);
    la::Vec mixed = base[i];
    la::Scale(1.0 - options.blend, &mixed);
    la::Axpy(options.blend, context, &mixed);
    la::Normalize(&mixed);
    out[i] = std::move(mixed);
  }
  return out;
}

/// ContextMixer::Mix over rows given as vectors, returned as vectors.
std::vector<la::Vec> MixRows(const ContextMixer& mixer,
                             const std::vector<la::Vec>& rows) {
  const size_t dim = rows.empty() ? 0 : rows.front().size();
  la::Vec block;
  for (const la::Vec& row : rows) {
    block.insert(block.end(), row.begin(), row.end());
  }
  la::Vec mixed(block.size());
  mixer.Mix(block.data(), rows.size(), dim, mixed.data());
  std::vector<la::Vec> out;
  for (size_t i = 0; i < rows.size(); ++i) {
    out.emplace_back(mixed.begin() + i * dim, mixed.begin() + (i + 1) * dim);
  }
  return out;
}

/// Restores the ambient dispatch level when a test body returns.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level)
      : previous_(la::kernels::ActiveSimdLevel()) {
    la::kernels::SetSimdLevel(level);
  }
  ~ScopedSimdLevel() { la::kernels::SetSimdLevel(previous_); }

 private:
  SimdLevel previous_;
};

bool SameBits(const std::vector<la::Vec>& a, const std::vector<la::Vec>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    if (!a[i].empty() &&
        std::memcmp(a[i].data(), b[i].data(), a[i].size() * sizeof(float)) !=
            0) {
      return false;
    }
  }
  return true;
}

/// The calibrated copy of `v`.
la::Vec Calibrated(const SiameseCalibrator& calibrator, la::Vec v) {
  calibrator.Apply(v.data(), v.size());
  return v;
}

uint64_t CounterValue(const char* name) {
  return obs::Registry::Global().GetCounter(name).Value();
}

TEST(HashEmbedderTest, UnitNormAndDeterministic) {
  const HashEmbedder embedder(40);
  const la::Vec a = embedder.Embed("camera");
  const la::Vec b = embedder.Embed("camera");
  EXPECT_EQ(a, b);
  EXPECT_NEAR(la::Norm(a), 1.0, 1e-5);
  EXPECT_TRUE(la::IsZero(embedder.Embed("")));
}

TEST(HashEmbedderTest, SimilarStringsAreClose) {
  const HashEmbedder embedder(40);
  const double near = la::Cosine(embedder.Embed("external"),
                                 embedder.Embed("externl"));
  const double far = la::Cosine(embedder.Embed("external"),
                                embedder.Embed("zebra"));
  EXPECT_GT(near, 0.35);
  EXPECT_LT(far, 0.3);
  EXPECT_GT(near, far);
}

TEST(HashEmbedderTest, IdenticalBeatsSimilar) {
  const HashEmbedder embedder(40);
  EXPECT_GT(la::Cosine(embedder.Embed("dslra200w"),
                       embedder.Embed("dslra200w")),
            la::Cosine(embedder.Embed("dslra200w"),
                       embedder.Embed("dslra300k")));
}

TEST(HashEmbedderTest, SeedChangesSpace) {
  const HashEmbedder a(40, 1);
  const HashEmbedder b(40, 2);
  EXPECT_NE(a.Embed("camera"), b.Embed("camera"));
}

TEST(CoocEmbedderTest, ContextualNeighborsAreClose) {
  // "sony" and "nikon" share contexts; "pizza" lives elsewhere.
  std::vector<std::vector<std::string>> corpus;
  for (int i = 0; i < 60; ++i) {
    corpus.push_back({"sony", "digital", "camera", "zoom"});
    corpus.push_back({"nikon", "digital", "camera", "lens"});
    corpus.push_back({"pizza", "cheese", "oven", "dough"});
  }
  CoocEmbedder::Options options;
  options.dim = 8;
  CoocEmbedder embedder(options);
  embedder.Fit(corpus);
  const double related =
      la::Cosine(embedder.Embed("sony"), embedder.Embed("nikon"));
  const double unrelated =
      la::Cosine(embedder.Embed("sony"), embedder.Embed("pizza"));
  EXPECT_GT(related, unrelated);
}

TEST(CoocEmbedderTest, OutOfVocabularyIsZero) {
  CoocEmbedder embedder;
  embedder.Fit({{"alpha", "beta"}, {"alpha", "beta"}});
  EXPECT_TRUE(la::IsZero(embedder.Embed("missing")));
}

TEST(CoocEmbedderTest, MinCountFiltersRareTokens) {
  CoocEmbedder::Options options;
  options.min_count = 3;
  CoocEmbedder embedder(options);
  embedder.Fit({{"common", "rare"}, {"common", "x"}, {"common", "y"}});
  EXPECT_TRUE(la::IsZero(embedder.Embed("rare")));
}

TEST(ContextMixerTest, SingleTokenUnchanged) {
  const ContextMixer mixer;
  const std::vector<la::Vec> base = {{1.0f, 0.0f}};
  EXPECT_EQ(MixRows(mixer, base), base);
}

TEST(ContextMixerTest, OutputIsUnitNormAndContextDependent) {
  const ContextMixer mixer;
  const HashEmbedder embedder(24);
  const std::vector<la::Vec> context_a = {embedder.Embed("camera"),
                                          embedder.Embed("digital")};
  const std::vector<la::Vec> context_b = {embedder.Embed("camera"),
                                          embedder.Embed("lens")};
  const auto mixed_a = MixRows(mixer, context_a);
  const auto mixed_b = MixRows(mixer, context_b);
  EXPECT_NEAR(la::Norm(mixed_a[0]), 1.0, 1e-5);
  // Same token, different context -> different contextual vector (R4).
  EXPECT_LT(la::Cosine(mixed_a[0], mixed_b[0]), 0.9999);
  EXPECT_GT(la::Cosine(mixed_a[0], mixed_b[0]), 0.5);
}

TEST(ContextMixerTest, ZeroBlendIsIdentity) {
  ContextMixer::Options options;
  options.blend = 0.0;
  const ContextMixer mixer(options);
  const HashEmbedder embedder(16);
  const std::vector<la::Vec> base = {embedder.Embed("a"),
                                     embedder.Embed("b")};
  EXPECT_EQ(MixRows(mixer, base), base);
}

TEST(ContextMixerTest, BlockMixIsBitIdenticalToPerRowReference) {
  // Row counts around the 4-row tiles of both block kernels and the
  // encoder's typical 25 tokens; widths around the 8-column blocks and
  // the production dim 56. Every input carries an all-zero row and a
  // duplicated row once it has room for them.
  Rng rng(0xB10C);
  const ContextMixer mixer;
  for (size_t n : {0, 1, 2, 3, 4, 5, 8, 9, 25, 64}) {
    for (size_t dim : {1, 7, 8, 56, 57}) {
      std::vector<la::Vec> base(n, la::Vec(dim));
      for (la::Vec& row : base) {
        for (float& v : row) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
        la::Normalize(&row);
      }
      if (n >= 3) {
        std::fill(base[1].begin(), base[1].end(), 0.0f);
        base[n - 1] = base[0];
      }
      const std::vector<la::Vec> expected =
          MixReference(base, ContextMixerOptions{});
      for (SimdLevel level :
           {SimdLevel::kScalar, la::kernels::DetectedSimdLevel()}) {
        ScopedSimdLevel guard(level);
        SCOPED_TRACE(testing::Message() << "n=" << n << " dim=" << dim
                                        << " level="
                                        << la::kernels::SimdLevelName(level));
        // The oracle runs at the same level: its Dot/Axpy are the same
        // kernels, and both levels agree bit for bit.
        EXPECT_TRUE(SameBits(MixReference(base, ContextMixerOptions{}),
                             expected));
        EXPECT_TRUE(SameBits(MixRows(mixer, base), expected));
      }
    }
  }
}

TEST(SiameseCalibratorTest, IdentityBeforeFit) {
  const SiameseCalibrator calibrator;
  const la::Vec v = {0.5f, 0.5f};
  EXPECT_EQ(Calibrated(calibrator, v), v);
}

TEST(SiameseCalibratorTest, ReducesTrainingObjective) {
  // Matches should be pulled toward cosine 1, non-matches toward the
  // negative target (0.2): the calibrator must reduce its own objective
  // sum((cos - target)^2) on the training pairs.
  Rng rng(3);
  std::vector<std::pair<la::Vec, la::Vec>> pairs;
  std::vector<int> labels;
  for (int i = 0; i < 200; ++i) {
    const bool match = i % 2 == 0;
    // Dim 0: identity evidence; dim 1: always-shared brand evidence.
    la::Vec a = {static_cast<float>(rng.Normal(1.0, 0.1)),
                 static_cast<float>(rng.Normal(1.0, 0.1))};
    la::Vec b = {static_cast<float>(rng.Normal(match ? 1.0 : -0.3, 0.1)),
                 static_cast<float>(rng.Normal(1.0, 0.1))};
    la::Normalize(&a);
    la::Normalize(&b);
    pairs.emplace_back(a, b);
    labels.push_back(match ? 1 : 0);
  }
  SiameseCalibratorOptions options;
  SiameseCalibrator calibrator(options);
  calibrator.Fit(pairs, labels);
  ASSERT_TRUE(calibrator.fitted());

  auto objective = [&](bool calibrated) {
    double loss = 0.0;
    for (size_t i = 0; i < pairs.size(); ++i) {
      const double target =
          labels[i] == 1 ? 1.0 : options.negative_target;
      const double cos =
          calibrated ? la::Cosine(Calibrated(calibrator, pairs[i].first),
                                  Calibrated(calibrator, pairs[i].second))
                     : la::Cosine(pairs[i].first, pairs[i].second);
      loss += (cos - target) * (cos - target);
    }
    return loss;
  };
  EXPECT_LT(objective(true), objective(false));
}

TEST(SemanticEncoderTest, DimsConstantAcrossModes) {
  for (EncoderMode mode : {EncoderMode::kPretrained, EncoderMode::kFineTuned,
                           EncoderMode::kSiamese}) {
    SemanticEncoder::Options options;
    options.mode = mode;
    SemanticEncoder encoder(options);
    encoder.Fit({{"a", "b"}, {"a", "c"}});
    EXPECT_EQ(encoder.dim(),
              options.hash_dim + options.cooc_dim + options.numeric_dims);
    const la::Vec rows = encoder.EncodeTokens({"a", "b"});
    EXPECT_EQ(rows.size(), 2 * encoder.dim());
  }
}

TEST(SemanticEncoderTest, NumeracyChannelGradedSimilarity) {
  SemanticEncoder::Options options;
  options.mode = EncoderMode::kPretrained;
  SemanticEncoder encoder(options);
  encoder.Fit({});
  const double close = la::Cosine(encoder.EncodeTokenIsolated("1161.61"),
                                  encoder.EncodeTokenIsolated("1300.21"));
  const double far = la::Cosine(encoder.EncodeTokenIsolated("717"),
                                encoder.EncodeTokenIsolated("71"));
  EXPECT_GT(close, 0.6);
  EXPECT_GT(close, far);
}

TEST(SemanticEncoderTest, ExactNumberBeatsCloseNumber) {
  SemanticEncoder::Options options;
  options.mode = EncoderMode::kPretrained;
  SemanticEncoder encoder(options);
  encoder.Fit({});
  const la::Vec a = encoder.EncodeTokenIsolated("42166");
  EXPECT_GT(la::Cosine(a, encoder.EncodeTokenIsolated("42166")),
            la::Cosine(a, encoder.EncodeTokenIsolated("42199")));
}

TEST(SemanticEncoderTest, PoolTokensIsNormalizedMean) {
  const la::Vec rows = {1.0f, 0.0f, 0.0f, 1.0f};
  const la::Vec pooled = SemanticEncoder::PoolTokens(rows.data(), 2, 2);
  EXPECT_NEAR(la::Norm(pooled), 1.0, 1e-5);
  EXPECT_NEAR(pooled[0], pooled[1], 1e-5);
  EXPECT_TRUE(SemanticEncoder::PoolTokens(rows.data(), 0, 2).empty());
}

TEST(SemanticEncoderTest, DeterministicAcrossInstances) {
  SemanticEncoder::Options options;
  SemanticEncoder a(options), b(options);
  const std::vector<std::vector<std::string>> corpus = {
      {"digital", "camera"}, {"digital", "lens"}};
  a.Fit(corpus);
  b.Fit(corpus);
  EXPECT_EQ(a.EncodeTokens({"digital", "camera"}),
            b.EncodeTokens({"digital", "camera"}));
}

TEST(SemanticEncoderTest, TokenCacheIsBoundedWithDeterministicEviction) {
  // Long-lived-process regression: pushing far more distinct tokens
  // than the memo capacity through the encoder must keep the cache at
  // its cap (evicting, not refusing new entries) and must not change
  // any encoding — cached vectors are derivable state.
  SemanticEncoder::Options options;
  SemanticEncoder encoder(options);
  encoder.Fit({{"digital", "camera"}});

  const auto first_before = encoder.EncodeTokens({"tok0"});
  const size_t kDistinct = (1u << 16) + 512;
  std::vector<std::string> batch;
  batch.reserve(64);
  for (size_t i = 0; i < kDistinct; i += 64) {
    batch.clear();
    for (size_t j = i; j < i + 64 && j < kDistinct; ++j) {
      batch.push_back("tok" + std::to_string(j));
    }
    (void)encoder.EncodeTokens(batch);
  }
  EXPECT_LE(encoder.token_cache_size(), size_t{1} << 16);
  EXPECT_GT(encoder.token_cache_evictions(), 0u);
  // "tok0" was evicted long ago; recomputing it after eviction gives
  // the identical vector.
  EXPECT_EQ(encoder.EncodeTokens({"tok0"}), first_before);

  // The eviction order is FIFO, so two encoders fed the same sequence
  // end with identical cache occupancy.
  SemanticEncoder other(options);
  other.Fit({{"digital", "camera"}});
  (void)other.EncodeTokens({"tok0"});
  for (size_t i = 0; i < kDistinct; i += 64) {
    batch.clear();
    for (size_t j = i; j < i + 64 && j < kDistinct; ++j) {
      batch.push_back("tok" + std::to_string(j));
    }
    (void)other.EncodeTokens(batch);
  }
  (void)other.EncodeTokens({"tok0"});
  EXPECT_EQ(other.token_cache_size(), encoder.token_cache_size());
  EXPECT_EQ(other.token_cache_evictions(), encoder.token_cache_evictions());
}

TEST(SemanticEncoderTest, FrozenVocabularyTierServesTrainingTokens) {
  // Tokens of the training vocabulary come from the frozen tier: no
  // FIFO entry, no memo miss. Out-of-vocabulary tokens take the FIFO
  // tier and count one miss each, once per encoded entity.
  SemanticEncoder::Options options;
  options.mode = EncoderMode::kFineTuned;
  SemanticEncoder encoder(options);
  encoder.Fit({{"digital", "camera", "lens"},
               {"digital", "camera", "zoom"},
               {"lens", "zoom", "digital"}});
  ASSERT_GT(encoder.frozen_vocabulary_size(), 0u);

  const uint64_t lookups0 = CounterValue("embedding.token_memo_lookups");
  const uint64_t misses0 = CounterValue("embedding.token_memo_misses");
  const la::Vec in_vocabulary = encoder.EncodeTokens({"digital", "camera"});
  EXPECT_EQ(encoder.token_cache_size(), 0u);
  const la::Vec mixed = encoder.EncodeTokens({"digital", "tripod", "qx9"});
  EXPECT_EQ(encoder.token_cache_size(), 2u);
  if (obs::MetricsEnabled()) {
    EXPECT_EQ(CounterValue("embedding.token_memo_lookups") - lookups0, 5u);
    EXPECT_EQ(CounterValue("embedding.token_memo_misses") - misses0, 2u);
  }

  // A loaded encoder has no frozen tier until FreezeVocabulary; every
  // tier gives the same bits.
  std::stringstream bytes;
  serde::Serializer writer(&bytes);
  encoder.Save(&writer);
  serde::Deserializer reader(&bytes);
  SemanticEncoder loaded;
  ASSERT_TRUE(loaded.Load(&reader));
  EXPECT_EQ(loaded.frozen_vocabulary_size(), 0u);
  EXPECT_EQ(loaded.EncodeTokens({"digital", "camera"}), in_vocabulary);
  EXPECT_EQ(loaded.token_cache_size(), 2u);
  loaded.FreezeVocabulary();
  EXPECT_EQ(loaded.frozen_vocabulary_size(), encoder.frozen_vocabulary_size());
  EXPECT_EQ(loaded.EncodeTokens({"digital", "tripod", "qx9"}), mixed);
  for (const char* token : {"digital", "camera", "lens", "zoom", "qx9"}) {
    EXPECT_EQ(loaded.EncodeTokenIsolated(token),
              encoder.EncodeTokenIsolated(token))
        << token;
  }
}

}  // namespace
}  // namespace wym::embedding
