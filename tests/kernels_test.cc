// Tests of the SIMD kernel layer (la/kernels.h): bit-identity of both
// dispatch paths (scalar vs AVX2) on randomized inputs, the
// WYM_SIMD environment contract, and the end-to-end guarantee that the
// selected path does not change pipeline outputs — identical decision
// units and byte-identical trained model files.
//
// The whole suite is re-run by ctest with WYM_SIMD=off (see
// tests/CMakeLists.txt) so the scalar dispatch path stays exercised.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/tokenized_record.h"
#include "core/unit_generator.h"
#include "core/wym.h"
#include "data/benchmark_gen.h"
#include "data/split.h"
#include "embedding/semantic_encoder.h"
#include "la/kernels.h"
#include "obs/metrics.h"
#include "text/tokenizer.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace wym {
namespace {

using la::kernels::SimdLevel;

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

std::vector<SimdLevel> AvailableLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  const SimdLevel detected = la::kernels::DetectedSimdLevel();
  if (detected != SimdLevel::kScalar) levels.push_back(detected);
  return levels;
}

// Sizes chosen to cover the empty case, pure-tail cases, one full
// 8-block, and block+tail combinations.
const size_t kSizes[] = {0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 64, 72, 129};

std::vector<float> RandomF32(Rng* rng, size_t n) {
  std::vector<float> out(n);
  for (auto& v : out) v = static_cast<float>(rng->Uniform(-1.5, 1.5));
  return out;
}

std::vector<double> RandomF64(Rng* rng, size_t n) {
  std::vector<double> out(n);
  for (auto& v : out) v = rng->Uniform(-1.5, 1.5);
  return out;
}

TEST(KernelDispatchTest, DetectedLevelIsAtLeastScalar) {
  EXPECT_GE(la::kernels::DetectedSimdLevel(), SimdLevel::kScalar);
  EXPECT_STREQ(la::kernels::SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(la::kernels::SimdLevelName(SimdLevel::kAvx2), "avx2");
}

TEST(KernelDispatchTest, ActiveLevelRespectsWymSimdEnv) {
  // The suite runs twice under ctest: once with the default dispatch
  // and once with WYM_SIMD=off. Every test that switches levels puts
  // the previous one back through ScopedSimdLevel, so the active level
  // here is the one WYM_SIMD resolved to at startup.
  const char* env = std::getenv("WYM_SIMD");
  const bool off = env != nullptr && (std::strcmp(env, "off") == 0 ||
                                      std::strcmp(env, "scalar") == 0);
  EXPECT_EQ(la::kernels::ActiveSimdLevel(),
            off ? SimdLevel::kScalar : la::kernels::DetectedSimdLevel());
  // Forcing the best level still works under either setting.
  ScopedSimdLevel guard(SimdLevel::kAvx2);
  EXPECT_EQ(la::kernels::ActiveSimdLevel(), la::kernels::DetectedSimdLevel());
}

TEST(KernelDispatchTest, SetSimdLevelClampsToDetected) {
  ScopedSimdLevel guard(la::kernels::DetectedSimdLevel());
  EXPECT_EQ(la::kernels::SetSimdLevel(SimdLevel::kScalar), SimdLevel::kScalar);
  EXPECT_EQ(la::kernels::ActiveSimdLevel(), SimdLevel::kScalar);
  const SimdLevel applied = la::kernels::SetSimdLevel(SimdLevel::kAvx2);
  EXPECT_LE(applied, la::kernels::DetectedSimdLevel());
  EXPECT_EQ(applied, la::kernels::ActiveSimdLevel());
}

TEST(KernelParityTest, ReductionsBitIdenticalAcrossLevels) {
  Rng rng(0xBEEF);
  for (size_t n : kSizes) {
    const std::vector<float> fa = RandomF32(&rng, n);
    const std::vector<float> fb = RandomF32(&rng, n);
    const std::vector<double> da = RandomF64(&rng, n);
    const std::vector<double> db = RandomF64(&rng, n);

    ScopedSimdLevel guard(SimdLevel::kScalar);
    const double dot_f32 = la::kernels::Dot(fa.data(), fb.data(), n);
    const double dot_f64 = la::kernels::Dot(da.data(), db.data(), n);
    const double sqnorm_f32 = la::kernels::SquaredNorm(fa.data(), n);
    const double sqnorm_f64 = la::kernels::SquaredNorm(da.data(), n);
    const double sqdist = la::kernels::SquaredDistance(da.data(), db.data(), n);

    for (SimdLevel level : AvailableLevels()) {
      la::kernels::SetSimdLevel(level);
      SCOPED_TRACE(testing::Message() << "n=" << n << " level="
                                      << la::kernels::SimdLevelName(level));
      // Bit-identical, not approximately equal.
      EXPECT_EQ(dot_f32, la::kernels::Dot(fa.data(), fb.data(), n));
      EXPECT_EQ(dot_f64, la::kernels::Dot(da.data(), db.data(), n));
      EXPECT_EQ(sqnorm_f32, la::kernels::SquaredNorm(fa.data(), n));
      EXPECT_EQ(sqnorm_f64, la::kernels::SquaredNorm(da.data(), n));
      EXPECT_EQ(sqdist,
                la::kernels::SquaredDistance(da.data(), db.data(), n));
    }
  }
}

TEST(KernelParityTest, ElementwiseOpsBitIdenticalAcrossLevels) {
  Rng rng(0xCAFE);
  for (size_t n : kSizes) {
    const std::vector<float> fx = RandomF32(&rng, n);
    const std::vector<float> fy = RandomF32(&rng, n);
    const std::vector<double> dx = RandomF64(&rng, n);
    const std::vector<double> dy = RandomF64(&rng, n);
    const double scale = rng.Uniform(-2.0, 2.0);

    std::vector<float> f_ref = fy;
    std::vector<double> d_ref = dy;
    std::vector<float> f_scale_ref = fx;
    std::vector<double> d_scale_ref = dx;
    {
      ScopedSimdLevel guard(SimdLevel::kScalar);
      la::kernels::Axpy(scale, fx.data(), f_ref.data(), n);
      la::kernels::Axpy(scale, dx.data(), d_ref.data(), n);
      la::kernels::Scale(scale, f_scale_ref.data(), n);
      la::kernels::Scale(scale, d_scale_ref.data(), n);
    }

    for (SimdLevel level : AvailableLevels()) {
      ScopedSimdLevel guard(level);
      SCOPED_TRACE(testing::Message() << "n=" << n << " level="
                                      << la::kernels::SimdLevelName(level));
      std::vector<float> f_out = fy;
      std::vector<double> d_out = dy;
      std::vector<float> f_scale_out = fx;
      std::vector<double> d_scale_out = dx;
      la::kernels::Axpy(scale, fx.data(), f_out.data(), n);
      la::kernels::Axpy(scale, dx.data(), d_out.data(), n);
      la::kernels::Scale(scale, f_scale_out.data(), n);
      la::kernels::Scale(scale, d_scale_out.data(), n);
      EXPECT_EQ(f_ref, f_out);
      EXPECT_EQ(d_ref, d_out);
      EXPECT_EQ(f_scale_ref, f_scale_out);
      EXPECT_EQ(d_scale_ref, d_scale_out);
    }
  }
}

TEST(KernelParityTest, SimilarityMatrixBitIdenticalAcrossLevels) {
  Rng rng(0xD07);
  const size_t rows_a = 13, rows_b = 29, dim = 72;
  const std::vector<float> a = RandomF32(&rng, rows_a * dim);
  const std::vector<float> b = RandomF32(&rng, rows_b * dim);

  std::vector<double> reference(rows_a * rows_b);
  {
    ScopedSimdLevel guard(SimdLevel::kScalar);
    la::kernels::SimilarityMatrix(a.data(), rows_a, b.data(), rows_b, dim,
                                  reference.data());
  }
  // The reference agrees with per-cell Dot.
  for (size_t i = 0; i < rows_a; ++i) {
    for (size_t j = 0; j < rows_b; ++j) {
      ScopedSimdLevel guard(SimdLevel::kScalar);
      EXPECT_EQ(reference[i * rows_b + j],
                la::kernels::Dot(a.data() + i * dim, b.data() + j * dim, dim));
    }
  }

  for (SimdLevel level : AvailableLevels()) {
    ScopedSimdLevel guard(level);
    SCOPED_TRACE(la::kernels::SimdLevelName(level));
    std::vector<double> out(rows_a * rows_b);
    la::kernels::SimilarityMatrix(a.data(), rows_a, b.data(), rows_b, dim,
                                  out.data());
    EXPECT_EQ(reference, out);
  }
}

// --- Fused dense layer -----------------------------------------------

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(KernelParityTest, DenseLayerEqualsPerCellDotOnEveryLevel) {
  Rng rng(0xDE45E);
  // Widths around the 8-block; n_out on and off the AVX2 4-cell tile;
  // rows 0, 1 and a count past one 16-row block that is not a multiple
  // of it.
  for (size_t in : {1, 7, 8, 9, 136}) {
    for (size_t n_out : {1, 3, 4, 6, 33}) {
      for (size_t rows : {0, 1, 41}) {
        const std::vector<double> x = RandomF64(&rng, rows * in);
        const std::vector<double> w = RandomF64(&rng, n_out * in);
        const std::vector<double> bias = RandomF64(&rng, n_out);
        for (bool relu : {false, true}) {
          for (SimdLevel level : AvailableLevels()) {
            ScopedSimdLevel guard(level);
            SCOPED_TRACE(testing::Message()
                         << "in=" << in << " n_out=" << n_out << " rows="
                         << rows << " relu=" << relu << " level="
                         << la::kernels::SimdLevelName(level));
            // One sentinel past the end: the kernel writes rows*n_out
            // cells, no more.
            std::vector<double> out(rows * n_out + 1, 42.0);
            la::kernels::DenseLayer(x.data(), rows, in, w.data(),
                                    bias.data(), n_out, relu, out.data());
            EXPECT_EQ(out.back(), 42.0);
            for (size_t r = 0; r < rows; ++r) {
              for (size_t o = 0; o < n_out; ++o) {
                double expected = bias[o] + la::kernels::Dot(w.data() + o * in,
                                                             x.data() + r * in,
                                                             in);
                if (relu) expected = std::max(0.0, expected);
                ASSERT_TRUE(SameBits(out[r * n_out + o], expected))
                    << "cell r=" << r << " o=" << o;
              }
            }
          }
        }
      }
    }
  }
}

TEST(KernelParityTest, GramMatrixEqualsPerCellDotOnEveryLevel) {
  Rng rng(0x6A4);
  // Row counts on and off the AVX2 4-cell tiles; widths around the
  // 8-block and the encoder's dim 56.
  for (size_t n : {0, 1, 2, 3, 4, 5, 8, 9, 25}) {
    for (size_t dim : {1, 7, 8, 56, 57}) {
      // Float rows widened to double: each cell must equal both the
      // double Dot and the float Dot of the original rows.
      const std::vector<float> narrow = RandomF32(&rng, n * dim);
      const std::vector<double> rows(narrow.begin(), narrow.end());
      for (SimdLevel level : AvailableLevels()) {
        ScopedSimdLevel guard(level);
        SCOPED_TRACE(testing::Message() << "n=" << n << " dim=" << dim
                                        << " level="
                                        << la::kernels::SimdLevelName(level));
        // One sentinel past the end: the kernel writes n*n cells.
        std::vector<double> out(n * n + 1, 42.0);
        la::kernels::GramMatrix(rows.data(), n, dim, out.data());
        EXPECT_EQ(out.back(), 42.0);
        for (size_t i = 0; i < n; ++i) {
          for (size_t j = 0; j < n; ++j) {
            const double expected = la::kernels::Dot(
                rows.data() + i * dim, rows.data() + j * dim, dim);
            ASSERT_TRUE(SameBits(out[i * n + j], expected))
                << "cell i=" << i << " j=" << j;
            ASSERT_TRUE(SameBits(
                out[i * n + j],
                la::kernels::Dot(narrow.data() + i * dim,
                                 narrow.data() + j * dim, dim)))
                << "float cell i=" << i << " j=" << j;
          }
        }
      }
    }
  }
}

TEST(KernelParityTest, GramMatrixCountsNoSimilarityMatrixCall) {
  // The encoder's context mixing runs GramMatrix; the
  // similarity-matrix counter measures unit generation only.
  obs::Counter& calls =
      obs::Registry::Global().GetCounter("kernels.similarity_matrix_calls");
  const uint64_t before = calls.Value();
  const std::vector<double> rows(4 * 8, 0.5);
  std::vector<double> out(16);
  la::kernels::GramMatrix(rows.data(), 4, 8, out.data());
  EXPECT_EQ(calls.Value(), before);
}

TEST(KernelParityTest, WeightedRowSumEqualsPerRowAxpyOnEveryLevel) {
  Rng rng(0x3E16);
  // n_out on and off the AVX2 4-row tile, widths around the 8-column
  // block, n_in 0 (all-zero output) through a typical token count.
  for (size_t n_out : {0, 1, 3, 4, 5, 9}) {
    for (size_t n_in : {0, 1, 2, 7, 25}) {
      for (size_t dim : {1, 7, 8, 56, 57}) {
        const std::vector<double> w = RandomF64(&rng, n_out * n_in);
        const std::vector<float> x = RandomF32(&rng, n_in * dim);
        for (SimdLevel level : AvailableLevels()) {
          ScopedSimdLevel guard(level);
          SCOPED_TRACE(testing::Message()
                       << "n_out=" << n_out << " n_in=" << n_in
                       << " dim=" << dim << " level="
                       << la::kernels::SimdLevelName(level));
          std::vector<float> out(n_out * dim + 1, 42.0f);
          la::kernels::WeightedRowSum(w.data(), n_out, n_in, x.data(), dim,
                                      out.data());
          EXPECT_EQ(out.back(), 42.0f);
          for (size_t i = 0; i < n_out; ++i) {
            std::vector<float> expected(dim, 0.0f);
            for (size_t j = 0; j < n_in; ++j) {
              la::kernels::Axpy(w[i * n_in + j], x.data() + j * dim,
                                expected.data(), dim);
            }
            ASSERT_EQ(std::memcmp(out.data() + i * dim, expected.data(),
                                  dim * sizeof(float)),
                      0)
                << "row " << i;
          }
        }
      }
    }
  }
}

TEST(KernelParityTest, DenseLayerReluHasStdMaxSemantics) {
  // std::max(0.0, v) maps NaN and -0.0 to +0.0. A cell cannot compute
  // -0.0 itself (Dot's partial sums start at +0.0), so a -0.0 bias over
  // zero weights is the closest input; a NaN bias, and a NaN in row 1's
  // input, must come out as +0.0 too. n_out = 6 puts the special values
  // in the 4-cell tile and in the leftover cells.
  const size_t in = 9, n_out = 6, rows = 2;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> bias = {nan, -0.0, -inf, inf, nan, -0.0};
  const std::vector<double> w(n_out * in, 0.0);
  std::vector<double> x(rows * in, 0.5);
  x[in + 3] = nan;
  const double pos_zero = 0.0;
  for (SimdLevel level : AvailableLevels()) {
    ScopedSimdLevel guard(level);
    SCOPED_TRACE(la::kernels::SimdLevelName(level));
    std::vector<double> out(rows * n_out);
    la::kernels::DenseLayer(x.data(), rows, in, w.data(), bias.data(), n_out,
                            /*relu=*/true, out.data());
    for (size_t o = 0; o < n_out; ++o) {
      const double row0 = o == 3 ? inf : pos_zero;
      EXPECT_TRUE(SameBits(out[o], row0)) << "row 0 cell " << o;
      EXPECT_TRUE(SameBits(out[n_out + o], pos_zero)) << "row 1 cell " << o;
    }
    // Without the ReLU the same cells stay NaN / infinite.
    la::kernels::DenseLayer(x.data(), rows, in, w.data(), bias.data(), n_out,
                            /*relu=*/false, out.data());
    EXPECT_TRUE(std::isnan(out[0]));
    EXPECT_TRUE(std::isnan(out[4]));
    EXPECT_EQ(out[2], -inf);
    EXPECT_TRUE(std::isnan(out[n_out + 3]));
  }
}

// --- End-to-end: the dispatch path must not change pipeline outputs ---

core::TokenizedRecord EncodeFirstRecord(const data::Dataset& dataset) {
  const text::Tokenizer tokenizer;
  embedding::SemanticEncoderOptions options;
  options.mode = embedding::EncoderMode::kPretrained;
  embedding::SemanticEncoder encoder(options);
  encoder.Fit({});
  core::TokenizedRecord record = core::TokenizeRecord(
      dataset.records.front(), dataset.schema, tokenizer);
  core::EncodeEntity(encoder, &record.left);
  core::EncodeEntity(encoder, &record.right);
  return record;
}

void ExpectSameUnits(const std::vector<core::DecisionUnit>& units,
                     const std::vector<core::DecisionUnit>& reference) {
  ASSERT_EQ(units.size(), reference.size());
  for (size_t u = 0; u < units.size(); ++u) {
    EXPECT_EQ(units[u].paired, reference[u].paired);
    EXPECT_EQ(units[u].phase, reference[u].phase);
    EXPECT_EQ(units[u].left.position, reference[u].left.position);
    EXPECT_EQ(units[u].right.position, reference[u].right.position);
    EXPECT_EQ(units[u].left.token, reference[u].left.token);
    EXPECT_EQ(units[u].right.token, reference[u].right.token);
    // Similarities bit-identical, not approximately equal.
    EXPECT_EQ(std::memcmp(&units[u].similarity, &reference[u].similarity,
                          sizeof(double)),
              0);
  }
}

TEST(KernelPipelineTest, EncodeEntityCountsNoSimilarityMatrixCall) {
  // Encoding mixes context through GramMatrix, not SimilarityMatrix, so
  // `la.simmat_fp_calls` keeps measuring unit generation alone.
  const data::Dataset dataset = data::GenerateById("S-WA", 42, 0.1);
  obs::Counter& calls =
      obs::Registry::Global().GetCounter("kernels.similarity_matrix_calls");
  const uint64_t before = calls.Value();
  const core::TokenizedRecord record = EncodeFirstRecord(dataset);
  ASSERT_GE(record.left.size(), 2u);
  EXPECT_EQ(calls.Value(), before);
}

TEST(KernelPipelineTest, DecisionUnitsIdenticalAcrossLevels) {
  const data::Dataset dataset = data::GenerateById("S-WA", 42, 0.1);
  const core::DecisionUnitGenerator generator;

  // Encoding itself runs through the kernels, so each level encodes its
  // own copy: the test covers encode + packing + unit generation.
  std::vector<core::DecisionUnit> reference;
  {
    ScopedSimdLevel guard(SimdLevel::kScalar);
    const core::TokenizedRecord record = EncodeFirstRecord(dataset);
    reference = generator.Generate(record.left, record.right,
                                   dataset.schema.size());
  }
  ASSERT_FALSE(reference.empty());

  for (SimdLevel level : AvailableLevels()) {
    ScopedSimdLevel guard(level);
    SCOPED_TRACE(la::kernels::SimdLevelName(level));
    const core::TokenizedRecord record = EncodeFirstRecord(dataset);
    const std::vector<core::DecisionUnit> units =
        generator.Generate(record.left, record.right, dataset.schema.size());
    ExpectSameUnits(units, reference);
  }
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(KernelPipelineTest, TrainedModelFilesByteIdenticalAcrossLevels) {
  const data::Dataset dataset = data::GenerateById("S-FZ", 42, 0.25);
  const data::Split split = data::DefaultSplit(dataset, 42);

  auto train_and_save = [&](SimdLevel level, const std::string& path) {
    ScopedSimdLevel guard(level);
    core::WymModel model;
    model.Fit(split.train, split.validation);
    ASSERT_TRUE(model.SaveToFile(path).ok());
  };

  // PID-unique paths: ctest runs this binary twice (default dispatch and
  // the WYM_SIMD=off rerun), possibly concurrently.
  const std::string tag = std::to_string(static_cast<long>(::getpid()));
  const std::string scalar_path =
      testing::TempDir() + "/wym_scalar_" + tag + ".bin";
  const std::string simd_path = testing::TempDir() + "/wym_simd_" + tag + ".bin";
  train_and_save(SimdLevel::kScalar, scalar_path);
  train_and_save(la::kernels::DetectedSimdLevel(), simd_path);

  const std::string scalar_bytes = FileBytes(scalar_path);
  const std::string simd_bytes = FileBytes(simd_path);
  ASSERT_FALSE(scalar_bytes.empty());
  EXPECT_EQ(scalar_bytes, simd_bytes)
      << "training under WYM_SIMD=off and under the dispatched kernels "
         "must produce byte-identical model files";
  std::remove(scalar_path.c_str());
  std::remove(simd_path.c_str());
}

// --- Unit pipeline: packing fallback, thread determinism -------------

TEST(UnitPipelineTest, PackingFallbackMatchesEncodeTimePacking) {
  // An entity carrying only its raw rows is packed on the fly by the
  // generator; that must give the same bits as the encode-time packing.
  // The stripped raw rows are doubled: scaling by a power of two is
  // exact and leaves the unit-normalized bits unchanged, so the
  // fallback agrees only if it really normalizes.
  const data::Dataset dataset = data::GenerateById("S-WA", 42, 0.1);
  const core::TokenizedRecord record = EncodeFirstRecord(dataset);
  ASSERT_TRUE(record.left.HasPackedEmbeddings());
  ASSERT_TRUE(record.right.HasPackedEmbeddings());

  core::TokenizedRecord stripped = record;
  for (core::TokenizedEntity* entity : {&stripped.left, &stripped.right}) {
    entity->packed_embeddings.clear();
    for (float& x : entity->raw_embeddings) x *= 2.0f;
  }
  ASSERT_TRUE(stripped.left.HasEmbeddings());
  ASSERT_FALSE(stripped.left.HasPackedEmbeddings());
  ASSERT_FALSE(stripped.right.HasPackedEmbeddings());

  const core::DecisionUnitGenerator generator;
  const la::Matrix packed =
      generator.PairSimilarityMatrix(record.left, record.right);
  const la::Matrix fallback =
      generator.PairSimilarityMatrix(stripped.left, stripped.right);
  ASSERT_EQ(packed.rows(), fallback.rows());
  ASSERT_EQ(packed.cols(), fallback.cols());
  ASSERT_GT(packed.rows() * packed.cols(), 0u);
  EXPECT_EQ(std::memcmp(packed.data().data(), fallback.data().data(),
                        packed.rows() * packed.cols() * sizeof(double)),
            0);

  const size_t num_attributes = dataset.schema.size();
  const std::vector<core::DecisionUnit> reference =
      generator.Generate(record.left, record.right, num_attributes);
  ASSERT_FALSE(reference.empty());
  ExpectSameUnits(
      generator.Generate(stripped.left, stripped.right, num_attributes),
      reference);
}

TEST(UnitPipelineTest, PredictionsBitIdenticalAcrossThreadCounts) {
  // 1-vs-8-thread byte-identity of the whole predict path under the
  // default config.
  const data::Dataset dataset = data::GenerateById("S-FZ", 42, 0.25);
  const data::Split split = data::DefaultSplit(dataset, 42);
  core::WymModel model;
  model.Fit(split.train, split.validation);

  util::ThreadPool one(1), eight(8);
  const std::vector<double> p1 =
      model.PredictProbaBatch(split.test, nullptr, &one);
  const std::vector<double> p8 =
      model.PredictProbaBatch(split.test, nullptr, &eight);
  ASSERT_EQ(p1.size(), p8.size());
  ASSERT_FALSE(p1.empty());
  for (size_t i = 0; i < p1.size(); ++i) {
    EXPECT_EQ(std::memcmp(&p1[i], &p8[i], sizeof(double)), 0)
        << "record " << i;
  }
}

}  // namespace
}  // namespace wym
