// End-to-end robustness suite for the persistence stack: a trained
// model is saved once, then its file is subjected to hundreds of
// deterministic faults — truncations at stratified offsets, single-bit
// flips across the whole file, mid-write failures, ENOSPC, simulated
// crashes — via the wym::io::FaultInjector seam. The contract under
// test (DESIGN.md "Failure model & file-format v2"):
//
//   - Load of a damaged file ALWAYS returns Corruption/IoError. It
//     never aborts, never hangs, never returns OK on damaged bytes.
//   - A failed or crashed save never clobbers the previous good model.
//   - Legacy v1 files are refused with a typed Corruption error.
//
// Run under scripts/check.sh's asan-ubsan configuration this doubles as
// a memory-safety sweep of every decode error path.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/feature_extractor.h"
#include "core/wym.h"
#include "data/benchmark_gen.h"
#include "data/csv.h"
#include "data/split.h"
#include "la/matrix.h"
#include "obs/metrics.h"
#include "util/framed_file.h"
#include "util/io.h"
#include "util/serde.h"
#include "util/status.h"

namespace wym {
namespace {

/// The shared fixture: one small trained model (training dominates the
/// runtime; every fault case reuses the same trained pipeline).
struct Suite {
  data::Dataset dataset;
  data::Split split;
  core::WymModel model;
  std::string path;
  std::string clean_bytes;
  std::vector<double> clean_probas;
};

class FaultInjectionTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto s = std::make_unique<Suite>();
    s->dataset = data::GenerateById("S-FZ", 42, 0.3);
    s->split = data::DefaultSplit(s->dataset, 42);
    s->model.Fit(s->split.train, s->split.validation);

    // Per-process path: ctest runs each test of this suite as its own
    // process, possibly in parallel — a shared path would race the
    // saves (and their shared ".tmp" staging file) across processes.
    s->path = testing::TempDir() + "/wym_fault_model." +
              std::to_string(::getpid()) + ".wym";
    if (!s->model.SaveToFile(s->path).ok()) return;
    if (!io::ReadFileToString(s->path, &s->clean_bytes).ok()) return;
    if (s->clean_bytes.size() <= 100) return;
    s->clean_probas = s->model.PredictProbaBatch(s->split.test);
    suite_ = std::move(s);
  }

  static void TearDownTestSuite() {
    if (suite_ != nullptr) std::remove(suite_->path.c_str());
    suite_.reset();
  }

  void SetUp() override {
    ASSERT_NE(suite_, nullptr) << "shared fixture failed to build";
  }

  /// A load failure must be a *reported* failure of the right class.
  static void ExpectDamageDetected(const Status& status,
                                   const std::string& what) {
    EXPECT_FALSE(status.ok()) << what << ": damaged file loaded OK";
    EXPECT_TRUE(status.code() == Status::Code::kCorruption ||
                status.code() == Status::Code::kIoError)
        << what << ": unexpected status " << status.ToString();
  }

  static std::unique_ptr<Suite> suite_;
};

std::unique_ptr<Suite> FaultInjectionTest::suite_;

// ---------------------------------------------------------------------
// Corruption sweeps (>= 200 mutations total across the two tests)
// ---------------------------------------------------------------------

TEST_F(FaultInjectionTest, TruncationSweepAlwaysDetected) {
  const size_t size = suite_->clean_bytes.size();
  // Stratified truncation points: every boundary-ish prefix plus 110
  // evenly spaced interior cuts — header, every frame, the trailer.
  std::vector<size_t> cuts = {0, 1, 2, 3, 4, 5, size - 1, size - 2};
  for (size_t i = 0; i < 110; ++i) cuts.push_back(1 + i * (size - 2) / 110);

  int swept = 0;
  for (const size_t cut : cuts) {
    io::FaultInjector injector;
    injector.ShortRead(cut);
    io::ScopedFaultInjector scope(&injector);
    const auto loaded = core::WymModel::LoadFromFile(suite_->path);
    ExpectDamageDetected(loaded.status(),
                         "truncated to " + std::to_string(cut) + " bytes");
    EXPECT_EQ(injector.faults_fired(), 1);
    ++swept;
  }
  EXPECT_GE(swept, 100);
}

TEST_F(FaultInjectionTest, BitFlipSweepAlwaysDetected) {
  const size_t bits = suite_->clean_bytes.size() * 8;
  int swept = 0;
  // 120 single-bit flips evenly spaced over the file: magic, version,
  // frame headers, payloads, CRC footers, trailer — every region.
  for (size_t i = 0; i < 120; ++i) {
    const size_t bit = i * (bits - 1) / 119;
    io::FaultInjector injector;
    injector.FlipBit(bit);
    io::ScopedFaultInjector scope(&injector);
    const auto loaded = core::WymModel::LoadFromFile(suite_->path);
    ExpectDamageDetected(loaded.status(),
                         "bit " + std::to_string(bit) + " flipped");
    ++swept;
  }
  EXPECT_GE(swept, 100);
}

TEST_F(FaultInjectionTest, CorruptFrameErrorNamesTheSection) {
  // Flip a payload bit inside the encoder frame specifically.
  const size_t frame_at = suite_->clean_bytes.find("FRAME encoder ");
  ASSERT_NE(frame_at, std::string::npos);
  const size_t payload_at = suite_->clean_bytes.find('\n', frame_at) + 10;
  ASSERT_LT(payload_at, suite_->clean_bytes.size());

  io::FaultInjector injector;
  injector.FlipBit(payload_at * 8);
  io::ScopedFaultInjector scope(&injector);
  const auto loaded = core::WymModel::LoadFromFile(suite_->path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption);
  EXPECT_NE(loaded.status().message().find("encoder"), std::string::npos)
      << loaded.status().ToString();
}

TEST_F(FaultInjectionTest, VerifyFileAgreesWithLoadOnDamage) {
  ASSERT_TRUE(core::WymModel::VerifyFile(suite_->path).ok());
  for (const size_t bit : {7u, 1000u, 20000u}) {
    if (bit >= suite_->clean_bytes.size() * 8) continue;
    io::FaultInjector injector;
    injector.FlipBit(bit);
    io::ScopedFaultInjector scope(&injector);
    std::string summary;
    const Status status = core::WymModel::VerifyFile(suite_->path, &summary);
    ExpectDamageDetected(status, "verify with bit " + std::to_string(bit));
  }
}

// ---------------------------------------------------------------------
// Atomic save: a failed write never clobbers the previous model
// ---------------------------------------------------------------------

TEST_F(FaultInjectionTest, CrashMidSaveLeavesPreviousModelLoadable) {
  const std::string victim = testing::TempDir() + "/wym_fault_victim.wym";
  ASSERT_TRUE(suite_->model.SaveToFile(victim).ok());

  // Simulated kill -9 after 1000 bytes of the rewrite: no rename, the
  // partial temp file is abandoned on disk.
  io::FaultInjector injector;
  injector.CrashAt(1000);
  {
    io::ScopedFaultInjector scope(&injector);
    EXPECT_EQ(suite_->model.SaveToFile(victim).code(), Status::Code::kIoError);
  }
  EXPECT_EQ(injector.faults_fired(), 1);

  auto survivor = core::WymModel::LoadFromFile(victim);
  ASSERT_TRUE(survivor.ok()) << survivor.status().ToString();
  const std::vector<double> probas =
      survivor.value().PredictProbaBatch(suite_->split.test);
  ASSERT_EQ(probas.size(), suite_->clean_probas.size());
  for (size_t i = 0; i < probas.size(); ++i) {
    EXPECT_DOUBLE_EQ(probas[i], suite_->clean_probas[i]);
  }
  std::remove((victim + ".tmp").c_str());
  std::remove(victim.c_str());
}

TEST_F(FaultInjectionTest, FailedAndEnospcSavesLeaveNoDebris) {
  const std::string victim = testing::TempDir() + "/wym_fault_debris.wym";
  ASSERT_TRUE(suite_->model.SaveToFile(victim).ok());

  io::FaultInjector injector;
  injector.FailWriteAt(64).Enospc(128);
  {
    io::ScopedFaultInjector scope(&injector);
    EXPECT_EQ(suite_->model.SaveToFile(victim).code(), Status::Code::kIoError);
    const Status enospc = suite_->model.SaveToFile(victim);
    EXPECT_EQ(enospc.code(), Status::Code::kIoError);
    EXPECT_NE(enospc.message().find("space"), std::string::npos)
        << enospc.ToString();
  }
  EXPECT_EQ(injector.faults_fired(), 2);

  // Both failures cleaned up their temp file and left the target alone.
  std::string tmp_probe;
  EXPECT_FALSE(io::ReadFileToString(victim + ".tmp", &tmp_probe).ok());
  auto survivor = core::WymModel::LoadFromFile(victim);
  EXPECT_TRUE(survivor.ok()) << survivor.status().ToString();
  std::remove(victim.c_str());
}

// ---------------------------------------------------------------------
// Legacy v1 files
// ---------------------------------------------------------------------

TEST_F(FaultInjectionTest, LegacyV1FileIsRejectedWithTypedError) {
  // The unframed v1 stream opened with its length-prefixed tag; the
  // format is no longer read, and both entry points say so by name.
  const std::string v1_path = testing::TempDir() + "/wym_fault_legacy." +
                              std::to_string(::getpid()) + ".wym";
  ASSERT_TRUE(io::WriteFileAtomic(v1_path, "12 wym-model/v1\n1\n1\n").ok());

  const auto loaded = core::WymModel::LoadFromFile(v1_path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption);
  EXPECT_EQ(loaded.status().message(),
            "unsupported legacy v1 model file: " + v1_path);

  std::string summary;
  const Status verified = core::WymModel::VerifyFile(v1_path, &summary);
  EXPECT_EQ(verified.code(), Status::Code::kCorruption);
  EXPECT_EQ(verified.message(),
            "unsupported legacy v1 model file: " + v1_path);
  std::remove(v1_path.c_str());
}

// ---------------------------------------------------------------------
// CRC-valid files whose scorer network has inconsistent shapes
// ---------------------------------------------------------------------

/// A hand-built mlp/v1 network: one (rows x cols) layer per entry,
/// weights 0.01, biases 0.
std::string MlpPayload(uint64_t input_dim,
                       const std::vector<std::pair<size_t, size_t>>& layers) {
  std::ostringstream out;
  serde::Serializer s(&out);
  s.Tag("mlp/v1");
  s.Bool(true);  // fitted
  s.Bool(true);  // clamp_output
  s.U64(input_dim);
  s.U64(layers.size());
  for (const auto& [rows, cols] : layers) {
    la::Matrix(rows, cols, 0.01).Save(&s);
    s.VecF64(std::vector<double>(rows, 0.0));
  }
  return out.str();
}

/// `clean` with section `name` replaced by `payload`. Every checksum is
/// recomputed, so only the loader's own checks stand between the
/// payload and the pipeline.
std::string WithSection(const std::string& clean, const std::string& name,
                        const std::string& payload) {
  const std::string magic = clean.substr(0, clean.find(' '));
  uint32_t version = 0;
  std::vector<io::FileFrame> frames;
  EXPECT_TRUE(io::DecodeFramedFile(clean, magic,
                                   std::numeric_limits<uint32_t>::max(),
                                   &version, &frames)
                  .ok());
  size_t replaced = 0;
  for (io::FileFrame& frame : frames) {
    if (frame.name != name) continue;
    frame.payload = payload;
    ++replaced;
  }
  EXPECT_EQ(replaced, 1u);
  return io::EncodeFramedFile(magic, version, frames);
}

/// `clean` with its scorer section replaced by a neural scorer carrying
/// `network`.
std::string WithScorerNetwork(const std::string& clean,
                              const std::string& network) {
  std::ostringstream scorer;
  serde::Serializer s(&scorer);
  s.Tag("scorer/v1");
  s.U64(0);  // ScorerKind::kNeural
  s.F64(0.55);
  s.F64(0.45);
  s.Bool(true);  // fitted
  s.Bool(true);  // has a network
  scorer << network;
  return WithSection(clean, "scorer", scorer.str());
}

TEST_F(FaultInjectionTest, ScorerNetworkShapesAreCheckedOnLoad) {
  const size_t width = 2 * suite_->model.encoder().dim();
  const std::string path = suite_->path + ".shapes";
  const auto load = [&](const std::string& network) {
    EXPECT_TRUE(io::WriteFileAtomic(
                    path, WithScorerNetwork(suite_->clean_bytes, network))
                    .ok());
    // The checksums hold: only deserialization can catch the payload.
    EXPECT_TRUE(core::WymModel::VerifyFile(path, nullptr).ok());
    return core::WymModel::LoadFromFile(path);
  };

  // A connected network of the right width loads and predicts.
  auto sound = load(MlpPayload(width, {{3, width}, {1, 3}}));
  ASSERT_TRUE(sound.ok()) << sound.status().ToString();
  EXPECT_EQ(sound.value().PredictProbaBatch(suite_->split.test).size(),
            suite_->split.test.size());

  // Layer 0 narrower than the declared input: the forward pass would
  // read past each weight row.
  auto narrow = load(MlpPayload(width, {{3, width - 1}, {1, 3}}));
  ASSERT_FALSE(narrow.ok());
  EXPECT_EQ(narrow.status().code(), Status::Code::kCorruption);
  EXPECT_EQ(narrow.status().message(),
            "bad scorer state in section 'scorer': " + path);

  // A broken chain and a fan-out at the top are the same failure.
  EXPECT_EQ(load(MlpPayload(width, {{3, width}, {1, 2}})).status().code(),
            Status::Code::kCorruption);
  EXPECT_EQ(load(MlpPayload(width, {{3, width}, {2, 3}})).status().code(),
            Status::Code::kCorruption);

  // Self-consistent, but not 2 x the encoder dim.
  auto mismatched = load(MlpPayload(width - 2, {{3, width - 2}, {1, 3}}));
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), Status::Code::kCorruption);
  EXPECT_EQ(mismatched.status().message(),
            "scorer input width " + std::to_string(width - 2) +
                " does not match 2 x encoder dim " +
                std::to_string(width / 2) + ": " + path);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// CRC-valid files whose encoder section has inconsistent shapes
// ---------------------------------------------------------------------

/// A hand-built encoder/v1 section. The encoder's own options come
/// first; `cooc_vector_dim` is the width the cooc table declares and
/// stores (two tokens), and `calibrator_weights` the calibrator's
/// weight count.
struct EncoderSection {
  uint64_t mode = 2;  // EncoderMode::kSiamese
  uint64_t hash_dim = 32;
  uint64_t cooc_dim = 16;
  uint64_t numeric_dims = 8;
  uint64_t cooc_vector_dim = 16;
  size_t calibrator_weights = 56;

  std::string Payload() const {
    std::ostringstream out;
    serde::Serializer s(&out);
    s.Tag("encoder/v1");
    s.U64(mode);
    s.U64(hash_dim);
    s.U64(cooc_dim);
    s.U64(numeric_dims);
    s.F64(0.3);   // blend
    s.F64(0.25);  // temperature
    s.U64(0xE11C0DE);
    s.Bool(true);  // fitted
    s.Tag("cooc/v1");
    s.Bool(true);
    s.U64(cooc_vector_dim);
    s.U64(2);
    for (int token = 0; token < 2; ++token) {
      std::vector<float> v(cooc_vector_dim, 0.0f);
      if (!v.empty()) v[token % v.size()] = 1.0f;
      s.VecF32(v);
    }
    s.Str("camera");
    s.Str("lens");
    s.Tag("siamese/v1");
    s.Bool(true);
    s.VecF32(std::vector<float>(calibrator_weights, 1.0f));
    return out.str();
  }
};

TEST_F(FaultInjectionTest, EncoderShapesAreCheckedOnLoad) {
  ASSERT_EQ(suite_->model.encoder().dim(), 56u);
  const std::string path = suite_->path + ".encoder";
  const auto load = [&](const EncoderSection& section) {
    EXPECT_TRUE(io::WriteFileAtomic(path, WithSection(suite_->clean_bytes,
                                                      "encoder",
                                                      section.Payload()))
                    .ok());
    EXPECT_TRUE(core::WymModel::VerifyFile(path, nullptr).ok());
    return core::WymModel::LoadFromFile(path);
  };
  const auto rejected = [&](const EncoderSection& section) {
    auto loaded = load(section);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption);
    EXPECT_EQ(loaded.status().message(),
              "bad encoder state in section 'encoder': " + path);
  };

  // Consistent shapes load and predict, the two cooc tokens from the
  // frozen memo tier.
  auto sound = load(EncoderSection{});
  ASSERT_TRUE(sound.ok()) << sound.status().ToString();
  EXPECT_EQ(sound.value().encoder().frozen_vocabulary_size(), 2u);
  EXPECT_EQ(sound.value().PredictProbaBatch(suite_->split.test).size(),
            suite_->split.test.size());

  // cooc_dim 24 over cooc vectors of 8 (dim() still 56): BaseEmbed
  // would read 16 floats past every cooc vector.
  EncoderSection wide_cooc;
  wide_cooc.hash_dim = 24;
  wide_cooc.cooc_dim = 24;
  wide_cooc.cooc_vector_dim = 8;
  rejected(wide_cooc);

  // Calibrator weights that do not cover a token row.
  EncoderSection short_weights;
  short_weights.calibrator_weights = 55;
  rejected(short_weights);

  // A mode past kSiamese.
  EncoderSection bad_mode;
  bad_mode.mode = 7;
  rejected(bad_mode);

  // One numeracy channel: its center would be 0/0.
  EncoderSection one_channel;
  one_channel.hash_dim = 39;
  one_channel.numeric_dims = 1;
  rejected(one_channel);

  // A dim no encoder could allocate rows of.
  EncoderSection huge;
  huge.hash_dim = uint64_t{1} << 40;
  rejected(huge);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// CRC-valid files whose schema or matcher widths disagree
// ---------------------------------------------------------------------

/// A hand-built wym-config/v2 section: `config`'s fields and
/// `num_attributes`, with no pairing rules.
std::string ConfigPayload(const core::WymConfig& config,
                          uint64_t num_attributes) {
  std::ostringstream out;
  serde::Serializer s(&out);
  s.Tag("wym-config/v2");
  s.Bool(config.tokenizer.lowercase);
  s.Bool(config.tokenizer.remove_stopwords);
  s.U64(config.tokenizer.min_token_length);
  s.F64(config.generator.theta);
  s.F64(config.generator.eta);
  s.F64(config.generator.epsilon);
  s.U64(static_cast<uint64_t>(config.generator.similarity));
  s.U64(0);  // pairing rules
  s.Bool(config.simplified_features);
  s.Str(config.classifier);
  s.U64(num_attributes);
  return out.str();
}

/// A hand-built matcher/v1 section over the full feature set of
/// `num_attributes` attributes, with an LR classifier. The scaler spans
/// `scaler_width` features; every other vector spans the feature row.
std::string MatcherPayload(uint64_t num_attributes, size_t scaler_width,
                           bool scaler_fitted = true) {
  const size_t dim = core::FeatureExtractor(num_attributes).dim();
  std::ostringstream out;
  serde::Serializer s(&out);
  s.Tag("matcher/v1");
  s.U64(num_attributes);
  s.Bool(false);  // simplified
  s.Bool(true);   // fitted
  s.Tag("scaler/v1");
  s.Bool(scaler_fitted);
  s.VecF64(std::vector<double>(scaler_width, 0.0));
  s.VecF64(std::vector<double>(scaler_width, 1.0));
  s.Str("LR");
  s.Tag("lr/v1");
  s.VecF64(std::vector<double>(dim, 0.01));
  s.F64(0.0);  // bias
  s.F64(0.9);  // validation F1
  s.F64(0.5);  // threshold
  s.VecF64(std::vector<double>(dim, 0.01));
  return out.str();
}

TEST_F(FaultInjectionTest, MatcherWidthsAreCheckedOnLoad) {
  const core::WymConfig& config = suite_->model.config();
  const size_t width = suite_->model.num_attributes();
  const size_t dim = core::FeatureExtractor(width).dim();
  const std::string path = suite_->path + ".matcher";
  const auto load = [&](uint64_t config_width, const std::string& matcher) {
    const std::string bytes =
        WithSection(WithSection(suite_->clean_bytes, "config",
                                ConfigPayload(config, config_width)),
                    "matcher", matcher);
    EXPECT_TRUE(io::WriteFileAtomic(path, bytes).ok());
    // The checksums hold: only deserialization can catch the payload.
    EXPECT_TRUE(core::WymModel::VerifyFile(path, nullptr).ok());
    return core::WymModel::LoadFromFile(path);
  };
  const auto rejected = [&](uint64_t config_width, const std::string& matcher,
                            const std::string& section) {
    auto loaded = load(config_width, matcher);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption);
    EXPECT_EQ(loaded.status().message(),
              section == "config"
                  ? "bad config section: " + path
                  : "bad matcher state in section 'matcher': " + path);
  };

  // Consistent widths load and predict.
  auto sound = load(width, MatcherPayload(width, dim));
  ASSERT_TRUE(sound.ok()) << sound.status().ToString();
  EXPECT_EQ(sound.value().PredictProbaBatch(suite_->split.test).size(),
            suite_->split.test.size());

  // A scaler one feature short: TransformRow would abort on the first
  // prediction. An unfitted scaler would too.
  rejected(width, MatcherPayload(width, dim - 1), "matcher");
  rejected(width, MatcherPayload(width, dim, /*scaler_fitted=*/false),
           "matcher");

  // A matcher one attribute wider than the config: each consistent on
  // its own, but the extractor would not fit the tokenized records.
  rejected(width, MatcherPayload(width + 1,
                                 core::FeatureExtractor(width + 1).dim()),
           "matcher");

  // A config width past the cap: the extractor and serve's pair
  // normalization would size themselves by it.
  rejected(uint64_t{1} << 40, MatcherPayload(width, dim), "config");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// CSV reader under injected faults
// ---------------------------------------------------------------------

TEST_F(FaultInjectionTest, TruncatedCsvReadIsReportedNotCrashed) {
  const std::string csv_path = testing::TempDir() + "/wym_fault_data.csv";
  ASSERT_TRUE(data::WriteDatasetCsv(suite_->split.test, csv_path).ok());
  std::string csv_bytes;
  ASSERT_TRUE(io::ReadFileToString(csv_path, &csv_bytes).ok());

  // Cut mid-row (not at a line boundary): the torn last row must be
  // reported as a parse failure with file:line, not silently dropped.
  const size_t last_newline = csv_bytes.find_last_of('\n', csv_bytes.size() - 2);
  ASSERT_NE(last_newline, std::string::npos);
  io::FaultInjector injector;
  injector.ShortRead(last_newline + 3);
  io::ScopedFaultInjector scope(&injector);
  const auto torn = data::ReadDatasetCsv(csv_path, "test.csv");
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.status().code(), Status::Code::kCorruption);
  EXPECT_NE(torn.status().message().find("test.csv:"), std::string::npos)
      << torn.status().ToString();
  std::remove(csv_path.c_str());
}

// ---------------------------------------------------------------------
// Batch-prediction quarantine (graceful degradation)
// ---------------------------------------------------------------------

TEST_F(FaultInjectionTest, DegenerateRecordsAreQuarantinedNotFatal) {
  // A record with empty descriptions tokenizes to zero tokens on both
  // sides, so it has no decision units to decide on: every entry point
  // gives it the non-match fallback instead of a classifier guess.
  data::Dataset poisoned = suite_->split.test;
  const size_t width = poisoned.schema.size();
  data::EmRecord degenerate;
  degenerate.label = 0;
  degenerate.left.values.assign(width, "");
  degenerate.right.values.assign(width, "");
  poisoned.records.insert(poisoned.records.begin() + 1, degenerate);

  core::PredictionReport report;
  const std::vector<double> probas =
      suite_->model.PredictProbaBatch(poisoned, &report);
  ASSERT_EQ(probas.size(), poisoned.size());
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].index, 1u);
  EXPECT_NE(report.quarantined[0].reason.find("zero tokens"),
            std::string::npos);
  EXPECT_EQ(report.predicted, poisoned.size() - 1);
  EXPECT_FALSE(report.clean());

  // The quarantined slot gets the non-match fallback; every healthy
  // record predicts exactly as it does without the poison pill.
  EXPECT_EQ(probas[1], 0.0);
  EXPECT_DOUBLE_EQ(probas[0], suite_->clean_probas[0]);
  for (size_t i = 2; i < probas.size(); ++i) {
    EXPECT_DOUBLE_EQ(probas[i], suite_->clean_probas[i - 1]);
  }

  // ExplainBatch quarantines the same record with an empty explanation.
  core::PredictionReport explain_report;
  const std::vector<core::Explanation> explanations =
      suite_->model.ExplainBatch(poisoned, &explain_report);
  ASSERT_EQ(explanations.size(), poisoned.size());
  ASSERT_EQ(explain_report.quarantined.size(), 1u);
  EXPECT_TRUE(explanations[1].units.empty());
  EXPECT_EQ(explanations[1].probability, 0.0);
  EXPECT_EQ(explanations[1].prediction, 0);
  for (size_t i = 2; i < explanations.size(); ++i) {
    EXPECT_EQ(explanations[i].probability, suite_->clean_probas[i - 1]);
  }
}

// ---------------------------------------------------------------------
// Failure paths feed the obs metrics registry (DESIGN.md
// "Observability"): every detected fault leaves an audit trail in a
// counter, so production runs can alarm on nonzero deltas.
// ---------------------------------------------------------------------

TEST_F(FaultInjectionTest, CorruptionLoadIncrementsCounter) {
  obs::Counter& corruption =
      obs::Registry::Global().GetCounter("io.corruption_detected");
  const std::uint64_t before = corruption.Value();

  io::FaultInjector injector;
  injector.FlipBit(suite_->clean_bytes.size() * 4);  // Mid-file payload.
  io::ScopedFaultInjector scope(&injector);
  const auto loaded = core::WymModel::LoadFromFile(suite_->path);
  ASSERT_FALSE(loaded.ok());

  EXPECT_GT(corruption.Value(), before)
      << "corrupted load left io.corruption_detected untouched";
}

TEST_F(FaultInjectionTest, CsvQuarantineIncrementsCounter) {
  obs::Counter& quarantined =
      obs::Registry::Global().GetCounter("csv.rows_quarantined");
  const std::uint64_t before = quarantined.Value();

  // Two damaged rows in an otherwise healthy file.
  std::string csv = data::DatasetToCsv(suite_->split.test);
  csv += "torn,row\n";
  csv += "\"unterminated quote\n";
  data::CsvOptions options;
  options.quarantine = true;
  data::CsvReport report;
  const auto parsed = data::DatasetFromCsv(csv, "poisoned.csv", options,
                                           &report);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_GE(report.rows_quarantined, 2u);

  EXPECT_EQ(quarantined.Value() - before, report.rows_quarantined)
      << "csv.rows_quarantined must track CsvReport exactly";
}

TEST_F(FaultInjectionTest, PredictQuarantineIncrementsCounter) {
  obs::Counter& quarantined =
      obs::Registry::Global().GetCounter("predict.records_quarantined");
  obs::Counter& records =
      obs::Registry::Global().GetCounter("predict.records");
  const std::uint64_t quarantined_before = quarantined.Value();
  const std::uint64_t records_before = records.Value();

  data::Dataset poisoned = suite_->split.test;
  data::EmRecord degenerate;
  degenerate.label = 0;
  degenerate.left.values.assign(poisoned.schema.size(), "");
  degenerate.right.values.assign(poisoned.schema.size(), "");
  poisoned.records.push_back(degenerate);

  core::PredictionReport report;
  (void)suite_->model.PredictProbaBatch(poisoned, &report);
  ASSERT_EQ(report.quarantined.size(), 1u);

  EXPECT_EQ(quarantined.Value() - quarantined_before, 1u);
  EXPECT_EQ(records.Value() - records_before, poisoned.size());
}

TEST_F(FaultInjectionTest, CleanDatasetReportsClean) {
  core::PredictionReport report;
  const std::vector<double> probas =
      suite_->model.PredictProbaBatch(suite_->split.test, &report);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.predicted, suite_->split.test.size());
  ASSERT_EQ(probas.size(), suite_->clean_probas.size());
  for (size_t i = 0; i < probas.size(); ++i) {
    EXPECT_DOUBLE_EQ(probas[i], suite_->clean_probas[i]);
  }
}

}  // namespace
}  // namespace wym
