#include "core/wym.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/framed_file.h"
#include "util/io.h"
#include "util/logging.h"

namespace wym::core {

namespace {

/// Model-file format v2 container identity (util/framed_file.h).
constexpr char kModelMagic[] = "WYM2";
constexpr uint32_t kModelFormatVersion = 1;

/// Section names of the v2 container, in write order.
constexpr char kSectionConfig[] = "config";
constexpr char kSectionEncoder[] = "encoder";
constexpr char kSectionScorer[] = "scorer";
constexpr char kSectionMatcher[] = "matcher";

/// Serialized prefix of a legacy (format v1) model stream: the
/// length-prefixed "wym-model/v1" tag the v1 writer put first.
constexpr char kLegacyPrefix[] = "12 wym-model/v1";

/// Rejects anything that is not a framed v2 model file, naming legacy
/// v1 files (unframed, unchecksummed, no longer supported) explicitly.
Status CheckModelHeader(const std::string& bytes, const std::string& path) {
  if (io::LooksFramed(bytes, kModelMagic)) return Status::Ok();
  if (bytes.compare(0, sizeof(kLegacyPrefix) - 1, kLegacyPrefix) == 0) {
    return Status::Corruption("unsupported legacy v1 model file: " + path);
  }
  return Status::Corruption("not a WYM model file: " + path);
}

const std::string* FindFrame(const std::vector<io::FileFrame>& frames,
                             const char* name) {
  for (const io::FileFrame& frame : frames) {
    if (frame.name == name) return &frame.payload;
  }
  return nullptr;
}

}  // namespace

std::vector<size_t> Explanation::RankByImpactMagnitude() const {
  std::vector<size_t> order(units.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    return std::fabs(units[a].impact) > std::fabs(units[b].impact);
  });
  return order;
}

WymModel::WymModel(WymConfig config)
    : config_(std::move(config)),
      tokenizer_(config_.tokenizer),
      encoder_(config_.encoder),
      generator_(config_.generator),
      scorer_(config_.scorer),
      matcher_(0, config_.simplified_features) {}

void WymModel::Fit(const data::Dataset& train,
                   const data::Dataset& validation) {
  WYM_CHECK_GT(train.size(), 0u) << "empty training set";
  obs::SpanScope fit_span("fit");
  {
    static obs::Counter& records =
        obs::Registry::Global().GetCounter("fit.records");
    records.Add(train.size());
  }
  num_attributes_ = train.schema.size();

  // Rebuild stateful components so Fit is idempotent.
  encoder_ = embedding::SemanticEncoder(config_.encoder);
  scorer_ = RelevanceScorer(config_.scorer);
  ExplainableMatcherOptions matcher_options;
  matcher_options.classifier = config_.classifier;
  matcher_options.seed = config_.seed;
  matcher_ = ExplainableMatcher(num_attributes_, config_.simplified_features,
                                matcher_options);

  // 1. Tokenize the training corpus and fit the encoder on it. Records
  // tokenize independently; results are written by record index so the
  // corpus order matches the sequential loop exactly.
  std::vector<TokenizedRecord> train_tokens(train.size());
  std::vector<std::vector<std::string>> corpus(2 * train.size());
  {
    obs::SpanScope span("fit.tokenize");
    util::ParallelFor(
        train.size(), /*grain=*/16, [&](size_t begin, size_t end, size_t) {
          for (size_t i = begin; i < end; ++i) {
            TokenizedRecord tokenized =
                TokenizeRecord(train.records[i], train.schema, tokenizer_);
            corpus[2 * i] = tokenized.left.tokens;
            corpus[2 * i + 1] = tokenized.right.tokens;
            train_tokens[i] = std::move(tokenized);
          }
        });
  }
  {
    obs::SpanScope span("fit.encoder_fit");
    encoder_.Fit(corpus);
  }

  // 2. Encode; then (kSiamese) calibrate on pooled pair embeddings and
  // re-encode with the calibrated metric.
  auto encode_all = [this](std::vector<TokenizedRecord>* records) {
    util::ParallelFor(
        records->size(), /*grain=*/8, [&](size_t begin, size_t end, size_t) {
          for (size_t i = begin; i < end; ++i) {
            EncodeEntity(encoder_, &(*records)[i].left);
            EncodeEntity(encoder_, &(*records)[i].right);
          }
        });
  };
  {
    obs::SpanScope span("fit.encode");
    encode_all(&train_tokens);
  }
  if (config_.encoder.mode == embedding::EncoderMode::kSiamese) {
    obs::SpanScope span("fit.siamese_calibrate");
    std::vector<std::pair<la::Vec, la::Vec>> pairs;
    std::vector<int> labels;
    for (const auto& record : train_tokens) {
      if (!record.left.HasEmbeddings() || !record.right.HasEmbeddings()) {
        continue;
      }
      const auto pool = [](const TokenizedEntity& entity) {
        return embedding::SemanticEncoder::PoolTokens(
            entity.raw_embeddings.data(), entity.size(), entity.embedding_dim);
      };
      pairs.emplace_back(pool(record.left), pool(record.right));
      labels.push_back(record.label);
    }
    encoder_.FitSiamese(pairs, labels);
    encode_all(&train_tokens);  // Calibration changes the vectors.
  }

  // 3. Discover decision units (Algorithm 1) on every training record.
  std::vector<std::vector<DecisionUnit>> train_units(train_tokens.size());
  {
    obs::SpanScope span("fit.unit_generation");
    util::ParallelFor(
        train_tokens.size(), /*grain=*/8,
        [&](size_t begin, size_t end, size_t) {
          for (size_t i = begin; i < end; ++i) {
            train_units[i] = generator_.Generate(
                train_tokens[i].left, train_tokens[i].right, num_attributes_);
          }
        });
  }

  // 4. Fit the relevance scorer (Eq. 2/3 targets).
  {
    obs::SpanScope span("fit.scorer_fit");
    scorer_.Fit(train_tokens, train_units);
  }

  // 5. Score units and extract features for train + validation.
  auto scored_sets = [&](const std::vector<TokenizedRecord>& records,
                         const std::vector<std::vector<DecisionUnit>>& units) {
    std::vector<ScoredUnitSet> sets(records.size());
    util::ParallelFor(
        records.size(), /*grain=*/8, [&](size_t begin, size_t end, size_t) {
          for (size_t i = begin; i < end; ++i) {
            sets[i].units = units[i];
            sets[i].scores = scorer_.Score(records[i], units[i]);
          }
        });
    return sets;
  };
  std::vector<ScoredUnitSet> train_sets;
  {
    obs::SpanScope span("fit.score_units");
    train_sets = scored_sets(train_tokens, train_units);
  }

  std::vector<TokenizedRecord> val_tokens(validation.size());
  std::vector<std::vector<DecisionUnit>> val_units(validation.size());
  std::vector<ScoredUnitSet> val_sets;
  {
    obs::SpanScope span("fit.validation_prepare");
    util::ParallelFor(
        validation.size(), /*grain=*/8, [&](size_t begin, size_t end, size_t) {
          for (size_t i = begin; i < end; ++i) {
            TokenizedRecord tokenized =
                TokenizeRecord(validation.records[i], validation.schema,
                               tokenizer_);
            EncodeEntity(encoder_, &tokenized.left);
            EncodeEntity(encoder_, &tokenized.right);
            val_units[i] = generator_.Generate(tokenized.left, tokenized.right,
                                               num_attributes_);
            val_tokens[i] = std::move(tokenized);
          }
        });
    val_sets = scored_sets(val_tokens, val_units);
  }

  // 6. Train the classifier pool and select by validation F1.
  {
    obs::SpanScope span("fit.classifier_fit");
    matcher_.Fit(train_sets, train.Labels(), val_sets, validation.Labels());
  }
  fitted_ = true;
}

TokenizedRecord WymModel::Prepare(const data::EmRecord& record) const {
  WYM_CHECK(fitted_) << "WymModel used before Fit";
  TokenizedRecord tokenized;
  PrepareEntity(record.left, &tokenized.left);
  PrepareEntity(record.right, &tokenized.right);
  tokenized.label = record.label;
  return tokenized;
}

void WymModel::PrepareEntity(const data::Entity& entity,
                             TokenizedEntity* out) const {
  *out = TokenizeEntity(entity, num_attributes_, tokenizer_);
  EncodeEntity(encoder_, out);
}

std::vector<DecisionUnit> WymModel::GenerateUnits(
    const TokenizedRecord& record) const {
  return generator_.Generate(record.left, record.right, num_attributes_);
}

std::vector<double> WymModel::ScoreUnits(
    const TokenizedRecord& record,
    const std::vector<DecisionUnit>& units) const {
  return scorer_.Score(record, units);
}

double WymModel::PredictProbaFromUnits(const ScoredUnitSet& set) const {
  const double proba = matcher_.PredictProba(set);
  // Matcher stage boundary: probabilities must be finite (the classifier
  // pool squashes through a logistic, so NaN means poisoned features).
  WYM_DCHECK(std::isfinite(proba)) << "non-finite match probability";
  return proba;
}

Explanation WymModel::ExplainRecord(const TokenizedRecord& tokenized,
                                    bool with_units,
                                    std::string* reason) const {
  // Zero tokens on both sides means zero decision units: nothing to
  // decide on, so the record gets the non-match fallback.
  if (tokenized.left.tokens.empty() && tokenized.right.tokens.empty()) {
    if (reason != nullptr) {
      *reason = "zero tokens on both sides after tokenization";
    }
    return {};
  }
  ScoredUnitSet set;
  set.units = GenerateUnits(tokenized);
  set.scores = ScoreUnits(tokenized, set.units);
  // Scorer stage boundary: relevance scores feed both the matcher and
  // the ranked explanation, so a NaN here corrupts both.
  WYM_DCHECK_FINITE(set.scores.data(), set.scores.size())
      << "non-finite unit relevance score";

  Explanation out;
  out.probability = PredictProbaFromUnits(set);
  if (!std::isfinite(out.probability)) {
    if (reason != nullptr) *reason = "non-finite match probability";
    return {};  // Non-match fallback; reported, never NaN.
  }
  out.prediction = out.probability >= 0.5 ? 1 : 0;
  if (!with_units) return out;
  const std::vector<double> impacts = matcher_.UnitImpacts(set);
  out.units.reserve(set.size());
  for (size_t u = 0; u < set.size(); ++u) {
    out.units.push_back({set.units[u], set.scores[u], impacts[u]});
  }
  return out;
}

double WymModel::PredictProba(const data::EmRecord& record) const {
  return ExplainRecord(Prepare(record), /*with_units=*/false, nullptr)
      .probability;
}

Explanation WymModel::Explain(const data::EmRecord& record) const {
  return ExplainRecord(Prepare(record), /*with_units=*/true, nullptr);
}

namespace {

/// Span and metric names of one batch API.
struct BatchMetrics {
  const char* batch_span;
  const char* record_span;
  obs::Histogram& record_ns;
  obs::Counter& records;
  obs::Counter& quarantined;
};

/// `explain.*` or `predict.*`, registered on first use.
const BatchMetrics& BatchMetricsFor(bool explain) {
  obs::Registry& registry = obs::Registry::Global();
  if (explain) {
    static const BatchMetrics metrics{
        "explain.batch", "explain.record",
        registry.GetHistogram("explain.record_ns"),
        registry.GetCounter("explain.records"),
        registry.GetCounter("explain.records_quarantined")};
    return metrics;
  }
  static const BatchMetrics metrics{
      "predict.batch", "predict.record",
      registry.GetHistogram("predict.record_ns"),
      registry.GetCounter("predict.records"),
      registry.GetCounter("predict.records_quarantined")};
  return metrics;
}

/// Compacts per-index quarantine reasons (collected in parallel, by
/// index, so the result is deterministic) into the report.
void FillReport(const std::vector<std::string>& reasons,
                PredictionReport* report) {
  if (report == nullptr) return;
  *report = PredictionReport{};
  for (size_t i = 0; i < reasons.size(); ++i) {
    if (reasons[i].empty()) {
      ++report->predicted;
    } else {
      report->quarantined.push_back({i, reasons[i]});
    }
  }
}

/// Bumps the batch-level counters from the per-index reason vector —
/// after the parallel loop, so counting never touches the hot path.
void CountBatch(const std::vector<std::string>& reasons,
                const BatchMetrics& metrics) {
  if (!obs::MetricsEnabled()) return;
  metrics.records.Add(reasons.size());
  size_t bad = 0;
  for (const std::string& reason : reasons) {
    if (!reason.empty()) ++bad;
  }
  if (bad > 0) metrics.quarantined.Add(bad);
}

}  // namespace

std::vector<Explanation> WymModel::ExplainRecords(
    std::span<const data::EmRecord> records, bool with_units,
    PredictionReport* report, util::ThreadPool* pool) const {
  WYM_CHECK(fitted_) << "WymModel used before Fit";
  const BatchMetrics& metrics = BatchMetricsFor(with_units);
  obs::SpanScope batch_span(metrics.batch_span);
  const bool timed = obs::MetricsEnabled();
  std::vector<Explanation> out(records.size());
  std::vector<std::string> reasons(records.size());
  // Consecutive records with equal left values form one run, and a run
  // prepares its left entity once: encoding is a pure function of the
  // tokens, so every record of the run sees the bits its own Prepare
  // would give. Runs are the parallel tasks; results still land by
  // record index.
  std::vector<size_t> run_begin;
  for (size_t i = 0; i < records.size(); ++i) {
    if (i == 0 || records[i].left.values != records[i - 1].left.values) {
      run_begin.push_back(i);
    }
  }
  const size_t runs = run_begin.size();
  run_begin.push_back(records.size());
  util::ParallelFor(
      runs, /*grain=*/1,
      [&](size_t begin, size_t end, size_t) {
        TokenizedRecord tokenized;
        for (size_t run = begin; run < end; ++run) {
          for (size_t i = run_begin[run]; i < run_begin[run + 1]; ++i) {
            obs::SpanScope span(metrics.record_span);
            const std::uint64_t t0 = timed ? obs::NowNanos() : 0;
            if (i == run_begin[run]) {
              PrepareEntity(records[i].left, &tokenized.left);
            }
            PrepareEntity(records[i].right, &tokenized.right);
            tokenized.label = records[i].label;
            out[i] = ExplainRecord(tokenized, with_units, &reasons[i]);
            if (timed) metrics.record_ns.Record(obs::NowNanos() - t0);
          }
        }
      },
      pool);
  FillReport(reasons, report);
  CountBatch(reasons, metrics);
  // One add per batch: a left entity per run, a right entity per record.
  static obs::Counter& entities =
      obs::Registry::Global().GetCounter("explain.entities_prepared");
  entities.Add(runs + records.size());
  return out;
}

std::vector<double> WymModel::PredictProbaBatch(
    std::span<const data::EmRecord> records, PredictionReport* report,
    util::ThreadPool* pool) const {
  const std::vector<Explanation> explained =
      ExplainRecords(records, /*with_units=*/false, report, pool);
  std::vector<double> out(explained.size());
  for (size_t i = 0; i < out.size(); ++i) out[i] = explained[i].probability;
  return out;
}

std::vector<Explanation> WymModel::ExplainBatch(
    std::span<const data::EmRecord> records, PredictionReport* report,
    util::ThreadPool* pool) const {
  return ExplainRecords(records, /*with_units=*/true, report, pool);
}

std::vector<int> WymModel::PredictDataset(const data::Dataset& dataset) const {
  // Chunked through the batch path so per-record scratch stays bounded
  // by the chunk, not the dataset — the same discipline the streaming
  // candidate tier applies on the blocking side.
  constexpr size_t kChunkRecords = 8192;
  const std::span<const data::EmRecord> records(dataset.records);
  std::vector<int> out(records.size());
  for (size_t begin = 0; begin < records.size(); begin += kChunkRecords) {
    const size_t n = std::min(kChunkRecords, records.size() - begin);
    const std::vector<double> probabilities =
        PredictProbaBatch(records.subspan(begin, n));
    for (size_t i = 0; i < probabilities.size(); ++i) {
      out[begin + i] = probabilities[i] >= 0.5 ? 1 : 0;
    }
  }
  return out;
}

namespace {

/// Serializes the config scalars needed to rebuild the stateless
/// components (the "config" section).
void WriteConfigFields(serde::Serializer* s, const WymConfig& config,
                       size_t num_attributes) {
  s->Bool(config.tokenizer.lowercase);
  s->Bool(config.tokenizer.remove_stopwords);
  s->U64(config.tokenizer.min_token_length);
  s->F64(config.generator.theta);
  s->F64(config.generator.eta);
  s->F64(config.generator.epsilon);
  s->U64(static_cast<uint64_t>(config.generator.similarity));
  s->U64(config.generator.rules.size());  // Informational only.
  s->Bool(config.simplified_features);
  s->Str(config.classifier);
  s->U64(num_attributes);
}

/// Reads WriteConfigFields output. `rule_count` and `num_attributes`
/// are returned separately (rules are code, not data).
void ReadConfigFields(serde::Deserializer* d, WymConfig* config,
                      uint64_t* rule_count, uint64_t* num_attributes) {
  config->tokenizer.lowercase = d->Bool();
  config->tokenizer.remove_stopwords = d->Bool();
  config->tokenizer.min_token_length = d->U64();
  config->generator.theta = d->F64();
  config->generator.eta = d->F64();
  config->generator.epsilon = d->F64();
  config->generator.similarity = static_cast<PairingSimilarity>(d->U64());
  *rule_count = d->U64();
  config->simplified_features = d->Bool();
  config->classifier = d->Str();
  *num_attributes = d->U64();
}

Status CheckRuleCount(uint64_t rule_count,
                      const std::vector<PairingRule>& rules) {
  if (rule_count != rules.size()) {
    return Status::InvalidArgument(
        "model was trained with " + std::to_string(rule_count) +
        " pairing rule(s); pass the same rules to LoadFromFile");
  }
  return Status::Ok();
}

}  // namespace

Status WymModel::SaveToFile(const std::string& path) const {
  if (!fitted_) {
    return Status::FailedPrecondition("cannot save an unfitted WymModel");
  }
  // One checksummed frame per pipeline component: damage localizes to a
  // named section, and `wym_cli verify` can audit the file without
  // deserializing any of it.
  std::vector<io::FileFrame> frames;
  const auto add_frame = [&frames](const char* name, auto&& write) {
    std::ostringstream payload;
    serde::Serializer s(&payload);
    write(&s);
    frames.push_back(io::FileFrame{name, payload.str()});
  };
  add_frame(kSectionConfig, [this](serde::Serializer* s) {
    s->Tag("wym-config/v2");
    WriteConfigFields(s, config_, num_attributes_);
  });
  add_frame(kSectionEncoder,
            [this](serde::Serializer* s) { encoder_.Save(s); });
  add_frame(kSectionScorer, [this](serde::Serializer* s) { scorer_.Save(s); });
  add_frame(kSectionMatcher,
            [this](serde::Serializer* s) { matcher_.Save(s); });
  return io::WriteFileAtomic(
             path, io::EncodeFramedFile(kModelMagic, kModelFormatVersion,
                                        frames))
      .Annotate("saving model to " + path);
}

Result<WymModel> WymModel::LoadFromFile(const std::string& path,
                                        std::vector<PairingRule> rules) {
  std::string bytes;
  const Status read = io::ReadFileToString(path, &bytes);
  if (!read.ok()) return read.Annotate("loading model");

  WYM_RETURN_IF_ERROR(CheckModelHeader(bytes, path));

  // Verify the container — structure, per-section CRCs, whole-file
  // trailer — before deserializing anything.
  std::vector<io::FileFrame> frames;
  const Status decoded = io::DecodeFramedFile(
      bytes, kModelMagic, kModelFormatVersion, nullptr, &frames);
  if (!decoded.ok()) return decoded.Annotate("loading model " + path);

  const auto section = [&frames,
                        &path](const char* name) -> Result<const std::string*> {
    const std::string* payload = FindFrame(frames, name);
    if (payload == nullptr) {
      return Status::Corruption("model file missing section '" +
                                std::string(name) + "': " + path);
    }
    return payload;
  };

  auto config_bytes = section(kSectionConfig);
  if (!config_bytes.ok()) return config_bytes.status();
  std::istringstream config_in(*config_bytes.value());
  serde::Deserializer config_reader(&config_in);
  WymConfig config;
  uint64_t rule_count = 0;
  uint64_t num_attributes = 0;
  if (!config_reader.Tag("wym-config/v2")) {
    return Status::Corruption("bad config section tag: " + path);
  }
  ReadConfigFields(&config_reader, &config, &rule_count, &num_attributes);
  if (!config_reader.ok()) {
    return Status::Corruption("bad config section: " + path);
  }
  WYM_RETURN_IF_ERROR(CheckRuleCount(rule_count, rules));
  config.generator.rules = std::move(rules);

  WymModel model(config);
  model.num_attributes_ = num_attributes;
  const auto load_component = [&path](const std::string& payload,
                                      const char* name,
                                      auto&& load) -> Status {
    std::istringstream in(payload);
    serde::Deserializer d(&in);
    if (!load(&d) || !d.ok()) {
      return Status::Corruption("bad " + std::string(name) +
                                " state in section '" + name + "': " + path);
    }
    return Status::Ok();
  };
  auto payload = section(kSectionEncoder);
  if (!payload.ok()) return payload.status();
  WYM_RETURN_IF_ERROR(load_component(
      *payload.value(), kSectionEncoder,
      [&model](serde::Deserializer* d) { return model.encoder_.Load(d); }));
  payload = section(kSectionScorer);
  if (!payload.ok()) return payload.status();
  WYM_RETURN_IF_ERROR(load_component(
      *payload.value(), kSectionScorer,
      [&model](serde::Deserializer* d) { return model.scorer_.Load(d); }));
  // The network reads mean ++ |diff| of two encoder embeddings per unit.
  const nn::Mlp& network = model.scorer_.network();
  if (network.fitted() && network.input_dim() != 2 * model.encoder_.dim()) {
    return Status::Corruption(
        "scorer input width " + std::to_string(network.input_dim()) +
        " does not match 2 x encoder dim " +
        std::to_string(model.encoder_.dim()) + ": " + path);
  }
  payload = section(kSectionMatcher);
  if (!payload.ok()) return payload.status();
  WYM_RETURN_IF_ERROR(load_component(
      *payload.value(), kSectionMatcher,
      [&model](serde::Deserializer* d) { return model.matcher_.Load(d); }));
  // Only a model that validated whole pays for the frozen memo tier.
  model.encoder_.FreezeVocabulary();
  model.fitted_ = true;
  return model;
}

Status WymModel::VerifyFile(const std::string& path, std::string* summary) {
  std::string bytes;
  WYM_RETURN_IF_ERROR(
      io::ReadFileToString(path, &bytes).Annotate("verifying " + path));
  WYM_RETURN_IF_ERROR(CheckModelHeader(bytes, path));
  return io::VerifyFramedFile(bytes, kModelMagic, summary).Annotate(path);
}

}  // namespace wym::core
