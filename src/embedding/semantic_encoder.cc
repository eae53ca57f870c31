#include "embedding/semantic_encoder.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "la/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace wym::embedding {

const char* EncoderModeName(EncoderMode mode) {
  switch (mode) {
    case EncoderMode::kPretrained:
      return "pretrained";
    case EncoderMode::kFineTuned:
      return "finetuned";
    case EncoderMode::kSiamese:
      return "siamese";
  }
  return "unknown";
}

namespace {

/// Largest output dimension SemanticEncoder::Load accepts.
constexpr size_t kMaxDim = size_t{1} << 16;

CoocEmbedder::Options WithDim(CoocEmbedder::Options options, size_t dim,
                              uint64_t seed) {
  options.dim = dim;
  options.seed = seed;
  return options;
}

}  // namespace

SemanticEncoder::SemanticEncoder(Options options)
    : options_(options),
      hash_(options.hash_dim, options.seed ^ 0x9a5f0000ull),
      cooc_(WithDim(options.cooc, options.cooc_dim, options.seed ^ 0xC0C0ull)),
      mixer_(options.context),
      calibrator_(options.siamese) {}

void SemanticEncoder::Fit(
    const std::vector<std::vector<std::string>>& sentences) {
  if (options_.mode != EncoderMode::kPretrained) {
    cooc_.Fit(sentences);
  }
  cache_.Clear();  // Fitting the cooc table changes BaseEmbed output.
  fitted_ = true;
  FreezeVocabulary();
}

void SemanticEncoder::FreezeVocabulary() {
  const std::vector<std::string> vocabulary = cooc_.KeptTokens();
  const size_t d = dim();
  la::Vec rows(vocabulary.size() * d);
  for (size_t k = 0; k < vocabulary.size(); ++k) {
    const la::Vec row = BaseEmbed(vocabulary[k]);
    std::copy(row.begin(), row.end(), rows.begin() + k * d);
  }
  vocabulary_rows_ = std::move(rows);
}

bool SemanticEncoder::BaseRow(const std::string& token, float* row) const {
  const size_t d = dim();
  const int32_t kept = vocabulary_rows_.empty() ? -1 : cooc_.KeptId(token);
  if (kept >= 0) {
    const float* frozen = vocabulary_rows_.data() + kept * d;
    std::copy(frozen, frozen + d, row);
    return true;
  }
  thread_local la::Vec cached;
  if (!cache_.Lookup(token, &cached)) {
    cached = BaseEmbed(token);
    cache_.Insert(token, cached);
  }
  std::copy(cached.begin(), cached.end(), row);
  return false;
}

void SemanticEncoder::FitSiamese(
    const std::vector<std::pair<la::Vec, la::Vec>>& pairs,
    const std::vector<int>& labels) {
  WYM_CHECK(fitted_) << "FitSiamese before Fit";
  if (options_.mode != EncoderMode::kSiamese) return;
  calibrator_.Fit(pairs, labels);
}

la::Vec SemanticEncoder::BaseEmbed(const std::string& token) const {
  la::Vec out = la::Zeros(dim());

  // Numeracy block: a radial basis over the log10 magnitude of numeric
  // tokens. Two numbers within a few percent of each other activate
  // nearly identical channels; numbers an order of magnitude apart do
  // not. The subword block is kept (down-weighted) so equal numeric
  // strings still beat merely-close ones.
  bool is_numeric = false;
  if (options_.numeric_dims > 0 && !token.empty()) {
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != nullptr && *end == '\0') {
      is_numeric = true;
      const double magnitude = std::log10(std::fabs(value) + 1.0);
      const size_t n = options_.numeric_dims;
      const size_t base = options_.hash_dim + options_.cooc_dim;
      constexpr double kMaxMagnitude = 6.0;
      constexpr double kWidth = 0.8;
      for (size_t k = 0; k < n; ++k) {
        const double center =
            kMaxMagnitude * static_cast<double>(k) /
            static_cast<double>(n - 1);
        const double distance = (magnitude - center) / kWidth;
        out[base + k] =
            static_cast<float>(1.2 * std::exp(-0.5 * distance * distance));
      }
    }
  }

  const la::Vec h = hash_.Embed(token);
  const float hash_weight = is_numeric ? 0.6f : 1.0f;
  for (size_t i = 0; i < options_.hash_dim; ++i) {
    out[i] = hash_weight * h[i];
  }
  if (!is_numeric && options_.mode != EncoderMode::kPretrained &&
      cooc_.fitted()) {
    const la::Vec c = cooc_.Embed(token);
    // Distributional block slightly down-weighted: the syntactic block
    // must dominate for near-identical strings.
    for (size_t i = 0; i < options_.cooc_dim; ++i) {
      out[options_.hash_dim + i] = 0.8f * c[i];
    }
  }
  la::Normalize(&out);
  return out;
}

la::Vec SemanticEncoder::EncodeTokenIsolated(const std::string& token) const {
  WYM_CHECK(fitted_) << "SemanticEncoder used before Fit";
  la::Vec out(dim());
  BaseRow(token, out.data());
  return out;
}

la::Vec SemanticEncoder::EncodeTokens(
    const std::vector<std::string>& tokens) const {
  WYM_CHECK(fitted_) << "SemanticEncoder used before Fit";
  const size_t n = tokens.size();
  const size_t d = dim();
  thread_local la::Vec base;
  base.resize(n * d);
  size_t misses = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!BaseRow(tokens[i], base.data() + i * d)) ++misses;
  }
  // One relaxed add per entity, never per token.
  static obs::Counter& lookups_counter =
      obs::Registry::Global().GetCounter("embedding.token_memo_lookups");
  static obs::Counter& misses_counter =
      obs::Registry::Global().GetCounter("embedding.token_memo_misses");
  lookups_counter.Add(n);
  if (misses > 0) misses_counter.Add(misses);

  la::Vec mixed(n * d);
  {
    obs::SpanScope span("encoder.context_mix");
    mixer_.Mix(base.data(), n, d, mixed.data());
  }
  if (options_.mode == EncoderMode::kSiamese && calibrator_.fitted()) {
    for (size_t i = 0; i < n; ++i) calibrator_.Apply(mixed.data() + i * d, d);
  }
  // Encoder stage boundary: a NaN/Inf in an embedding would silently
  // poison every downstream similarity; abort here under debug checks.
  WYM_DCHECK_FINITE(mixed.data(), mixed.size()) << "non-finite token embedding";
  return mixed;
}

la::Vec SemanticEncoder::EncodePooled(
    const std::vector<std::string>& tokens) const {
  return PoolTokens(EncodeTokens(tokens).data(), tokens.size(), dim());
}

la::Vec SemanticEncoder::PoolTokens(const float* rows, size_t n, size_t dim) {
  if (n == 0) return {};
  la::Vec pooled = la::Zeros(dim);
  for (size_t i = 0; i < n; ++i) {
    la::kernels::Axpy(1.0, rows + i * dim, pooled.data(), dim);
  }
  la::Scale(1.0 / static_cast<double>(n), &pooled);
  la::Normalize(&pooled);
  return pooled;
}

void SemanticEncoder::Save(serde::Serializer* s) const {
  s->Tag("encoder/v1");
  s->U64(static_cast<uint64_t>(options_.mode));
  s->U64(options_.hash_dim);
  s->U64(options_.cooc_dim);
  s->U64(options_.numeric_dims);
  s->F64(options_.context.blend);
  s->F64(options_.context.temperature);
  s->U64(options_.seed);
  s->Bool(fitted_);
  cooc_.Save(s);
  calibrator_.Save(s);
}

bool SemanticEncoder::Load(serde::Deserializer* d) {
  if (!d->Tag("encoder/v1")) return false;
  Options options;
  const uint64_t mode = d->U64();
  options.hash_dim = d->U64();
  options.cooc_dim = d->U64();
  options.numeric_dims = d->U64();
  options.context.blend = d->F64();
  options.context.temperature = d->F64();
  options.seed = d->U64();
  if (!d->ok()) return false;
  if (mode > static_cast<uint64_t>(EncoderMode::kSiamese)) return false;
  options.mode = static_cast<EncoderMode>(mode);
  if (options.hash_dim > kMaxDim || options.cooc_dim > kMaxDim ||
      options.numeric_dims > kMaxDim ||
      options.hash_dim + options.cooc_dim + options.numeric_dims > kMaxDim) {
    return false;
  }
  // The numeracy basis spreads its centers over numeric_dims - 1 gaps.
  if (options.numeric_dims == 1) return false;
  if (!std::isfinite(options.context.blend) ||
      !std::isfinite(options.context.temperature) ||
      !(options.context.temperature > 0.0)) {
    return false;
  }
  *this = SemanticEncoder(options);
  fitted_ = d->Bool();
  // BaseEmbed reads cooc_dim entries of every cooc vector, and the
  // calibrator scales every dim() entry of a token row.
  if (!cooc_.Load(d) || cooc_.dim() != options_.cooc_dim) return false;
  if (!calibrator_.Load(d)) return false;
  if (calibrator_.fitted() && calibrator_.weights().size() != dim()) {
    return false;
  }
  return d->ok();
}

}  // namespace wym::embedding
