#include "blocking/lsh.h"

#include <algorithm>

#include "la/kernels.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/random.h"

namespace wym::blocking {

namespace {

constexpr size_t kRowGrain = 256;

size_t AdaptiveBits(size_t rows, const EmbeddingLshOptions& options) {
  const size_t target = std::max<size_t>(options.rows_per_bucket, 1);
  size_t bits = 0;
  size_t buckets = 1;
  // Smallest bit count with rows / 2^bits <= target (i.e. expected
  // bucket occupancy at or below the target), capped.
  while (bits < options.max_bits && buckets * target < rows) {
    ++bits;
    buckets <<= 1;
  }
  return std::max<size_t>(bits, 1);
}

}  // namespace

EmbeddingLsh::EmbeddingLsh(const embedding::SemanticEncoder* encoder,
                           Options options)
    : encoder_(encoder), options_(options) {
  WYM_CHECK(encoder_ != nullptr);
}

la::Vec EmbeddingLsh::PoolRow(const data::Entity& row,
                              const text::Tokenizer& tokenizer) const {
  std::vector<std::string> tokens;
  for (const auto& value : row.values) {
    for (auto& token : tokenizer.Tokenize(value)) {
      tokens.push_back(std::move(token));
    }
  }
  if (tokens.empty()) return la::Vec();
  return encoder_->EncodePooled(tokens);
}

uint32_t EmbeddingLsh::Signature(const la::Vec& pooled, size_t table) const {
  const la::Vec* planes = hyperplanes_.data() + table * bits_;
  uint32_t sig = 0;
  for (size_t b = 0; b < bits_; ++b) {
    // kernels::Dot is bit-identical across SIMD paths, so the sign —
    // and with it the whole signature — is too.
    const double dot =
        la::kernels::Dot(pooled.data(), planes[b].data(), pooled.size());
    sig = (sig << 1) | (dot >= 0.0 ? 1u : 0u);
  }
  return sig;
}

void EmbeddingLsh::Build(const EntityTable& table,
                         const text::Tokenizer& tokenizer,
                         util::ThreadPool* pool) {
  obs::SpanScope span("blocking.lsh");
  WYM_CHECK(encoder_->fitted()) << "encoder must be fitted before LSH build";
  const size_t n = table.size();
  built_ = true;
  bits_ = AdaptiveBits(n, options_);

  // Hyperplanes: one seeded sequential stream, deterministic in
  // (seed, table count, bit count, encoder dim).
  const size_t dim = encoder_->dim();
  Rng rng(options_.seed);
  hyperplanes_.assign(options_.num_tables * bits_, la::Vec(dim, 0.0f));
  for (auto& plane : hyperplanes_) {
    for (size_t d = 0; d < dim; ++d) {
      plane[d] = static_cast<float>(rng.Normal());
    }
  }

  // Pool + sign every row in parallel; results land by row index, so
  // the arrays are identical at any thread count.
  pooled_.assign(n, la::Vec());
  std::vector<std::vector<uint32_t>> signatures(
      options_.num_tables, std::vector<uint32_t>(n, 0));
  util::ParallelFor(
      n, kRowGrain,
      [&](size_t begin, size_t end, size_t) {
        for (size_t r = begin; r < end; ++r) {
          pooled_[r] = PoolRow(table.rows[r], tokenizer);
          if (pooled_[r].empty()) continue;
          for (size_t t = 0; t < options_.num_tables; ++t) {
            signatures[t][r] = Signature(pooled_[r], t);
          }
        }
      },
      pool);

  // Bucket tables: sorted (signature, row) pairs, rows ascending within
  // a bucket by the stable ordering of the sort key.
  tables_.assign(options_.num_tables, {});
  util::ParallelFor(
      options_.num_tables, /*grain=*/1,
      [&](size_t begin, size_t end, size_t) {
        for (size_t t = begin; t < end; ++t) {
          auto& entries = tables_[t];
          entries.reserve(n);
          for (size_t r = 0; r < n; ++r) {
            if (pooled_[r].empty()) continue;
            entries.emplace_back(signatures[t][r], static_cast<uint32_t>(r));
          }
          std::sort(entries.begin(), entries.end());
        }
      },
      pool);
}

void EmbeddingLsh::Probe(size_t left_row, const la::Vec& pooled,
                         std::vector<CandidatePair>* out) const {
  WYM_CHECK(built_);
  if (pooled.empty()) return;

  // Union of the probe's buckets across tables.
  std::vector<uint32_t> rows;
  for (size_t t = 0; t < options_.num_tables; ++t) {
    const uint32_t sig = Signature(pooled, t);
    const auto& entries = tables_[t];
    auto it = std::lower_bound(
        entries.begin(), entries.end(),
        std::make_pair(sig, static_cast<uint32_t>(0)));
    for (; it != entries.end() && it->first == sig; ++it) {
      rows.push_back(it->second);
    }
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());

  // Verify: cosine via the kernel layer (both vectors are unit from
  // PoolTokens, so the dot *is* the cosine).
  std::vector<CandidatePair> scored;
  scored.reserve(rows.size());
  for (const uint32_t r : rows) {
    const la::Vec& right = pooled_[r];
    WYM_DCHECK(!right.empty());
    WYM_DCHECK_EQ(right.size(), pooled.size());
    const double cosine =
        la::kernels::Dot(pooled.data(), right.data(), pooled.size());
    if (cosine < options_.min_cosine) continue;
    scored.push_back({left_row, r, cosine});
  }
  std::sort(scored.begin(), scored.end(),
            [](const CandidatePair& a, const CandidatePair& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.right_row < b.right_row;
            });
  if (options_.k > 0 && scored.size() > options_.k) {
    scored.resize(options_.k);
  }
  out->insert(out->end(), scored.begin(), scored.end());
}

}  // namespace wym::blocking
