#ifndef WYM_BLOCKING_LSH_H_
#define WYM_BLOCKING_LSH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "blocking/blocker.h"
#include "embedding/semantic_encoder.h"
#include "la/vector_ops.h"
#include "text/tokenizer.h"
#include "util/thread_pool.h"

/// \file
/// Embedding-LSH second stage of candidate generation: random-
/// hyperplane signatures over the semantic encoder's pooled token
/// vectors recover matches that share no surface token (abbreviations,
/// heavy typos — WYM's semantic-pairing advantage, PAPER.md decision
/// units), with O(tables x bucket) probes instead of a brute-force
/// O(|L| x |R|) cosine scan.
///
/// Determinism contract: hyperplanes are drawn from a seeded wym::Rng
/// (deterministic in seed, table size and encoder dimension); signature
/// bits come from la::kernels::Dot, which is bit-identical across
/// scalar/AVX2 dispatch; bucket tables are sorted flat arrays.
/// Candidate lists are therefore byte-identical at every WYM_THREADS
/// and WYM_SIMD setting.

namespace wym::blocking {

/// Options for EmbeddingLsh.
struct EmbeddingLshOptions {
  /// Independent hash tables (bands). More tables = higher recall,
  /// linearly more probe work. At the defaults a pair at the cosine
  /// floor 0.5 collides with probability ~1-(1-(2/3)^bits)^24, i.e.
  /// >= 0.99 for the bucket sizes the adaptive bit count targets.
  size_t num_tables = 24;
  /// Cap on hyperplane bits per table. The effective bit count adapts
  /// to the indexed table so buckets hold ~`rows_per_bucket` rows:
  /// bits = clamp(floor(log2(rows / rows_per_bucket)), 1, max_bits).
  size_t max_bits = 12;
  /// Target bucket occupancy driving the adaptive bit count.
  size_t rows_per_bucket = 8;
  /// Keep the k best verified right rows per probe.
  size_t k = 5;
  /// Discard candidates below this pooled-embedding cosine.
  double min_cosine = 0.5;
  /// Hyperplane seed.
  uint64_t seed = 0x15A9E11;
};

/// Random-hyperplane LSH over pooled row embeddings of one table.
class EmbeddingLsh {
 public:
  using Options = EmbeddingLshOptions;

  /// The encoder must be fitted; borrowed, must outlive the index.
  explicit EmbeddingLsh(const embedding::SemanticEncoder* encoder,
                        Options options = {});

  /// Pools + signs every row of `table` and fills the bucket tables.
  /// Runs on `pool` (global when null). Rows with no tokens get no
  /// signatures and are never returned as candidates.
  void Build(const EntityTable& table, const text::Tokenizer& tokenizer,
             util::ThreadPool* pool = nullptr);

  /// Pooled unit embedding of one row (empty vector for a token-less
  /// row): tokens in document order through EncodePooled.
  la::Vec PoolRow(const data::Entity& row,
                  const text::Tokenizer& tokenizer) const;

  /// Candidates for one left row given its pooled embedding: union of
  /// the row's buckets across tables, cosine-verified through
  /// la::kernels, filtered by min_cosine, top-k by (score desc, row
  /// asc). Appends to `out` with left_row as given.
  void Probe(size_t left_row, const la::Vec& pooled,
             std::vector<CandidatePair>* out) const;

  bool built() const { return built_; }
  size_t bits() const { return bits_; }
  size_t rows() const { return pooled_.size(); }

 private:
  uint32_t Signature(const la::Vec& pooled, size_t table) const;

  const embedding::SemanticEncoder* encoder_;
  Options options_;
  bool built_ = false;
  size_t bits_ = 0;
  /// num_tables * bits_ hyperplanes, row-major by table.
  std::vector<la::Vec> hyperplanes_;
  /// Pooled unit embeddings of the indexed rows (empty = token-less).
  std::vector<la::Vec> pooled_;
  /// Per table: (signature, row) sorted — one bucket is an equal_range.
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> tables_;
};

}  // namespace wym::blocking

#endif  // WYM_BLOCKING_LSH_H_
