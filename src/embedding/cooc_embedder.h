#ifndef WYM_EMBEDDING_COOC_EMBEDDER_H_
#define WYM_EMBEDDING_COOC_EMBEDDER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "la/vector_ops.h"
#include "util/serde.h"
#include "text/vocabulary.h"

/// \file
/// Distributional embedder: the "fine-tuned" component of the semantic
/// encoder. Counts token co-occurrences inside entity descriptions of the
/// training corpus, weights them with positive pointwise mutual information
/// (PPMI), and factorizes the symmetric PPMI matrix with randomized
/// orthogonal iteration. Tokens used in similar contexts (e.g. "camera"
/// and "dslr", two spellings of the same manufacturer) land close together,
/// supplying the semantic-affinity signal of a corpus-fine-tuned BERT.

namespace wym::embedding {

/// Options for CoocEmbedder.
struct CoocEmbedderOptions {
  /// Output dimension.
  size_t dim = 24;
  /// Symmetric co-occurrence window within a description.
  size_t window = 5;
  /// Keep only the most frequent tokens (memory bound).
  size_t max_vocab = 20000;
  /// Tokens seen fewer times are out-of-vocabulary.
  int64_t min_count = 2;
  /// Orthogonal-iteration rounds.
  size_t iterations = 10;
  /// PPMI context-distribution smoothing exponent (Levy et al. 2015).
  double smoothing = 0.75;
  uint64_t seed = 0xC0C0;
};

/// Corpus-trained distributional token embedder.
class CoocEmbedder {
 public:
  using Options = CoocEmbedderOptions;

  explicit CoocEmbedder(Options options = {});

  /// Builds embeddings from a corpus: each sentence is the token list of
  /// one entity description.
  void Fit(const std::vector<std::vector<std::string>>& sentences);

  /// Unit-norm embedding; the zero vector for out-of-vocabulary tokens.
  la::Vec Embed(std::string_view token) const;

  bool fitted() const { return fitted_; }
  size_t dim() const { return options_.dim; }

  /// Number of in-vocabulary tokens after Fit.
  size_t vocabulary_size() const { return vectors_.size(); }

  /// Index in [0, vocabulary_size()) of an in-vocabulary token, -1 for
  /// any other token (and before Fit).
  int32_t KeptId(std::string_view token) const;

  /// The in-vocabulary tokens, indexed by KeptId.
  std::vector<std::string> KeptTokens() const;

  /// Serialization of the fitted embedding table (see util/serde.h).
  void Save(serde::Serializer* s) const;
  bool Load(serde::Deserializer* d);

 private:
  Options options_;
  bool fitted_ = false;
  text::Vocabulary vocab_;
  std::vector<la::Vec> vectors_;  // Indexed by kept-vocab id.
  std::vector<int32_t> kept_id_;  // vocab id -> kept id or -1.
};

}  // namespace wym::embedding

#endif  // WYM_EMBEDDING_COOC_EMBEDDER_H_
