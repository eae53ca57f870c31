#ifndef WYM_CORE_TOKENIZED_RECORD_H_
#define WYM_CORE_TOKENIZED_RECORD_H_

#include <cstddef>
#include <string>
#include <vector>

#include "data/record.h"
#include "embedding/semantic_encoder.h"
#include "la/vector_ops.h"
#include "text/tokenizer.h"

/// \file
/// Tokenized + encoded view of an EM record: the input representation of
/// the decision-unit generator (paper §4.1.1: tokenize attribute values,
/// assign contextual embeddings).

namespace wym::core {

/// One entity description after tokenization (and optionally encoding).
struct TokenizedEntity {
  /// Flat token list (attribute values concatenated, in schema order).
  std::vector<std::string> tokens;
  /// Attribute index of each flat token.
  std::vector<size_t> attribute_of;
  /// The encoder's contextual embeddings, one row per flat token,
  /// row-major (size() x embedding_dim); empty until encoded. The
  /// relevance scorer's unit features read these raw rows.
  la::Vec raw_embeddings;
  /// Unit-normalized copies of the raw rows, same layout, for the
  /// one-shot similarity-matrix kernel of the decision-unit generator.
  /// Filled by PackEmbeddings / EncodeEntity; all-zero rows stay zero.
  /// Both blocks are kept: the encoder's rows are unit vectors only up
  /// to rounding, and re-normalizing them moves bits in some rows.
  la::Vec packed_embeddings;
  /// Row width of both blocks (0 until encoded).
  size_t embedding_dim = 0;

  size_t size() const { return tokens.size(); }

  /// Flat indices of the tokens belonging to attribute `attr`.
  std::vector<size_t> TokensOfAttribute(size_t attr) const;

  /// True when the raw block holds one row per token. A side that is
  /// not encoded reads as the zero [UNP] embedding in unit features.
  bool HasEmbeddings() const {
    return !raw_embeddings.empty() &&
           raw_embeddings.size() == size() * embedding_dim;
  }

  /// Raw embedding row of flat token `index`.
  const float* EmbeddingRow(size_t index) const {
    return raw_embeddings.data() + index * embedding_dim;
  }

  /// True when packed_embeddings is in sync with the raw block's shape.
  bool HasPackedEmbeddings() const {
    return HasEmbeddings() &&
           packed_embeddings.size() == raw_embeddings.size();
  }

  /// (Re)builds packed_embeddings from the raw block (one
  /// unit-normalization per token at encode time, so every cosine
  /// downstream collapses to a dot product).
  void PackEmbeddings();
};

/// A tokenized record: both descriptions plus the label.
struct TokenizedRecord {
  TokenizedEntity left;
  TokenizedEntity right;
  int label = 0;
};

/// Copies `n_rows` row-major float rows of width `dim` into `packed`
/// (resized), unit-normalizing each. All-zero rows stay all-zero.
void PackUnitRows(const float* rows, size_t n_rows, size_t dim,
                  la::Vec* packed);

/// Tokenizes one entity of `num_attributes` values (embeddings left
/// empty).
TokenizedEntity TokenizeEntity(const data::Entity& entity,
                               size_t num_attributes,
                               const text::Tokenizer& tokenizer);

/// Tokenizes a full record.
TokenizedRecord TokenizeRecord(const data::EmRecord& record,
                               const data::Schema& schema,
                               const text::Tokenizer& tokenizer);

/// Fills the entity's raw block with the encoder's contextual rows,
/// then packs it (PackEmbeddings).
void EncodeEntity(const embedding::SemanticEncoder& encoder,
                  TokenizedEntity* entity);

}  // namespace wym::core

#endif  // WYM_CORE_TOKENIZED_RECORD_H_
