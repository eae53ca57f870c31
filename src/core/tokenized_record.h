#ifndef WYM_CORE_TOKENIZED_RECORD_H_
#define WYM_CORE_TOKENIZED_RECORD_H_

#include <cstddef>
#include <cstdint>
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
  /// Pre-normalization Euclidean norm of each raw row (the encoder
  /// emits unit vectors, so these are ~1; they preserve the full cosine
  /// for entities built with arbitrary vectors).
  std::vector<double> embedding_norms;
  /// Row width of both blocks (0 until encoded).
  size_t embedding_dim = 0;
  /// Symmetric per-row int8 quantization of the packed unit rows
  /// (la::kernels::QuantizeRowsI8), cached at encode time next to the
  /// float packing so the quantized similarity-matrix fast path never
  /// re-quantizes per pair. Same row-major shape as packed_embeddings.
  std::vector<int8_t> quantized_embeddings;
  /// One dequantization scale per row (max|x| / 127; 0 for zero rows).
  std::vector<float> quantized_scales;
  /// One L1 norm per packed fp row, cached for the quantized path's
  /// per-cell refinement bound so it never rescans rows per pair.
  std::vector<float> quantized_l1;

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
           packed_embeddings.size() == raw_embeddings.size() &&
           embedding_norms.size() == size();
  }

  /// True when the quantized cache is in sync with the raw block's shape.
  bool HasQuantizedEmbeddings() const {
    return HasPackedEmbeddings() &&
           quantized_embeddings.size() == raw_embeddings.size() &&
           quantized_scales.size() == size() && quantized_l1.size() == size();
  }

  /// (Re)builds packed_embeddings + embedding_norms from the raw block
  /// (one unit-normalization per token at encode time, so every cosine
  /// downstream collapses to a dot product), then quantizes the unit
  /// rows into quantized_embeddings + quantized_scales for the int8
  /// fast path.
  void PackEmbeddings();
};

/// A tokenized record: both descriptions plus the label.
struct TokenizedRecord {
  TokenizedEntity left;
  TokenizedEntity right;
  int label = 0;
};

/// Copies `n_rows` row-major float rows of width `dim` into `packed`
/// (resized), unit-normalizing each. `norms` (optional) receives each
/// row's pre-normalization Euclidean norm. All-zero rows stay all-zero.
void PackUnitRows(const float* rows, size_t n_rows, size_t dim,
                  la::Vec* packed, std::vector<double>* norms);

/// Quantizes `n_rows` packed row-major float rows of width `dim` into
/// int8 codes + per-row scales (resizing the outputs). Thin shape-aware
/// wrapper over la::kernels::QuantizeRowsI8. `l1` (optional) receives
/// each fp row's L1 norm (sequential double accumulation, rounded to
/// float) for the refinement error bound of the quantized screen.
void QuantizeUnitRows(const float* rows, size_t n_rows, size_t dim,
                      std::vector<int8_t>* q, std::vector<float>* scales,
                      std::vector<float>* l1 = nullptr);

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
