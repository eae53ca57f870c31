#include "core/tokenized_record.h"

#include <cmath>

#include "la/kernels.h"
#include "util/logging.h"

namespace wym::core {

std::vector<size_t> TokenizedEntity::TokensOfAttribute(size_t attr) const {
  std::vector<size_t> out;
  for (size_t i = 0; i < attribute_of.size(); ++i) {
    if (attribute_of[i] == attr) out.push_back(i);
  }
  return out;
}

TokenizedEntity TokenizeEntity(const data::Entity& entity,
                               size_t num_attributes,
                               const text::Tokenizer& tokenizer) {
  WYM_CHECK_EQ(entity.values.size(), num_attributes);
  TokenizedEntity out;
  for (size_t attr = 0; attr < entity.values.size(); ++attr) {
    for (auto& token : tokenizer.Tokenize(entity.values[attr])) {
      out.tokens.push_back(std::move(token));
      out.attribute_of.push_back(attr);
    }
  }
  return out;
}

TokenizedRecord TokenizeRecord(const data::EmRecord& record,
                               const data::Schema& schema,
                               const text::Tokenizer& tokenizer) {
  TokenizedRecord out;
  out.left = TokenizeEntity(record.left, schema.size(), tokenizer);
  out.right = TokenizeEntity(record.right, schema.size(), tokenizer);
  out.label = record.label;
  return out;
}

void PackUnitRows(const float* rows, size_t n_rows, size_t dim,
                  la::Vec* packed) {
  packed->assign(rows, rows + n_rows * dim);
  for (size_t i = 0; i < n_rows; ++i) {
    float* row = packed->data() + i * dim;
    const double norm = std::sqrt(la::kernels::SquaredNorm(row, dim));
    if (norm > 0.0) la::kernels::Scale(1.0 / norm, row, dim);
  }
}

void TokenizedEntity::PackEmbeddings() {
  WYM_CHECK_EQ(raw_embeddings.size(), size() * embedding_dim)
      << "raw embedding block does not hold one row per token";
  PackUnitRows(raw_embeddings.data(), size(), embedding_dim,
               &packed_embeddings);
}

void EncodeEntity(const embedding::SemanticEncoder& encoder,
                  TokenizedEntity* entity) {
  entity->raw_embeddings = encoder.EncodeTokens(entity->tokens);
  entity->embedding_dim = encoder.dim();
  entity->PackEmbeddings();
}

}  // namespace wym::core
