#ifndef WYM_EMBEDDING_CONTEXT_MIXER_H_
#define WYM_EMBEDDING_CONTEXT_MIXER_H_

#include <cstddef>

/// \file
/// Attention-like context mixing: every token's vector is blended with a
/// softmax-weighted average of the other tokens in the same entity
/// description. This is what makes the encoder *contextual* — the same
/// token in two different descriptions gets two different vectors — which
/// the paper obtains from BERT's hidden states (challenge R4).

namespace wym::embedding {

/// Options for ContextMixer.
struct ContextMixerOptions {
  /// Fraction of the context vector blended into each token (0 = off).
  double blend = 0.3;
  /// Softmax temperature over cosine similarities; lower = peakier.
  double temperature = 0.25;
};

/// Stateless contextualization pass over one description's token vectors.
class ContextMixer {
 public:
  using Options = ContextMixerOptions;

  explicit ContextMixer(Options options = {});

  /// Contextualizes the `n` x `dim` row-major block `base` into `out`
  /// (same shape, must not overlap `base`). Output rows are unit-norm,
  /// except all-zero rows, which stay zero. With fewer than two rows
  /// (no context exists) or blend <= 0, `out` is a copy of `base`.
  ///
  /// Row i is mixed from the cosines of row i with every other row:
  /// weights a_ij = exp((cos_ij - max_k cos_ik) / temperature) over
  /// j != i, context c_i = (sum_j a_ij * base_j) / sum_j a_ij, and
  /// out_i = normalize((1 - blend) * base_i + blend * c_i). The cosines
  /// come from one la::kernels::GramMatrix call over re-normalized rows
  /// and the context sums from one la::kernels::WeightedRowSum call;
  /// both are bit-identical to the per-cell Dot / per-row Axpy loops
  /// they replaced.
  void Mix(const float* base, size_t n, size_t dim, float* out) const;

 private:
  Options options_;
};

}  // namespace wym::embedding

#endif  // WYM_EMBEDDING_CONTEXT_MIXER_H_
