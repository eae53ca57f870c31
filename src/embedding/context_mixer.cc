#include "embedding/context_mixer.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "la/kernels.h"
#include "la/vector_ops.h"

namespace wym::embedding {

ContextMixer::ContextMixer(Options options) : options_(options) {}

void ContextMixer::Mix(const float* base, size_t n, size_t dim,
                       float* out) const {
  if (n < 2 || options_.blend <= 0.0) {
    std::copy(base, base + n * dim, out);
    return;
  }
  // Per-thread scratch: one re-normalized row, the rows widened to
  // double, and the n x n cosines, which the softmax pass overwrites
  // row by row with the weights.
  thread_local std::vector<float> unit_row;
  thread_local std::vector<double> wide_rows;
  thread_local std::vector<double> weights;
  thread_local std::vector<double> z;
  unit_row.resize(dim);
  wide_rows.resize(n * dim);
  weights.resize(n * n);
  z.resize(n);

  // The inputs are unit vectors (BaseEmbed normalizes), but Mix is a
  // public API, so rows are re-normalized in float for the cosines —
  // cosine is scale-invariant, and all-zero rows stay zero. Widening is
  // exact, so the double Gram cells are the float Dots of these rows.
  for (size_t i = 0; i < n; ++i) {
    std::copy(base + i * dim, base + (i + 1) * dim, unit_row.begin());
    float* row = unit_row.data();
    const double norm = std::sqrt(la::kernels::SquaredNorm(row, dim));
    if (norm > 0.0) la::kernels::Scale(1.0 / norm, row, dim);
    std::copy(unit_row.begin(), unit_row.end(), wide_rows.begin() + i * dim);
  }
  la::kernels::GramMatrix(wide_rows.data(), n, dim, weights.data());

  // Softmax attention over the other tokens; a zero weight on the
  // diagonal adds an exact +-0 to every context sum, which leaves it
  // unchanged (the sums start at +0 and the rows are finite).
  for (size_t i = 0; i < n; ++i) {
    double* row = weights.data() + i * n;
    double max_sim = -2.0;
    for (size_t j = 0; j < n; ++j) {
      if (j != i) max_sim = std::max(max_sim, row[j]);
    }
    double sum = 0.0;
    for (size_t j = 0; j < n; ++j) {
      if (j == i) {
        row[j] = 0.0;
        continue;
      }
      row[j] = std::exp((row[j] - max_sim) / options_.temperature);
      sum += row[j];
    }
    z[i] = sum;
  }
  la::kernels::WeightedRowSum(weights.data(), n, n, base, dim, out);

  // out_i holds the unnormalized context; blend it in place. Float adds
  // commute exactly, so blend * c_i + (1 - blend) * base_i has the bits
  // of (1 - blend) * base_i + blend * c_i.
  for (size_t i = 0; i < n; ++i) {
    float* row = out + i * dim;
    if (z[i] > 0.0) la::kernels::Scale(1.0 / z[i], row, dim);
    la::kernels::Scale(options_.blend, row, dim);
    la::kernels::Axpy(1.0 - options_.blend, base + i * dim, row, dim);
    la::Normalize(row, dim);
  }
}

}  // namespace wym::embedding
