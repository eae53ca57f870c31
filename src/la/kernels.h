#ifndef WYM_LA_KERNELS_H_
#define WYM_LA_KERNELS_H_

#include <cstddef>

/// \file
/// Vectorized inner-loop kernels with runtime SIMD dispatch.
///
/// Every kernel is implemented twice — portable scalar and AVX2 — and
/// both paths are **bit-identical**: reductions accumulate into a fixed
/// set of 8 partial sums (partial sum k holds the elements whose index
/// is congruent to k mod 8, added in increasing index order) and
/// collapse them in one fixed tree order, so the result does not
/// depend on the selected path, the vector width, or the thread count.
/// Products of float inputs are formed in double (exact) and
/// accumulated in double, matching the precision of the scalar code the
/// kernels replaced. The kernel translation units are compiled with
/// `-ffp-contract=off` so no path silently fuses multiply-add.
///
/// The path is chosen once per process: the best level compiled in
/// and supported by the CPU, unless `WYM_SIMD=off` forces scalar
/// (`avx2` and unknown values mean the default). See DESIGN.md "Kernel
/// layer & runtime dispatch".

namespace wym::la::kernels {

/// Dispatchable implementation levels, in increasing capability.
enum class SimdLevel {
  kScalar = 0,
  kAvx2 = 1,
};

/// Printable name ("scalar" / "avx2").
const char* SimdLevelName(SimdLevel level);

/// Best level compiled into this binary and supported by this CPU.
SimdLevel DetectedSimdLevel();

/// The level the kernels currently dispatch to (WYM_SIMD-resolved at
/// first use).
SimdLevel ActiveSimdLevel();

/// Forces dispatch to `level` (clamped to DetectedSimdLevel()); returns
/// the level actually applied. Test hook for the parity suites — not
/// thread-safe against concurrent kernel calls.
SimdLevel SetSimdLevel(SimdLevel level);

/// sum_i a[i] * b[i], accumulated in double.
double Dot(const float* a, const float* b, size_t n);
double Dot(const double* a, const double* b, size_t n);

/// sum_i a[i]^2, accumulated in double.
double SquaredNorm(const float* a, size_t n);
double SquaredNorm(const double* a, size_t n);

/// sum_i (a[i] - b[i])^2 — the kNN Euclidean hot loop.
double SquaredDistance(const double* a, const double* b, size_t n);

/// y[i] += scale * x[i]. The float form keeps the historical semantics
/// of la::Axpy: the product is formed in double, rounded to float, then
/// added in float.
void Axpy(double scale, const float* x, float* y, size_t n);
void Axpy(double scale, const double* x, double* y, size_t n);

/// a[i] = a[i] * factor (float form: double product rounded to float).
void Scale(double factor, float* a, size_t n);
void Scale(double factor, double* a, size_t n);

/// Blocked GEMM over unit-normalized embedding rows:
///   out[i * b_rows + j] = dot(a + i*dim, b + j*dim, dim)
/// i.e. out = A * B^T with A (a_rows x dim) and B (b_rows x dim) packed
/// row-major. Rows are expected unit-normalized, making each cell a
/// cosine similarity. Blocking only reorders *cells* (each cell is one
/// independent Dot), so the result is bit-identical across paths.
void SimilarityMatrix(const float* a, size_t a_rows, const float* b,
                      size_t b_rows, size_t dim, double* out);

/// Fused dense layer over `rows` row-major input rows of width `in`:
///   out[r * n_out + o] = bias[o] + Dot(w + o*in, x + r*in, in)
/// then std::max(0.0, ·) when `relu` (NaN and -0.0 map to +0.0). `w` is
/// the n_out x in weight matrix, row-major. Every cell runs Dot's own
/// 8 partial sums and Reduce8 tree; the paths differ only in how many
/// cells share one pass over the data (AVX2 register-tiles 4). Each
/// cell is therefore bit-identical to bias[o] + Dot(w_o, x_r, in) at
/// both levels.
void DenseLayer(const double* x, size_t rows, size_t in, const double* w,
                const double* bias, size_t n_out, bool relu, double* out);

/// Gram matrix of `n` row-major rows of width `dim`:
///   out[i * n + j] = Dot(rows + i*dim, rows + j*dim, dim)
/// Each unordered pair is one Dot cell, computed once and mirrored:
/// products commute exactly, so Dot is symmetric bit for bit. The AVX2
/// path tiles 4 cells over one pass of the shared row, as DenseLayer
/// does; every cell is bit-identical to Dot at both levels. For rows
/// widened from floats each cell also has the bits of the float Dot
/// over the original rows (float products are exact in double), which
/// is how the encoder's context mixing uses it. Unlike SimilarityMatrix
/// it bumps no counter: `kernels.similarity_matrix_calls` measures
/// unit generation only.
void GramMatrix(const double* rows, size_t n, size_t dim, double* out);

/// Weighted row sums, the context sum of the encoder's mixing pass:
///   out[i*dim + d] = sum_j fl(w[i*n_in + j] * x[j*dim + d])
/// for i < n_out, where fl() forms the product in double and rounds it
/// to float, and the sum runs in float from +0.0f in increasing j. Each
/// output row is therefore bit-identical to zeroing it and calling the
/// float Axpy(w[i*n_in + j], x + j*dim, out + i*dim, dim) for j = 0,
/// 1, ..., n_in - 1. The AVX2 path keeps a 4-row x 8-column tile of
/// sums in registers across the whole j loop; tiling reorders cells
/// only. `out` must not overlap `x`.
void WeightedRowSum(const double* w, size_t n_out, size_t n_in,
                    const float* x, size_t dim, float* out);

namespace internal {

/// One fully-populated implementation table; the dispatcher selects one
/// of these per process. Exposed for the per-level parity tests.
struct KernelTable {
  double (*dot_f32)(const float*, const float*, size_t);
  double (*dot_f64)(const double*, const double*, size_t);
  double (*sqdist_f64)(const double*, const double*, size_t);
  void (*axpy_f32)(double, const float*, float*, size_t);
  void (*axpy_f64)(double, const double*, double*, size_t);
  void (*scale_f32)(double, float*, size_t);
  void (*scale_f64)(double, double*, size_t);
  void (*dense_f64)(const double*, size_t, size_t, const double*,
                    const double*, size_t, bool, double*);
  void (*gram_f64)(const double*, size_t, size_t, double*);
  void (*weighted_sum_f32)(const double*, size_t, size_t, const float*,
                           size_t, float*);
};

/// Scalar table (always available).
const KernelTable* ScalarKernels();
/// AVX2 table, or nullptr when the compiler lacks -mavx2 (the AVX2 TU
/// is then not built).
const KernelTable* Avx2Kernels();

}  // namespace internal

}  // namespace wym::la::kernels

#endif  // WYM_LA_KERNELS_H_
