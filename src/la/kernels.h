#ifndef WYM_LA_KERNELS_H_
#define WYM_LA_KERNELS_H_

#include <cstddef>
#include <cstdint>

/// \file
/// Vectorized inner-loop kernels with runtime SIMD dispatch.
///
/// Every kernel is implemented three times — portable scalar, SSE2 and
/// AVX2 — and all paths are **bit-identical**: reductions accumulate
/// into a fixed set of 8 partial sums (partial sum k holds the elements
/// whose index is congruent to k mod 8, added in increasing index
/// order) and collapse them in one fixed tree order, so the result does
/// not depend on the selected path, the vector width, or the thread
/// count. Products of float inputs are formed in double (exact) and
/// accumulated in double, matching the precision of the scalar code the
/// kernels replaced. The kernel translation units are compiled with
/// `-ffp-contract=off` so no path silently fuses multiply-add.
///
/// The path is chosen once per process: `WYM_SIMD=avx2|sse2|off`
/// overrides the default (the best level compiled in and supported by
/// the CPU). An unavailable request falls back to the best available
/// level at or below it. See DESIGN.md "Kernel layer & runtime
/// dispatch".

namespace wym::la::kernels {

/// Dispatchable implementation levels, in increasing capability.
enum class SimdLevel {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
};

/// Printable name ("scalar" / "sse2" / "avx2").
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
/// every level.
void DenseLayer(const double* x, size_t rows, size_t in, const double* w,
                const double* bias, size_t n_out, bool relu, double* out);

// ---------------------------------------------------------------------
// Quantized int8 tier. Symmetric per-row scaling: a float row maps to
// int8 codes q[i] plus one float scale with x[i] ≈ q[i] * scale. Unlike
// the float kernels above (bit-identical *per level*, levels distinct),
// the int8 kernels accumulate in int32 — exact and associative — so
// every dispatch level produces identical results for identical inputs.
// ---------------------------------------------------------------------

/// Quantizes `n_rows` row-major float rows of width `dim` into
/// `q` (n_rows * dim int8 codes) and `scales` (one float per row).
///
/// Per row: scale = max|x| / 127, and each element maps to
/// clamp(round(x * (127 / max|x|)), -127, 127) with round-half-away-
/// from-zero (±0.5 rounds to ±1). The clamp is a saturation guard:
/// for finite inputs the pre-clamp value already lies in (-128, 128),
/// so codes use the symmetric range [-127, 127] and -128 never occurs.
/// An all-zero row gets scale 0 and all-zero codes. Inputs must be
/// finite. Every dispatch level emits byte-identical codes and
/// bit-identical scales: each level computes the same single float
/// multiply, half-away adjust and truncation per element.
void QuantizeRowsI8(const float* rows, size_t n_rows, size_t dim, int8_t* q,
                    float* scales);

/// Raw int32 dot product sum_i a[i] * b[i]. Exact (integer) — identical
/// across all dispatch levels and accumulation orders. Safe from int32
/// overflow for n < 2^17 (max |product| is 127 * 127 = 16129).
int32_t DotI8(const int8_t* a, const int8_t* b, size_t n);

/// Dequantized dot of two quantized rows: the int32 raw dot with both
/// scales applied once in double, as
///   double(DotI8(a, b, n)) * (double(scale_a) * double(scale_b)).
/// This exact expression is used by every caller, so the float→double
/// widening never varies.
double DotI8(const int8_t* a, const int8_t* b, size_t n, float scale_a,
             float scale_b);

/// Blocked A·Bᵀ over quantized rows — the int8 counterpart of
/// SimilarityMatrix:
///   out[i * b_rows + j] = DotI8(a + i*dim, b + j*dim, dim,
///                               a_scales[i], b_scales[j])
/// For unit-normalized source rows each cell approximates a cosine
/// similarity; quantization error can push a cell slightly past ±1.
void SimilarityMatrixI8(const int8_t* a, size_t a_rows, const float* a_scales,
                        const int8_t* b, size_t b_rows, const float* b_scales,
                        size_t dim, double* out);

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
  int32_t (*dot_i8)(const int8_t*, const int8_t*, size_t);
  void (*quantize_row_i8)(const float*, size_t, int8_t*, float*);
  void (*dense_f64)(const double*, size_t, size_t, const double*,
                    const double*, size_t, bool, double*);
};

/// Scalar table (always available).
const KernelTable* ScalarKernels();
/// SSE2 table, or nullptr when not compiled for this target.
const KernelTable* Sse2Kernels();
/// AVX2 table, or nullptr when the AVX2 TU was not built (WYM_NATIVE=OFF
/// or unsupported compiler).
const KernelTable* Avx2Kernels();

}  // namespace internal

}  // namespace wym::la::kernels

#endif  // WYM_LA_KERNELS_H_
