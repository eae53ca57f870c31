#include "la/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.h"
#include "util/logging.h"

namespace wym::la::kernels {

namespace {

// ---------------------------------------------------------------------
// Portable scalar implementations. These define the reference
// accumulation order: 8 partial sums (index mod 8, increasing index
// within each), collapsed in one fixed tree. The SIMD paths reproduce
// this order lane-for-lane, so all paths are bit-identical.
// ---------------------------------------------------------------------

inline double Reduce8(const double* s) {
  return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
}

double DotF32Scalar(const float* a, const float* b, size_t n) {
  double s[8] = {0.0};
  const size_t blocks = n - n % 8;
  size_t i = 0;
  for (; i < blocks; i += 8) {
    for (size_t k = 0; k < 8; ++k) {
      s[k] += static_cast<double>(a[i + k]) * static_cast<double>(b[i + k]);
    }
  }
  for (; i < n; ++i) {
    s[i % 8] += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return Reduce8(s);
}

double DotF64Scalar(const double* a, const double* b, size_t n) {
  double s[8] = {0.0};
  const size_t blocks = n - n % 8;
  size_t i = 0;
  for (; i < blocks; i += 8) {
    for (size_t k = 0; k < 8; ++k) s[k] += a[i + k] * b[i + k];
  }
  for (; i < n; ++i) s[i % 8] += a[i] * b[i];
  return Reduce8(s);
}

double SqDistF64Scalar(const double* a, const double* b, size_t n) {
  double s[8] = {0.0};
  const size_t blocks = n - n % 8;
  size_t i = 0;
  for (; i < blocks; i += 8) {
    for (size_t k = 0; k < 8; ++k) {
      const double d = a[i + k] - b[i + k];
      s[k] += d * d;
    }
  }
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    s[i % 8] += d * d;
  }
  return Reduce8(s);
}

void AxpyF32Scalar(double scale, const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    y[i] += static_cast<float>(scale * static_cast<double>(x[i]));
  }
}

void AxpyF64Scalar(double scale, const double* x, double* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += scale * x[i];
}

void ScaleF32Scalar(double factor, float* a, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    a[i] = static_cast<float>(static_cast<double>(a[i]) * factor);
  }
}

void ScaleF64Scalar(double factor, double* a, size_t n) {
  for (size_t i = 0; i < n; ++i) a[i] *= factor;
}

void DenseF64Scalar(const double* x, size_t rows, size_t in, const double* w,
                    const double* bias, size_t n_out, bool relu, double* out) {
  for (size_t r = 0; r < rows; ++r) {
    for (size_t o = 0; o < n_out; ++o) {
      const double v = bias[o] + DotF64Scalar(w + o * in, x + r * in, in);
      out[r * n_out + o] = relu ? std::max(0.0, v) : v;
    }
  }
}

int32_t DotI8Scalar(const int8_t* a, const int8_t* b, size_t n) {
  int32_t acc = 0;
  for (size_t i = 0; i < n; ++i) {
    acc += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return acc;
}

// Reference quantization order: the SIMD paths perform the exact same
// per-element float multiply, half-away-from-zero adjust (add
// copysign(0.5f, v)), saturation clamp in float, and truncating
// conversion — so codes are byte-identical at every level. The clamp
// precedes the int conversion so an out-of-range float never hits the
// (undefined / level-dependent) overflowing cast.
void QuantizeRowI8Scalar(const float* row, size_t dim, int8_t* q,
                         float* scale) {
  float max_abs = 0.0f;
  for (size_t i = 0; i < dim; ++i) {
    const float a = std::fabs(row[i]);
    if (a > max_abs) max_abs = a;
  }
  if (max_abs == 0.0f) {  // All-zero row: scale 0, all-zero codes.
    *scale = 0.0f;
    if (dim > 0) std::memset(q, 0, dim);
    return;
  }
  const float inv = 127.0f / max_abs;
  for (size_t i = 0; i < dim; ++i) {
    const float v = row[i] * inv;
    float r = v + std::copysign(0.5f, v);
    if (r > 127.0f) r = 127.0f;
    if (r < -127.0f) r = -127.0f;
    q[i] = static_cast<int8_t>(static_cast<int32_t>(r));
  }
  *scale = max_abs / 127.0f;
}

const internal::KernelTable kScalarTable = {
    DotF32Scalar, DotF64Scalar,   SqDistF64Scalar, AxpyF32Scalar,
    AxpyF64Scalar, ScaleF32Scalar, ScaleF64Scalar,
    DotI8Scalar,  QuantizeRowI8Scalar, DenseF64Scalar,
};

// ---------------------------------------------------------------------
// Dispatch. Resolved once per process from WYM_SIMD + CPU detection;
// SetSimdLevel re-points the table for the parity tests.
// ---------------------------------------------------------------------

struct Dispatch {
  const internal::KernelTable* table;
  SimdLevel level;
};

const internal::KernelTable* TableFor(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAvx2:
      return internal::Avx2Kernels();
    case SimdLevel::kSse2:
      return internal::Sse2Kernels();
    case SimdLevel::kScalar:
      return internal::ScalarKernels();
  }
  return nullptr;
}

Dispatch ResolveAtOrBelow(SimdLevel requested) {
  for (int level = static_cast<int>(requested); level > 0; --level) {
    if (const internal::KernelTable* table =
            TableFor(static_cast<SimdLevel>(level))) {
      return {table, static_cast<SimdLevel>(level)};
    }
  }
  return {internal::ScalarKernels(), SimdLevel::kScalar};
}

SimdLevel EnvRequestedLevel() {
  const char* raw = std::getenv("WYM_SIMD");
  if (raw == nullptr) return SimdLevel::kAvx2;  // "auto": best available.
  if (std::strcmp(raw, "off") == 0 || std::strcmp(raw, "scalar") == 0) {
    return SimdLevel::kScalar;
  }
  if (std::strcmp(raw, "sse2") == 0) return SimdLevel::kSse2;
  if (std::strcmp(raw, "avx2") == 0) return SimdLevel::kAvx2;
  return SimdLevel::kAvx2;  // Unknown value: behave like "auto".
}

std::atomic<const internal::KernelTable*> g_table{nullptr};
std::atomic<SimdLevel> g_level{SimdLevel::kScalar};

/// Counts each dispatch (re-)resolution under `simd.dispatch.<level>`.
/// Resolution happens once per process (plus explicit SetSimdLevel
/// calls), so this is off every hot path.
void CountDispatch(SimdLevel level) {
  obs::Registry::Global()
      .GetCounter(std::string("simd.dispatch.") + SimdLevelName(level))
      .Add(1);
}

const internal::KernelTable& Active() {
  const internal::KernelTable* table = g_table.load(std::memory_order_acquire);
  if (table != nullptr) return *table;
  const Dispatch resolved = ResolveAtOrBelow(EnvRequestedLevel());
  g_level.store(resolved.level, std::memory_order_relaxed);
  g_table.store(resolved.table, std::memory_order_release);
  CountDispatch(resolved.level);
  return *resolved.table;
}

}  // namespace

namespace internal {

const KernelTable* ScalarKernels() { return &kScalarTable; }

#ifndef WYM_HAVE_AVX2
const KernelTable* Avx2Kernels() { return nullptr; }
#endif

}  // namespace internal

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kSse2:
      return "sse2";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

SimdLevel DetectedSimdLevel() {
  return ResolveAtOrBelow(SimdLevel::kAvx2).level;
}

SimdLevel ActiveSimdLevel() {
  Active();  // Force resolution.
  return g_level.load(std::memory_order_relaxed);
}

SimdLevel SetSimdLevel(SimdLevel level) {
  const Dispatch resolved = ResolveAtOrBelow(level);
  g_level.store(resolved.level, std::memory_order_relaxed);
  g_table.store(resolved.table, std::memory_order_release);
  CountDispatch(resolved.level);
  return resolved.level;
}

double Dot(const float* a, const float* b, size_t n) {
  WYM_DCHECK(n == 0 || (a != nullptr && b != nullptr));
  return Active().dot_f32(a, b, n);
}

double Dot(const double* a, const double* b, size_t n) {
  WYM_DCHECK(n == 0 || (a != nullptr && b != nullptr));
  return Active().dot_f64(a, b, n);
}

double SquaredNorm(const float* a, size_t n) {
  WYM_DCHECK(n == 0 || a != nullptr);
  return Active().dot_f32(a, a, n);
}

double SquaredNorm(const double* a, size_t n) {
  WYM_DCHECK(n == 0 || a != nullptr);
  return Active().dot_f64(a, a, n);
}

double SquaredDistance(const double* a, const double* b, size_t n) {
  WYM_DCHECK(n == 0 || (a != nullptr && b != nullptr));
  return Active().sqdist_f64(a, b, n);
}

void Axpy(double scale, const float* x, float* y, size_t n) {
  WYM_DCHECK(n == 0 || (x != nullptr && y != nullptr));
  Active().axpy_f32(scale, x, y, n);
}

void Axpy(double scale, const double* x, double* y, size_t n) {
  WYM_DCHECK(n == 0 || (x != nullptr && y != nullptr));
  Active().axpy_f64(scale, x, y, n);
}

void Scale(double factor, float* a, size_t n) {
  WYM_DCHECK(n == 0 || a != nullptr);
  Active().scale_f32(factor, a, n);
}

void Scale(double factor, double* a, size_t n) {
  WYM_DCHECK(n == 0 || a != nullptr);
  Active().scale_f64(factor, a, n);
}

void SimilarityMatrix(const float* a, size_t a_rows, const float* b,
                      size_t b_rows, size_t dim, double* out) {
  WYM_DCHECK(a_rows == 0 || b_rows == 0 ||
             (dim > 0 && a != nullptr && b != nullptr && out != nullptr));
  // One relaxed increment per matrix (never per Dot): the whole-matrix
  // granularity keeps instrumentation under the <2% unit-generation
  // overhead budget (DESIGN.md "Observability").
  static obs::Counter& calls =
      obs::Registry::Global().GetCounter("kernels.similarity_matrix_calls");
  calls.Add(1);
  const internal::KernelTable& table = Active();
  // Block over rows so a block of B rows stays cache-resident while a
  // block of A rows streams over it. Each cell is one independent Dot,
  // so blocking reorders cells only — bit-identity is untouched.
  constexpr size_t kBlock = 32;
  for (size_t ib = 0; ib < a_rows; ib += kBlock) {
    const size_t i_end = ib + kBlock < a_rows ? ib + kBlock : a_rows;
    for (size_t jb = 0; jb < b_rows; jb += kBlock) {
      const size_t j_end = jb + kBlock < b_rows ? jb + kBlock : b_rows;
      for (size_t i = ib; i < i_end; ++i) {
        const float* a_row = a + i * dim;
        double* out_row = out + i * b_rows;
        for (size_t j = jb; j < j_end; ++j) {
          out_row[j] = table.dot_f32(a_row, b + j * dim, dim);
        }
      }
    }
  }
}

void DenseLayer(const double* x, size_t rows, size_t in, const double* w,
                const double* bias, size_t n_out, bool relu, double* out) {
  WYM_DCHECK(rows == 0 || n_out == 0 ||
             (bias != nullptr && out != nullptr &&
              (in == 0 || (x != nullptr && w != nullptr))));
  Active().dense_f64(x, rows, in, w, bias, n_out, relu, out);
}

void QuantizeRowsI8(const float* rows, size_t n_rows, size_t dim, int8_t* q,
                    float* scales) {
  WYM_DCHECK(n_rows == 0 ||
             (scales != nullptr &&
              (dim == 0 || (q != nullptr && rows != nullptr))));
  const internal::KernelTable& table = Active();
  for (size_t r = 0; r < n_rows; ++r) {
    table.quantize_row_i8(rows + r * dim, dim, q + r * dim, scales + r);
  }
}

int32_t DotI8(const int8_t* a, const int8_t* b, size_t n) {
  WYM_DCHECK(n == 0 || (a != nullptr && b != nullptr));
  return Active().dot_i8(a, b, n);
}

double DotI8(const int8_t* a, const int8_t* b, size_t n, float scale_a,
             float scale_b) {
  WYM_DCHECK(n == 0 || (a != nullptr && b != nullptr));
  return static_cast<double>(Active().dot_i8(a, b, n)) *
         (static_cast<double>(scale_a) * static_cast<double>(scale_b));
}

void SimilarityMatrixI8(const int8_t* a, size_t a_rows, const float* a_scales,
                        const int8_t* b, size_t b_rows, const float* b_scales,
                        size_t dim, double* out) {
  WYM_DCHECK(a_rows == 0 || b_rows == 0 ||
             (a != nullptr && a_scales != nullptr && b != nullptr &&
              b_scales != nullptr && out != nullptr));
  // Whole-matrix counter granularity, matching SimilarityMatrix.
  static obs::Counter& calls = obs::Registry::Global().GetCounter(
      "kernels.similarity_matrix_i8_calls");
  calls.Add(1);
  const internal::KernelTable& table = Active();
  // Same cell-blocking as the float path; each cell is one independent
  // integer dot, and int32 accumulation is exact, so the result is
  // identical for any cell order and any dispatch level.
  constexpr size_t kBlock = 32;
  for (size_t ib = 0; ib < a_rows; ib += kBlock) {
    const size_t i_end = ib + kBlock < a_rows ? ib + kBlock : a_rows;
    for (size_t jb = 0; jb < b_rows; jb += kBlock) {
      const size_t j_end = jb + kBlock < b_rows ? jb + kBlock : b_rows;
      for (size_t i = ib; i < i_end; ++i) {
        const int8_t* a_row = a + i * dim;
        const double a_scale = static_cast<double>(a_scales[i]);
        double* out_row = out + i * b_rows;
        for (size_t j = jb; j < j_end; ++j) {
          out_row[j] =
              static_cast<double>(table.dot_i8(a_row, b + j * dim, dim)) *
              (a_scale * static_cast<double>(b_scales[j]));
        }
      }
    }
  }
}

}  // namespace wym::la::kernels
