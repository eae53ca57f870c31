#include "la/kernels.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.h"
#include "util/logging.h"

namespace wym::la::kernels {

namespace {

// ---------------------------------------------------------------------
// Portable scalar implementations. These define the reference
// accumulation order: 8 partial sums (index mod 8, increasing index
// within each), collapsed in one fixed tree. The AVX2 path reproduces
// this order lane-for-lane, so both paths are bit-identical.
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

void GramF64Scalar(const double* rows, size_t n, size_t dim, double* out) {
  for (size_t i = 0; i < n; ++i) {
    const double* row_i = rows + i * dim;
    for (size_t j = i; j < n; ++j) {
      out[i * n + j] = out[j * n + i] =
          DotF64Scalar(row_i, rows + j * dim, dim);
    }
  }
}

void WeightedSumF32Scalar(const double* w, size_t n_out, size_t n_in,
                          const float* x, size_t dim, float* out) {
  for (size_t i = 0; i < n_out; ++i) {
    float* out_row = out + i * dim;
    for (size_t d = 0; d < dim; ++d) out_row[d] = 0.0f;
    for (size_t j = 0; j < n_in; ++j) {
      AxpyF32Scalar(w[i * n_in + j], x + j * dim, out_row, dim);
    }
  }
}

const internal::KernelTable kScalarTable = {
    DotF32Scalar,   DotF64Scalar,   SqDistF64Scalar, AxpyF32Scalar,
    AxpyF64Scalar,  ScaleF32Scalar, ScaleF64Scalar,  DenseF64Scalar,
    GramF64Scalar,  WeightedSumF32Scalar,
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
  if (raw != nullptr &&
      (std::strcmp(raw, "off") == 0 || std::strcmp(raw, "scalar") == 0)) {
    return SimdLevel::kScalar;
  }
  return SimdLevel::kAvx2;  // "avx2", unset or unknown: best available.
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

void GramMatrix(const double* rows, size_t n, size_t dim, double* out) {
  WYM_DCHECK(n == 0 || (out != nullptr && (dim == 0 || rows != nullptr)));
  Active().gram_f64(rows, n, dim, out);
}

void WeightedRowSum(const double* w, size_t n_out, size_t n_in,
                    const float* x, size_t dim, float* out) {
  WYM_DCHECK(n_out == 0 || dim == 0 ||
             (out != nullptr && (n_in == 0 || (w != nullptr && x != nullptr))));
  Active().weighted_sum_f32(w, n_out, n_in, x, dim, out);
}

}  // namespace wym::la::kernels
