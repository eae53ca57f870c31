// SSE2 kernel path. SSE2 is part of the x86-64 baseline, so this TU
// needs no special compile flags; on non-x86 targets it compiles to a
// nullptr table and the dispatcher falls back to scalar.
//
// Bit-identity with the scalar path: every reduction keeps the same 8
// partial sums (element index mod 8) as the scalar reference — here as
// four 2-lane double accumulators — added in the same per-lane order,
// and collapses them with the same fixed tree. Float products are
// widened to double before multiplying (exact), exactly like the scalar
// code. No FMA is used anywhere.

#include "la/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#if defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define WYM_SSE2_AVAILABLE 1
#include <emmintrin.h>
#else
#define WYM_SSE2_AVAILABLE 0
#endif

namespace wym::la::kernels::internal {

#if WYM_SSE2_AVAILABLE

namespace {

inline double Reduce8(const double* s) {
  return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
}

// Converts float lanes {2,3} of v to double.
inline __m128d CvtHighPd(__m128 v) {
  return _mm_cvtps_pd(_mm_movehl_ps(v, v));
}

double DotF32Sse2(const float* a, const float* b, size_t n) {
  __m128d acc01 = _mm_setzero_pd();  // Elements 8j+0, 8j+1.
  __m128d acc23 = _mm_setzero_pd();
  __m128d acc45 = _mm_setzero_pd();
  __m128d acc67 = _mm_setzero_pd();
  const size_t blocks = n - n % 8;
  size_t i = 0;
  for (; i < blocks; i += 8) {
    const __m128 va_lo = _mm_loadu_ps(a + i);
    const __m128 vb_lo = _mm_loadu_ps(b + i);
    const __m128 va_hi = _mm_loadu_ps(a + i + 4);
    const __m128 vb_hi = _mm_loadu_ps(b + i + 4);
    acc01 = _mm_add_pd(
        acc01, _mm_mul_pd(_mm_cvtps_pd(va_lo), _mm_cvtps_pd(vb_lo)));
    acc23 = _mm_add_pd(acc23, _mm_mul_pd(CvtHighPd(va_lo), CvtHighPd(vb_lo)));
    acc45 = _mm_add_pd(
        acc45, _mm_mul_pd(_mm_cvtps_pd(va_hi), _mm_cvtps_pd(vb_hi)));
    acc67 = _mm_add_pd(acc67, _mm_mul_pd(CvtHighPd(va_hi), CvtHighPd(vb_hi)));
  }
  double s[8];
  _mm_storeu_pd(s + 0, acc01);
  _mm_storeu_pd(s + 2, acc23);
  _mm_storeu_pd(s + 4, acc45);
  _mm_storeu_pd(s + 6, acc67);
  for (; i < n; ++i) {
    s[i % 8] += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return Reduce8(s);
}

double DotF64Sse2(const double* a, const double* b, size_t n) {
  __m128d acc01 = _mm_setzero_pd();
  __m128d acc23 = _mm_setzero_pd();
  __m128d acc45 = _mm_setzero_pd();
  __m128d acc67 = _mm_setzero_pd();
  const size_t blocks = n - n % 8;
  size_t i = 0;
  for (; i < blocks; i += 8) {
    acc01 = _mm_add_pd(
        acc01, _mm_mul_pd(_mm_loadu_pd(a + i), _mm_loadu_pd(b + i)));
    acc23 = _mm_add_pd(
        acc23, _mm_mul_pd(_mm_loadu_pd(a + i + 2), _mm_loadu_pd(b + i + 2)));
    acc45 = _mm_add_pd(
        acc45, _mm_mul_pd(_mm_loadu_pd(a + i + 4), _mm_loadu_pd(b + i + 4)));
    acc67 = _mm_add_pd(
        acc67, _mm_mul_pd(_mm_loadu_pd(a + i + 6), _mm_loadu_pd(b + i + 6)));
  }
  double s[8];
  _mm_storeu_pd(s + 0, acc01);
  _mm_storeu_pd(s + 2, acc23);
  _mm_storeu_pd(s + 4, acc45);
  _mm_storeu_pd(s + 6, acc67);
  for (; i < n; ++i) s[i % 8] += a[i] * b[i];
  return Reduce8(s);
}

double SqDistF64Sse2(const double* a, const double* b, size_t n) {
  __m128d acc01 = _mm_setzero_pd();
  __m128d acc23 = _mm_setzero_pd();
  __m128d acc45 = _mm_setzero_pd();
  __m128d acc67 = _mm_setzero_pd();
  const size_t blocks = n - n % 8;
  size_t i = 0;
  for (; i < blocks; i += 8) {
    const __m128d d01 = _mm_sub_pd(_mm_loadu_pd(a + i), _mm_loadu_pd(b + i));
    const __m128d d23 =
        _mm_sub_pd(_mm_loadu_pd(a + i + 2), _mm_loadu_pd(b + i + 2));
    const __m128d d45 =
        _mm_sub_pd(_mm_loadu_pd(a + i + 4), _mm_loadu_pd(b + i + 4));
    const __m128d d67 =
        _mm_sub_pd(_mm_loadu_pd(a + i + 6), _mm_loadu_pd(b + i + 6));
    acc01 = _mm_add_pd(acc01, _mm_mul_pd(d01, d01));
    acc23 = _mm_add_pd(acc23, _mm_mul_pd(d23, d23));
    acc45 = _mm_add_pd(acc45, _mm_mul_pd(d45, d45));
    acc67 = _mm_add_pd(acc67, _mm_mul_pd(d67, d67));
  }
  double s[8];
  _mm_storeu_pd(s + 0, acc01);
  _mm_storeu_pd(s + 2, acc23);
  _mm_storeu_pd(s + 4, acc45);
  _mm_storeu_pd(s + 6, acc67);
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    s[i % 8] += d * d;
  }
  return Reduce8(s);
}

void AxpyF32Sse2(double scale, const float* x, float* y, size_t n) {
  const __m128d vscale = _mm_set1_pd(scale);
  const size_t blocks = n - n % 4;
  size_t i = 0;
  for (; i < blocks; i += 4) {
    const __m128 vx = _mm_loadu_ps(x + i);
    // Double product rounded to float, then float add — elementwise, so
    // identical to the scalar semantics.
    const __m128 lo =
        _mm_cvtpd_ps(_mm_mul_pd(_mm_cvtps_pd(vx), vscale));
    const __m128 hi = _mm_cvtpd_ps(_mm_mul_pd(CvtHighPd(vx), vscale));
    const __m128 product = _mm_movelh_ps(lo, hi);
    _mm_storeu_ps(y + i, _mm_add_ps(_mm_loadu_ps(y + i), product));
  }
  for (; i < n; ++i) {
    y[i] += static_cast<float>(scale * static_cast<double>(x[i]));
  }
}

void AxpyF64Sse2(double scale, const double* x, double* y, size_t n) {
  const __m128d vscale = _mm_set1_pd(scale);
  const size_t blocks = n - n % 2;
  size_t i = 0;
  for (; i < blocks; i += 2) {
    const __m128d product = _mm_mul_pd(_mm_loadu_pd(x + i), vscale);
    _mm_storeu_pd(y + i, _mm_add_pd(_mm_loadu_pd(y + i), product));
  }
  for (; i < n; ++i) y[i] += scale * x[i];
}

void ScaleF32Sse2(double factor, float* a, size_t n) {
  const __m128d vfactor = _mm_set1_pd(factor);
  const size_t blocks = n - n % 4;
  size_t i = 0;
  for (; i < blocks; i += 4) {
    const __m128 va = _mm_loadu_ps(a + i);
    const __m128 lo = _mm_cvtpd_ps(_mm_mul_pd(_mm_cvtps_pd(va), vfactor));
    const __m128 hi = _mm_cvtpd_ps(_mm_mul_pd(CvtHighPd(va), vfactor));
    _mm_storeu_ps(a + i, _mm_movelh_ps(lo, hi));
  }
  for (; i < n; ++i) {
    a[i] = static_cast<float>(static_cast<double>(a[i]) * factor);
  }
}

void ScaleF64Sse2(double factor, double* a, size_t n) {
  const __m128d vfactor = _mm_set1_pd(factor);
  const size_t blocks = n - n % 2;
  size_t i = 0;
  for (; i < blocks; i += 2) {
    _mm_storeu_pd(a + i, _mm_mul_pd(_mm_loadu_pd(a + i), vfactor));
  }
  for (; i < n; ++i) a[i] *= factor;
}

// Int8 dot: int32 accumulation is exact, so unlike the float kernels no
// accumulation-order discipline is needed — any lane layout gives the
// same total. SSE2 has no epi8 multiply; sign-extend bytes to int16
// (unpack-with-self + arithmetic shift, no SSE4.1 needed), then
// _mm_madd_epi16 forms pairwise int32 products.
int32_t DotI8Sse2(const int8_t* a, const int8_t* b, size_t n) {
  // Two accumulators break the add dependency chain; the 8-wide tail
  // step keeps dims like 72 (4x16 + 8) off the scalar fallback. Free
  // reassociation: the int32 total is exact regardless of order.
  __m128i acc0 = _mm_setzero_si128();
  __m128i acc1 = _mm_setzero_si128();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i va =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    const __m128i a_lo = _mm_srai_epi16(_mm_unpacklo_epi8(va, va), 8);
    const __m128i a_hi = _mm_srai_epi16(_mm_unpackhi_epi8(va, va), 8);
    const __m128i b_lo = _mm_srai_epi16(_mm_unpacklo_epi8(vb, vb), 8);
    const __m128i b_hi = _mm_srai_epi16(_mm_unpackhi_epi8(vb, vb), 8);
    acc0 = _mm_add_epi32(acc0, _mm_madd_epi16(a_lo, b_lo));
    acc1 = _mm_add_epi32(acc1, _mm_madd_epi16(a_hi, b_hi));
  }
  if (i + 8 <= n) {
    const __m128i va =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b + i));
    const __m128i a16 = _mm_srai_epi16(_mm_unpacklo_epi8(va, va), 8);
    const __m128i b16 = _mm_srai_epi16(_mm_unpacklo_epi8(vb, vb), 8);
    acc0 = _mm_add_epi32(acc0, _mm_madd_epi16(a16, b16));
    i += 8;
  }
  const __m128i acc = _mm_add_epi32(acc0, acc1);
  int32_t lanes[4];
  _mm_storeu_si128(reinterpret_cast<__m128i*>(lanes), acc);
  int32_t sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; i < n; ++i) {
    sum += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return sum;
}

// Byte-identical to QuantizeRowI8Scalar: the same single float multiply,
// copysign(0.5f) adjust, float-domain clamp and truncating conversion
// per element; float max is exact so the lane max equals the running
// scalar max.
void QuantizeRowI8Sse2(const float* row, size_t dim, int8_t* q,
                       float* scale) {
  const __m128 abs_mask =
      _mm_castsi128_ps(_mm_set1_epi32(0x7fffffff));
  __m128 vmax = _mm_setzero_ps();
  const size_t blocks = dim - dim % 4;
  size_t i = 0;
  for (; i < blocks; i += 4) {
    vmax = _mm_max_ps(vmax, _mm_and_ps(_mm_loadu_ps(row + i), abs_mask));
  }
  float max_lanes[4];
  _mm_storeu_ps(max_lanes, vmax);
  float max_abs = max_lanes[0];
  for (int k = 1; k < 4; ++k) {
    if (max_lanes[k] > max_abs) max_abs = max_lanes[k];
  }
  for (; i < dim; ++i) {
    const float a = std::fabs(row[i]);
    if (a > max_abs) max_abs = a;
  }
  if (max_abs == 0.0f) {
    *scale = 0.0f;
    if (dim > 0) std::memset(q, 0, dim);
    return;
  }
  const float inv = 127.0f / max_abs;
  const __m128 vinv = _mm_set1_ps(inv);
  const __m128 vhalf = _mm_set1_ps(0.5f);
  const __m128 sign_mask =
      _mm_castsi128_ps(_mm_set1_epi32(static_cast<int32_t>(0x80000000u)));
  const __m128 vhi = _mm_set1_ps(127.0f);
  const __m128 vlo = _mm_set1_ps(-127.0f);
  i = 0;
  for (; i < blocks; i += 4) {
    const __m128 v = _mm_mul_ps(_mm_loadu_ps(row + i), vinv);
    const __m128 half = _mm_or_ps(_mm_and_ps(v, sign_mask), vhalf);
    __m128 r = _mm_add_ps(v, half);
    r = _mm_min_ps(_mm_max_ps(r, vlo), vhi);
    int32_t code_lanes[4];
    _mm_storeu_si128(reinterpret_cast<__m128i*>(code_lanes),
                     _mm_cvttps_epi32(r));
    q[i + 0] = static_cast<int8_t>(code_lanes[0]);
    q[i + 1] = static_cast<int8_t>(code_lanes[1]);
    q[i + 2] = static_cast<int8_t>(code_lanes[2]);
    q[i + 3] = static_cast<int8_t>(code_lanes[3]);
  }
  for (; i < dim; ++i) {
    const float v = row[i] * inv;
    float r = v + std::copysign(0.5f, v);
    if (r > 127.0f) r = 127.0f;
    if (r < -127.0f) r = -127.0f;
    q[i] = static_cast<int8_t>(static_cast<int32_t>(r));
  }
  *scale = max_abs / 127.0f;
}

// One DotF64Sse2 per cell, so each cell is that dot bit for bit.
void DenseF64Sse2(const double* x, size_t rows, size_t in, const double* w,
                  const double* bias, size_t n_out, bool relu, double* out) {
  for (size_t r = 0; r < rows; ++r) {
    for (size_t o = 0; o < n_out; ++o) {
      const double v = bias[o] + DotF64Sse2(w + o * in, x + r * in, in);
      out[r * n_out + o] = relu ? std::max(0.0, v) : v;
    }
  }
}

const KernelTable kSse2Table = {
    DotF32Sse2,  DotF64Sse2,   SqDistF64Sse2, AxpyF32Sse2,
    AxpyF64Sse2, ScaleF32Sse2, ScaleF64Sse2,
    DotI8Sse2,   QuantizeRowI8Sse2, DenseF64Sse2,
};

}  // namespace

const KernelTable* Sse2Kernels() { return &kSse2Table; }

#else  // !WYM_SSE2_AVAILABLE

const KernelTable* Sse2Kernels() { return nullptr; }

#endif

}  // namespace wym::la::kernels::internal
