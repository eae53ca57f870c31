// AVX2 kernel path. Compiled with -mavx2 whenever the compiler supports
// the flag (the dispatcher additionally checks CPU support at runtime
// before selecting it).
//
// Bit-identity with the scalar path: the 8 partial sums of the
// reference accumulation order live in two 4-lane double accumulators,
// added in the same per-lane order and collapsed with the same fixed
// tree. Float products are widened to double before multiplying
// (exact). Multiplies and adds stay separate instructions — no FMA —
// and the TU is compiled with -ffp-contract=off so the compiler cannot
// fuse them behind our back.

#include "la/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include <immintrin.h>

namespace wym::la::kernels::internal {

namespace {

inline double Reduce8(const double* s) {
  return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
}

double DotF32Avx2(const float* a, const float* b, size_t n) {
  __m256d acc_lo = _mm256_setzero_pd();  // Elements 8j+0 .. 8j+3.
  __m256d acc_hi = _mm256_setzero_pd();  // Elements 8j+4 .. 8j+7.
  const size_t blocks = n - n % 8;
  size_t i = 0;
  for (; i < blocks; i += 8) {
    const __m256 va = _mm256_loadu_ps(a + i);
    const __m256 vb = _mm256_loadu_ps(b + i);
    const __m256d a_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(va));
    const __m256d b_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(vb));
    const __m256d a_hi = _mm256_cvtps_pd(_mm256_extractf128_ps(va, 1));
    const __m256d b_hi = _mm256_cvtps_pd(_mm256_extractf128_ps(vb, 1));
    acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(a_lo, b_lo));
    acc_hi = _mm256_add_pd(acc_hi, _mm256_mul_pd(a_hi, b_hi));
  }
  double s[8];
  _mm256_storeu_pd(s + 0, acc_lo);
  _mm256_storeu_pd(s + 4, acc_hi);
  for (; i < n; ++i) {
    s[i % 8] += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return Reduce8(s);
}

double DotF64Avx2(const double* a, const double* b, size_t n) {
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  const size_t blocks = n - n % 8;
  size_t i = 0;
  for (; i < blocks; i += 8) {
    acc_lo = _mm256_add_pd(
        acc_lo, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
    acc_hi = _mm256_add_pd(
        acc_hi,
        _mm256_mul_pd(_mm256_loadu_pd(a + i + 4), _mm256_loadu_pd(b + i + 4)));
  }
  double s[8];
  _mm256_storeu_pd(s + 0, acc_lo);
  _mm256_storeu_pd(s + 4, acc_hi);
  for (; i < n; ++i) s[i % 8] += a[i] * b[i];
  return Reduce8(s);
}

double SqDistF64Avx2(const double* a, const double* b, size_t n) {
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  const size_t blocks = n - n % 8;
  size_t i = 0;
  for (; i < blocks; i += 8) {
    const __m256d d_lo =
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    const __m256d d_hi =
        _mm256_sub_pd(_mm256_loadu_pd(a + i + 4), _mm256_loadu_pd(b + i + 4));
    acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(d_lo, d_lo));
    acc_hi = _mm256_add_pd(acc_hi, _mm256_mul_pd(d_hi, d_hi));
  }
  double s[8];
  _mm256_storeu_pd(s + 0, acc_lo);
  _mm256_storeu_pd(s + 4, acc_hi);
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    s[i % 8] += d * d;
  }
  return Reduce8(s);
}

void AxpyF32Avx2(double scale, const float* x, float* y, size_t n) {
  const __m256d vscale = _mm256_set1_pd(scale);
  const size_t blocks = n - n % 8;
  size_t i = 0;
  for (; i < blocks; i += 8) {
    const __m256 vx = _mm256_loadu_ps(x + i);
    const __m256d x_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(vx));
    const __m256d x_hi = _mm256_cvtps_pd(_mm256_extractf128_ps(vx, 1));
    // Double product rounded back to float, then float add — the
    // elementwise semantics of the scalar path.
    const __m128 p_lo = _mm256_cvtpd_ps(_mm256_mul_pd(x_lo, vscale));
    const __m128 p_hi = _mm256_cvtpd_ps(_mm256_mul_pd(x_hi, vscale));
    const __m256 product = _mm256_set_m128(p_hi, p_lo);
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), product));
  }
  for (; i < n; ++i) {
    y[i] += static_cast<float>(scale * static_cast<double>(x[i]));
  }
}

void AxpyF64Avx2(double scale, const double* x, double* y, size_t n) {
  const __m256d vscale = _mm256_set1_pd(scale);
  const size_t blocks = n - n % 4;
  size_t i = 0;
  for (; i < blocks; i += 4) {
    const __m256d product = _mm256_mul_pd(_mm256_loadu_pd(x + i), vscale);
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), product));
  }
  for (; i < n; ++i) y[i] += scale * x[i];
}

void ScaleF32Avx2(double factor, float* a, size_t n) {
  const __m256d vfactor = _mm256_set1_pd(factor);
  const size_t blocks = n - n % 8;
  size_t i = 0;
  for (; i < blocks; i += 8) {
    const __m256 va = _mm256_loadu_ps(a + i);
    const __m256d a_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(va));
    const __m256d a_hi = _mm256_cvtps_pd(_mm256_extractf128_ps(va, 1));
    const __m128 p_lo = _mm256_cvtpd_ps(_mm256_mul_pd(a_lo, vfactor));
    const __m128 p_hi = _mm256_cvtpd_ps(_mm256_mul_pd(a_hi, vfactor));
    _mm256_storeu_ps(a + i, _mm256_set_m128(p_hi, p_lo));
  }
  for (; i < n; ++i) {
    a[i] = static_cast<float>(static_cast<double>(a[i]) * factor);
  }
}

void ScaleF64Avx2(double factor, double* a, size_t n) {
  const __m256d vfactor = _mm256_set1_pd(factor);
  const size_t blocks = n - n % 4;
  size_t i = 0;
  for (; i < blocks; i += 4) {
    _mm256_storeu_pd(a + i, _mm256_mul_pd(_mm256_loadu_pd(a + i), vfactor));
  }
  for (; i < n; ++i) a[i] *= factor;
}

// Four dots against one shared vector: lane c of the result is
// Dot(rows + c*stride, shared, n). Each 8-block of `shared` is loaded
// once and feeds all four cells. Every cell keeps DotF64Avx2's two
// accumulators, tail and Reduce8 tree, and products commute exactly, so
// lane c is bit-identical to DotF64Avx2 over either argument order.
__m256d Dot4F64Avx2(const double* rows, size_t stride, const double* shared,
                    size_t n) {
  const double* r0 = rows;
  const double* r1 = r0 + stride;
  const double* r2 = r1 + stride;
  const double* r3 = r2 + stride;
  __m256d lo0 = _mm256_setzero_pd(), hi0 = _mm256_setzero_pd();
  __m256d lo1 = _mm256_setzero_pd(), hi1 = _mm256_setzero_pd();
  __m256d lo2 = _mm256_setzero_pd(), hi2 = _mm256_setzero_pd();
  __m256d lo3 = _mm256_setzero_pd(), hi3 = _mm256_setzero_pd();
  const size_t blocks = n - n % 8;
  size_t i = 0;
  for (; i < blocks; i += 8) {
    const __m256d s_lo = _mm256_loadu_pd(shared + i);
    const __m256d s_hi = _mm256_loadu_pd(shared + i + 4);
    lo0 = _mm256_add_pd(lo0, _mm256_mul_pd(_mm256_loadu_pd(r0 + i), s_lo));
    hi0 = _mm256_add_pd(hi0, _mm256_mul_pd(_mm256_loadu_pd(r0 + i + 4), s_hi));
    lo1 = _mm256_add_pd(lo1, _mm256_mul_pd(_mm256_loadu_pd(r1 + i), s_lo));
    hi1 = _mm256_add_pd(hi1, _mm256_mul_pd(_mm256_loadu_pd(r1 + i + 4), s_hi));
    lo2 = _mm256_add_pd(lo2, _mm256_mul_pd(_mm256_loadu_pd(r2 + i), s_lo));
    hi2 = _mm256_add_pd(hi2, _mm256_mul_pd(_mm256_loadu_pd(r2 + i + 4), s_hi));
    lo3 = _mm256_add_pd(lo3, _mm256_mul_pd(_mm256_loadu_pd(r3 + i), s_lo));
    hi3 = _mm256_add_pd(hi3, _mm256_mul_pd(_mm256_loadu_pd(r3 + i + 4), s_hi));
  }
  if (i == n) {
    // Reduce8 for four cells at once: hadd forms s0+s1 and s2+s3 (then
    // s4+s5, s6+s7) per cell, the lane permutes line the cells up, and
    // the two adds finish ((s01 + s23) + (s45 + s67)).
    const __m256d l01 = _mm256_hadd_pd(lo0, lo1);
    const __m256d l23 = _mm256_hadd_pd(lo2, lo3);
    const __m256d h01 = _mm256_hadd_pd(hi0, hi1);
    const __m256d h23 = _mm256_hadd_pd(hi2, hi3);
    const __m256d low = _mm256_add_pd(_mm256_permute2f128_pd(l01, l23, 0x20),
                                      _mm256_permute2f128_pd(l01, l23, 0x31));
    const __m256d high = _mm256_add_pd(_mm256_permute2f128_pd(h01, h23, 0x20),
                                       _mm256_permute2f128_pd(h01, h23, 0x31));
    return _mm256_add_pd(low, high);
  }
  double s[4][8];
  _mm256_storeu_pd(s[0], lo0);
  _mm256_storeu_pd(s[0] + 4, hi0);
  _mm256_storeu_pd(s[1], lo1);
  _mm256_storeu_pd(s[1] + 4, hi1);
  _mm256_storeu_pd(s[2], lo2);
  _mm256_storeu_pd(s[2] + 4, hi2);
  _mm256_storeu_pd(s[3], lo3);
  _mm256_storeu_pd(s[3] + 4, hi3);
  for (; i < n; ++i) {
    s[0][i % 8] += r0[i] * shared[i];
    s[1][i % 8] += r1[i] * shared[i];
    s[2][i % 8] += r2[i] * shared[i];
    s[3][i % 8] += r3[i] * shared[i];
  }
  return _mm256_setr_pd(Reduce8(s[0]), Reduce8(s[1]), Reduce8(s[2]),
                        Reduce8(s[3]));
}

// bias + dot, then std::max(0.0, ·) when relu: MAXPD returns its second
// operand for NaN and for a pair of zeros, so NaN and -0.0 become +0.0.
inline __m256d BiasRelu(__m256d bias, __m256d dots, bool relu) {
  const __m256d v = _mm256_add_pd(bias, dots);
  return relu ? _mm256_max_pd(v, _mm256_setzero_pd()) : v;
}

// Register-tiled dense layer. Output tiles of 4 cells share one pass
// over an input row; an output left over from the tiles (the network's
// last layer has exactly one) is tiled across 4 input rows sharing one
// pass over its weight row instead. Rows go in blocks so a block of
// inputs stays in L1 while the weight tiles stream over it once per
// block. Tiling and blocking reorder cells only.
void DenseF64Avx2(const double* x, size_t rows, size_t in, const double* w,
                  const double* bias, size_t n_out, bool relu, double* out) {
  constexpr size_t kRowBlock = 16;
  const size_t tiled = n_out - n_out % 4;
  for (size_t rb = 0; rb < rows; rb += kRowBlock) {
    const size_t r_end = rb + kRowBlock < rows ? rb + kRowBlock : rows;
    for (size_t o = 0; o < tiled; o += 4) {
      const __m256d b = _mm256_loadu_pd(bias + o);
      for (size_t r = rb; r < r_end; ++r) {
        _mm256_storeu_pd(out + r * n_out + o,
                         BiasRelu(b, Dot4F64Avx2(w + o * in, in, x + r * in, in),
                                  relu));
      }
    }
    for (size_t o = tiled; o < n_out; ++o) {
      const double* w_row = w + o * in;
      size_t r = rb;
      for (; r + 4 <= r_end; r += 4) {
        double cells[4];
        _mm256_storeu_pd(
            cells, BiasRelu(_mm256_set1_pd(bias[o]),
                            Dot4F64Avx2(x + r * in, in, w_row, in), relu));
        for (size_t c = 0; c < 4; ++c) out[(r + c) * n_out + o] = cells[c];
      }
      for (; r < r_end; ++r) {
        const double v = bias[o] + DotF64Avx2(w_row, x + r * in, in);
        out[r * n_out + o] = relu ? std::max(0.0, v) : v;
      }
    }
  }
}

// Upper triangle of the Gram matrix in 4-cell tiles along each row,
// mirrored into the lower triangle.
void GramF64Avx2(const double* rows, size_t n, size_t dim, double* out) {
  for (size_t i = 0; i < n; ++i) {
    const double* row_i = rows + i * dim;
    size_t j = i;
    for (; j + 4 <= n; j += 4) {
      double cells[4];
      _mm256_storeu_pd(cells, Dot4F64Avx2(rows + j * dim, dim, row_i, dim));
      for (size_t c = 0; c < 4; ++c) {
        out[i * n + j + c] = out[(j + c) * n + i] = cells[c];
      }
    }
    for (; j < n; ++j) {
      out[i * n + j] = out[j * n + i] = DotF64Avx2(row_i, rows + j * dim, dim);
    }
  }
}

// fl(w * x) for 4 widened floats: the double product rounded to float,
// as AxpyF32Avx2 forms it.
inline __m128 ProductF32(__m256d x, __m256d w) {
  return _mm256_cvtpd_ps(_mm256_mul_pd(x, w));
}

// Tiles of up to 4 output rows x 8 columns stay in registers across the
// whole j loop, as two 4-float halves per row (no cross-lane insert);
// each x block is widened once per tile and shared by its rows. Column
// tails (dim % 8) run the scalar recurrence per cell.
void WeightedSumF32Avx2(const double* w, size_t n_out, size_t n_in,
                        const float* x, size_t dim, float* out) {
  const size_t blocks = dim - dim % 8;
  for (size_t i0 = 0; i0 < n_out; i0 += 4) {
    const size_t rows = n_out - i0 < 4 ? n_out - i0 : 4;
    const double* w_rows = w + i0 * n_in;
    for (size_t d = 0; d < blocks; d += 8) {
      __m128 lo[4], hi[4];
      for (size_t r = 0; r < 4; ++r) lo[r] = hi[r] = _mm_setzero_ps();
      for (size_t j = 0; j < n_in; ++j) {
        const __m256d x_lo = _mm256_cvtps_pd(_mm_loadu_ps(x + j * dim + d));
        const __m256d x_hi =
            _mm256_cvtps_pd(_mm_loadu_ps(x + j * dim + d + 4));
        for (size_t r = 0; r < rows; ++r) {
          const __m256d wr = _mm256_set1_pd(w_rows[r * n_in + j]);
          lo[r] = _mm_add_ps(lo[r], ProductF32(x_lo, wr));
          hi[r] = _mm_add_ps(hi[r], ProductF32(x_hi, wr));
        }
      }
      for (size_t r = 0; r < rows; ++r) {
        _mm_storeu_ps(out + (i0 + r) * dim + d, lo[r]);
        _mm_storeu_ps(out + (i0 + r) * dim + d + 4, hi[r]);
      }
    }
    for (size_t d = blocks; d < dim; ++d) {
      for (size_t r = 0; r < rows; ++r) {
        float acc = 0.0f;
        for (size_t j = 0; j < n_in; ++j) {
          acc += static_cast<float>(w_rows[r * n_in + j] *
                                    static_cast<double>(x[j * dim + d]));
        }
        out[(i0 + r) * dim + d] = acc;
      }
    }
  }
}

// Int8 dot via the signed path: _mm256_cvtepi8_epi16 sign-extension +
// _mm256_madd_epi16. Deliberately avoids _mm256_maddubs_epi16 (whose
// unsigned×signed int16 saturation could differ from the scalar
// totals) so both levels produce identical int32 partials. Integer
// accumulation is exact, so lane layout never matters.
int32_t DotI8Avx2(const int8_t* a, const int8_t* b, size_t n) {
  // Two accumulators break the add dependency chain in the main loop;
  // 16- and 8-wide tail steps keep the typical embedding dims (48, 72)
  // off the scalar fallback entirely. All reassociation is free: the
  // int32 total is exact regardless of order.
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i a16_lo = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)));
    const __m256i a16_hi = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i + 16)));
    const __m256i b16_lo = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i)));
    const __m256i b16_hi = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i + 16)));
    acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(a16_lo, b16_lo));
    acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(a16_hi, b16_hi));
  }
  if (i + 16 <= n) {
    const __m256i a16 = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)));
    const __m256i b16 = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i)));
    acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(a16, b16));
    i += 16;
  }
  acc0 = _mm256_add_epi32(acc0, acc1);
  __m128i acc_tail = _mm_setzero_si128();
  if (i + 8 <= n) {
    const __m128i a16 = _mm_cvtepi8_epi16(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(a + i)));
    const __m128i b16 = _mm_cvtepi8_epi16(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b + i)));
    acc_tail = _mm_madd_epi16(a16, b16);
    i += 8;
  }
  acc_tail = _mm_add_epi32(acc_tail,
                           _mm_add_epi32(_mm256_castsi256_si128(acc0),
                                         _mm256_extracti128_si256(acc0, 1)));
  int32_t lanes[4];
  _mm_storeu_si128(reinterpret_cast<__m128i*>(lanes), acc_tail);
  int32_t sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; i < n; ++i) {
    sum += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return sum;
}

// Byte-identical to QuantizeRowI8Scalar — same per-element multiply,
// copysign(0.5f) adjust, float clamp and truncation; float max is
// exact so the 8-lane max equals the scalar running max.
void QuantizeRowI8Avx2(const float* row, size_t dim, int8_t* q,
                       float* scale) {
  const __m256 abs_mask =
      _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  __m256 vmax = _mm256_setzero_ps();
  const size_t blocks = dim - dim % 8;
  size_t i = 0;
  for (; i < blocks; i += 8) {
    vmax =
        _mm256_max_ps(vmax, _mm256_and_ps(_mm256_loadu_ps(row + i), abs_mask));
  }
  float max_lanes[8];
  _mm256_storeu_ps(max_lanes, vmax);
  float max_abs = max_lanes[0];
  for (int k = 1; k < 8; ++k) {
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
  const __m256 vinv = _mm256_set1_ps(inv);
  const __m256 vhalf = _mm256_set1_ps(0.5f);
  const __m256 sign_mask =
      _mm256_castsi256_ps(_mm256_set1_epi32(static_cast<int32_t>(0x80000000u)));
  const __m256 vhi = _mm256_set1_ps(127.0f);
  const __m256 vlo = _mm256_set1_ps(-127.0f);
  i = 0;
  for (; i < blocks; i += 8) {
    const __m256 v = _mm256_mul_ps(_mm256_loadu_ps(row + i), vinv);
    const __m256 half = _mm256_or_ps(_mm256_and_ps(v, sign_mask), vhalf);
    __m256 r = _mm256_add_ps(v, half);
    r = _mm256_min_ps(_mm256_max_ps(r, vlo), vhi);
    int32_t code_lanes[8];
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(code_lanes),
                        _mm256_cvttps_epi32(r));
    for (int k = 0; k < 8; ++k) {
      q[i + static_cast<size_t>(k)] = static_cast<int8_t>(code_lanes[k]);
    }
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

const KernelTable kAvx2Table = {
    DotF32Avx2,  DotF64Avx2,   SqDistF64Avx2, AxpyF32Avx2,
    AxpyF64Avx2, ScaleF32Avx2, ScaleF64Avx2,
    DotI8Avx2,   QuantizeRowI8Avx2, DenseF64Avx2, GramF64Avx2,
    WeightedSumF32Avx2,
};

bool CpuHasAvx2() {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

}  // namespace

const KernelTable* Avx2Kernels() {
  static const bool supported = CpuHasAvx2();
  return supported ? &kAvx2Table : nullptr;
}

}  // namespace wym::la::kernels::internal
