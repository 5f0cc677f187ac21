#include "media/dct.h"

#include <algorithm>
#include <cmath>
#include <cstring>

// SIMD tiers exist only on x86-64 GCC/Clang builds with the COBRA_SIMD CMake
// option ON; everywhere else only the scalar tier is compiled and dispatch
// degenerates to it (same gating as vision/kernels.cc).
#if defined(COBRA_SIMD) && COBRA_SIMD && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define COBRA_DCT_SIMD_X86 1
#include <immintrin.h>
#else
#define COBRA_DCT_SIMD_X86 0
#endif

namespace cobra::media {

namespace {

constexpr double kPi = 3.14159265358979323846;

/// DCT basis matrix C[k][n] = s(k) cos((2n+1) k pi / 16).
struct DctTables {
  double basis[8][8];
  DctTables() {
    for (int k = 0; k < 8; ++k) {
      double s = k == 0 ? std::sqrt(1.0 / 8.0) : std::sqrt(2.0 / 8.0);
      for (int n = 0; n < 8; ++n) {
        basis[k][n] = s * std::cos((2 * n + 1) * k * kPi / 16.0);
      }
    }
  }
};
const DctTables kTables;

// JPEG Annex K quantization tables.
constexpr int kLumaQuant[64] = {
    16, 11, 10, 16, 24,  40,  51,  61,  12, 12, 14, 19, 26,  58,  60,  55,
    14, 13, 16, 24, 40,  57,  69,  56,  14, 17, 22, 29, 51,  87,  80,  62,
    18, 22, 37, 56, 68,  109, 103, 77,  24, 35, 55, 64, 81,  104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99};
constexpr int kChromaQuant[64] = {
    17, 18, 24, 47, 99, 99, 99, 99, 18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99, 47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99};

int ScaledQuant(int base, int quality) {
  quality = std::clamp(quality, 1, 100);
  int scale = quality < 50 ? 5000 / quality : 200 - 2 * quality;
  int q = (base * scale + 50) / 100;
  return std::clamp(q, 1, 255);
}

// ---------------------------------------------------------------------------
// Decoder kernels. The accumulation contract every IDCT tier follows
// exactly: each output lane sums its basis*input products sequentially in k
// order (no trees, no FMA contraction — explicit mul then add), and
// rounding is trunc(v + copysign(0.5, v)). The vector tiers carry 8 output
// lanes per row and perform the same per-lane sequence, so all tiers are
// bit-identical.
//
// Terms whose input is zero are skipped (pass 1: all-zero input rows;
// pass 2: all-zero input columns, whose pass-1 sums are +0). That is exact:
// an accumulator starts at +0.0, and in round-to-nearest x + (±0) == x for
// every x != 0 while +0 + (±0) == +0, so an accumulator never holds -0 and
// never changes when a zero product is added.
//
// Color conversion (BT.601 full range, the inverse of the encoder's
// FrameToPlanes): per chroma sample the products 1.403·cr, 0.344·cb,
// 0.714·cr and 1.773·cb (cb, cr = sample − 128); per pixel
// r = Y + 1.403·cr, g = (Y − 0.344·cb) − 0.714·cr, b = Y + 1.773·cb, each
// clamped to [0, 255] and truncated. Every tier evaluates exactly these
// IEEE operations in this order.
// ---------------------------------------------------------------------------

inline int16_t RoundSample(double v) {
  return static_cast<int16_t>(static_cast<int32_t>(v + std::copysign(0.5, v)));
}

/// The set bits of `mask` (bits 0..7), ascending, into `index`; returns the
/// count.
inline int MaskIndices(uint32_t mask, int* index) {
  int n = 0;
  for (int k = 0; k < 8; ++k) {
    if (mask >> k & 1) index[n++] = k;
  }
  return n;
}

void IdctScalar(const double* in, uint32_t rows, uint32_t cols, int16_t* out) {
  int ks[8], xs[8];
  const int nk = MaskIndices(rows, ks);
  const int nx = MaskIndices(cols, xs);
  // Columns then rows, in the vector tiers' layout: each term is added to
  // 8 independent lane sums (which the compiler may vectorize), so every
  // lane is still the sequential k-order sum over the nonzero terms.
  double tmp[64];
  for (int n = 0; n < 8; ++n) {
    double acc[8] = {};
    for (int i = 0; i < nk; ++i) {
      const double b = kTables.basis[ks[i]][n];
      const double* row = in + ks[i] * 8;
      for (int x = 0; x < 8; ++x) acc[x] += b * row[x];
    }
    std::memcpy(tmp + n * 8, acc, sizeof acc);
  }
  for (int y = 0; y < 8; ++y) {
    double acc[8] = {};
    for (int j = 0; j < nx; ++j) {
      const double t = tmp[y * 8 + xs[j]];
      const double* row = kTables.basis[xs[j]];
      for (int n = 0; n < 8; ++n) acc[n] += t * row[n];
    }
    for (int n = 0; n < 8; ++n) out[y * 8 + n] = RoundSample(acc[n]);
  }
}

constexpr double kCrToR = 1.403;
constexpr double kCbToG = 0.344;
constexpr double kCrToG = 0.714;
constexpr double kCbToB = 1.773;

inline void YccPixel(int16_t sample, double r_cr, double g_cb, double g_cr,
                     double b_cb, uint8_t* rgb) {
  const double luma = sample;
  rgb[0] = static_cast<uint8_t>(std::clamp(luma + r_cr, 0.0, 255.0));
  rgb[1] = static_cast<uint8_t>(std::clamp(luma - g_cb - g_cr, 0.0, 255.0));
  rgb[2] = static_cast<uint8_t>(std::clamp(luma + b_cb, 0.0, 255.0));
}

/// Scalar conversion of pixels [x0, width) (x0 even); the vector tiers
/// finish their rows with it.
void YccToRgbFrom(int x0, const int16_t* y0, const int16_t* y1,
                  const int16_t* cb, const int16_t* cr, int width,
                  uint8_t* rgb0, uint8_t* rgb1) {
  for (int x = x0; x < width; x += 2) {
    const double cb_c = cb[x / 2] - 128.0;
    const double cr_c = cr[x / 2] - 128.0;
    const double r_cr = kCrToR * cr_c, g_cb = kCbToG * cb_c;
    const double g_cr = kCrToG * cr_c, b_cb = kCbToB * cb_c;
    for (int p = x; p < x + 2 && p < width; ++p) {
      YccPixel(y0[p], r_cr, g_cb, g_cr, b_cb, rgb0 + 3 * p);
      if (y1 != nullptr) YccPixel(y1[p], r_cr, g_cb, g_cr, b_cb, rgb1 + 3 * p);
    }
  }
}

void YccToRgbScalar(const int16_t* y0, const int16_t* y1, const int16_t* cb,
                    const int16_t* cr, int width, uint8_t* rgb0,
                    uint8_t* rgb1) {
  YccToRgbFrom(0, y0, y1, cb, cr, width, rgb0, rgb1);
}

constexpr DctOps kScalarDctOps = {IdctScalar, YccToRgbScalar};

#if COBRA_DCT_SIMD_X86

// ---------------- SSE4.1 tier: 8 lanes as four __m128d ----------------

__attribute__((target("sse4.1"))) inline __m128d TruncRound128(__m128d v) {
  const __m128d sign = _mm_and_pd(v, _mm_set1_pd(-0.0));
  const __m128d half = _mm_or_pd(_mm_set1_pd(0.5), sign);
  return _mm_round_pd(_mm_add_pd(v, half),
                      _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
}

__attribute__((target("sse4.1"))) void IdctSse41(const double* in,
                                                 uint32_t rows, uint32_t cols,
                                                 int16_t* out) {
  int ks[8], xs[8];
  const int nk = MaskIndices(rows, ks);
  const int nx = MaskIndices(cols, xs);
  double tmp[64];
  // Pass 1: tmp[n][x] = sum_k basis[k][n] * in[k][x]; lanes over x.
  for (int n = 0; n < 8; ++n) {
    __m128d a0 = _mm_setzero_pd(), a1 = _mm_setzero_pd();
    __m128d a2 = _mm_setzero_pd(), a3 = _mm_setzero_pd();
    for (int i = 0; i < nk; ++i) {
      const __m128d b = _mm_set1_pd(kTables.basis[ks[i]][n]);
      const double* row = in + ks[i] * 8;
      a0 = _mm_add_pd(a0, _mm_mul_pd(b, _mm_loadu_pd(row)));
      a1 = _mm_add_pd(a1, _mm_mul_pd(b, _mm_loadu_pd(row + 2)));
      a2 = _mm_add_pd(a2, _mm_mul_pd(b, _mm_loadu_pd(row + 4)));
      a3 = _mm_add_pd(a3, _mm_mul_pd(b, _mm_loadu_pd(row + 6)));
    }
    _mm_storeu_pd(tmp + n * 8, a0);
    _mm_storeu_pd(tmp + n * 8 + 2, a1);
    _mm_storeu_pd(tmp + n * 8 + 4, a2);
    _mm_storeu_pd(tmp + n * 8 + 6, a3);
  }
  // Pass 2: out[y][n] = sum_k basis[k][n] * tmp[y][k]; lanes over n
  // (basis row k is contiguous over n).
  for (int y = 0; y < 8; ++y) {
    __m128d a0 = _mm_setzero_pd(), a1 = _mm_setzero_pd();
    __m128d a2 = _mm_setzero_pd(), a3 = _mm_setzero_pd();
    for (int j = 0; j < nx; ++j) {
      const __m128d t = _mm_set1_pd(tmp[y * 8 + xs[j]]);
      const double* row = kTables.basis[xs[j]];
      a0 = _mm_add_pd(a0, _mm_mul_pd(t, _mm_loadu_pd(row)));
      a1 = _mm_add_pd(a1, _mm_mul_pd(t, _mm_loadu_pd(row + 2)));
      a2 = _mm_add_pd(a2, _mm_mul_pd(t, _mm_loadu_pd(row + 4)));
      a3 = _mm_add_pd(a3, _mm_mul_pd(t, _mm_loadu_pd(row + 6)));
    }
    const __m128i i0 = _mm_cvtpd_epi32(TruncRound128(a0));  // 2 ints, lanes 0-1
    const __m128i i1 = _mm_cvtpd_epi32(TruncRound128(a1));
    const __m128i i2 = _mm_cvtpd_epi32(TruncRound128(a2));
    const __m128i i3 = _mm_cvtpd_epi32(TruncRound128(a3));
    const __m128i lo = _mm_unpacklo_epi64(i0, i1);  // ints 0..3
    const __m128i hi = _mm_unpacklo_epi64(i2, i3);  // ints 4..7
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + y * 8),
                     _mm_packs_epi32(lo, hi));
  }
}

/// Stores 8 pixels as 24 interleaved RGB bytes from rg = [r0..r7 g0..g7]
/// and b = [b0..b7 ...].
__attribute__((target("sse4.1"))) inline void StoreRgb8(__m128i rg, __m128i b,
                                                        uint8_t* out) {
  const __m128i rg_lo = _mm_setr_epi8(0, 8, -1, 1, 9, -1, 2, 10, -1, 3, 11,
                                      -1, 4, 12, -1, 5);
  const __m128i b_lo = _mm_setr_epi8(-1, -1, 0, -1, -1, 1, -1, -1, 2, -1, -1,
                                     3, -1, -1, 4, -1);
  const __m128i rg_hi = _mm_setr_epi8(13, -1, 6, 14, -1, 7, 15, -1, -1, -1,
                                      -1, -1, -1, -1, -1, -1);
  const __m128i b_hi = _mm_setr_epi8(-1, 5, -1, -1, 6, -1, -1, 7, -1, -1, -1,
                                     -1, -1, -1, -1, -1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out),
                   _mm_or_si128(_mm_shuffle_epi8(rg, rg_lo),
                                _mm_shuffle_epi8(b, b_lo)));
  _mm_storel_epi64(reinterpret_cast<__m128i*>(out + 16),
                   _mm_or_si128(_mm_shuffle_epi8(rg, rg_hi),
                                _mm_shuffle_epi8(b, b_hi)));
}

/// Clamp to [0, 255] and truncate two pairs of lanes to 4 int32s.
__attribute__((target("sse4.1"))) inline __m128i ClampTrunc128(__m128d a,
                                                               __m128d b) {
  const __m128d zero = _mm_setzero_pd(), top = _mm_set1_pd(255.0);
  const __m128i ia = _mm_cvttpd_epi32(_mm_min_pd(_mm_max_pd(a, zero), top));
  const __m128i ib = _mm_cvttpd_epi32(_mm_min_pd(_mm_max_pd(b, zero), top));
  return _mm_unpacklo_epi64(ia, ib);
}

/// The four chroma products of two chroma samples, each duplicated to the
/// samples' two luma columns: term[p][j] covers luma columns 2j, 2j+1.
struct Terms128 {
  __m128d r_cr[2], g_cb[2], g_cr[2], b_cb[2];
};

__attribute__((target("sse4.1"))) inline void YccRow8Sse41(
    const int16_t* y, const Terms128& lo, const Terms128& hi, uint8_t* out) {
  const __m128i l16 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(y));
  const __m128i l32_lo = _mm_cvtepi16_epi32(l16);
  const __m128i l32_hi = _mm_cvtepi16_epi32(_mm_srli_si128(l16, 8));
  const __m128d l[4] = {_mm_cvtepi32_pd(l32_lo),
                        _mm_cvtepi32_pd(_mm_srli_si128(l32_lo, 8)),
                        _mm_cvtepi32_pd(l32_hi),
                        _mm_cvtepi32_pd(_mm_srli_si128(l32_hi, 8))};
  const Terms128* t[2] = {&lo, &hi};
  __m128d r[4], g[4], b[4];
  for (int q = 0; q < 4; ++q) {
    const Terms128& tq = *t[q / 2];
    r[q] = _mm_add_pd(l[q], tq.r_cr[q % 2]);
    g[q] = _mm_sub_pd(_mm_sub_pd(l[q], tq.g_cb[q % 2]), tq.g_cr[q % 2]);
    b[q] = _mm_add_pd(l[q], tq.b_cb[q % 2]);
  }
  const __m128i r16 = _mm_packs_epi32(ClampTrunc128(r[0], r[1]),
                                      ClampTrunc128(r[2], r[3]));
  const __m128i g16 = _mm_packs_epi32(ClampTrunc128(g[0], g[1]),
                                      ClampTrunc128(g[2], g[3]));
  const __m128i b16 = _mm_packs_epi32(ClampTrunc128(b[0], b[1]),
                                      ClampTrunc128(b[2], b[3]));
  StoreRgb8(_mm_packus_epi16(r16, g16), _mm_packus_epi16(b16, b16), out);
}

/// Chroma products of the two samples at `cb`/`cr`.
__attribute__((target("sse4.1"))) inline Terms128 ChromaTerms128(
    const int16_t* cb, const int16_t* cr) {
  const __m128d k128 = _mm_set1_pd(128.0);
  int32_t cb2, cr2;
  std::memcpy(&cb2, cb, sizeof cb2);
  std::memcpy(&cr2, cr, sizeof cr2);
  const __m128d cb_c = _mm_sub_pd(
      _mm_cvtepi32_pd(_mm_cvtepi16_epi32(_mm_cvtsi32_si128(cb2))), k128);
  const __m128d cr_c = _mm_sub_pd(
      _mm_cvtepi32_pd(_mm_cvtepi16_epi32(_mm_cvtsi32_si128(cr2))), k128);
  const __m128d r_cr = _mm_mul_pd(_mm_set1_pd(kCrToR), cr_c);
  const __m128d g_cb = _mm_mul_pd(_mm_set1_pd(kCbToG), cb_c);
  const __m128d g_cr = _mm_mul_pd(_mm_set1_pd(kCrToG), cr_c);
  const __m128d b_cb = _mm_mul_pd(_mm_set1_pd(kCbToB), cb_c);
  return Terms128{{_mm_unpacklo_pd(r_cr, r_cr), _mm_unpackhi_pd(r_cr, r_cr)},
                  {_mm_unpacklo_pd(g_cb, g_cb), _mm_unpackhi_pd(g_cb, g_cb)},
                  {_mm_unpacklo_pd(g_cr, g_cr), _mm_unpackhi_pd(g_cr, g_cr)},
                  {_mm_unpacklo_pd(b_cb, b_cb), _mm_unpackhi_pd(b_cb, b_cb)}};
}

__attribute__((target("sse4.1"))) void YccToRgbSse41(
    const int16_t* y0, const int16_t* y1, const int16_t* cb, const int16_t* cr,
    int width, uint8_t* rgb0, uint8_t* rgb1) {
  int x = 0;
  for (; x + 8 <= width; x += 8) {
    const Terms128 lo = ChromaTerms128(cb + x / 2, cr + x / 2);
    const Terms128 hi = ChromaTerms128(cb + x / 2 + 2, cr + x / 2 + 2);
    YccRow8Sse41(y0 + x, lo, hi, rgb0 + 3 * x);
    if (y1 != nullptr) YccRow8Sse41(y1 + x, lo, hi, rgb1 + 3 * x);
  }
  YccToRgbFrom(x, y0, y1, cb, cr, width, rgb0, rgb1);
}

constexpr DctOps kSse41DctOps = {IdctSse41, YccToRgbSse41};

// ---------------- AVX2 tier: 8 lanes as two __m256d ----------------

__attribute__((target("avx2"))) inline __m256d TruncRound256(__m256d v) {
  const __m256d sign = _mm256_and_pd(v, _mm256_set1_pd(-0.0));
  const __m256d half = _mm256_or_pd(_mm256_set1_pd(0.5), sign);
  return _mm256_round_pd(_mm256_add_pd(v, half),
                         _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
}

__attribute__((target("avx2"))) void IdctAvx2(const double* in, uint32_t rows,
                                              uint32_t cols, int16_t* out) {
  int ks[8], xs[8];
  const int nk = MaskIndices(rows, ks);
  const int nx = MaskIndices(cols, xs);
  double tmp[64];
  for (int n = 0; n < 8; ++n) {
    __m256d lo = _mm256_setzero_pd(), hi = _mm256_setzero_pd();
    for (int i = 0; i < nk; ++i) {
      const __m256d b = _mm256_set1_pd(kTables.basis[ks[i]][n]);
      const double* row = in + ks[i] * 8;
      lo = _mm256_add_pd(lo, _mm256_mul_pd(b, _mm256_loadu_pd(row)));
      hi = _mm256_add_pd(hi, _mm256_mul_pd(b, _mm256_loadu_pd(row + 4)));
    }
    _mm256_storeu_pd(tmp + n * 8, lo);
    _mm256_storeu_pd(tmp + n * 8 + 4, hi);
  }
  for (int y = 0; y < 8; ++y) {
    __m256d lo = _mm256_setzero_pd(), hi = _mm256_setzero_pd();
    for (int j = 0; j < nx; ++j) {
      const __m256d t = _mm256_set1_pd(tmp[y * 8 + xs[j]]);
      const double* row = kTables.basis[xs[j]];
      lo = _mm256_add_pd(lo, _mm256_mul_pd(t, _mm256_loadu_pd(row)));
      hi = _mm256_add_pd(hi, _mm256_mul_pd(t, _mm256_loadu_pd(row + 4)));
    }
    const __m128i i_lo = _mm256_cvtpd_epi32(TruncRound256(lo));  // ints 0..3
    const __m128i i_hi = _mm256_cvtpd_epi32(TruncRound256(hi));  // ints 4..7
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + y * 8),
                     _mm_packs_epi32(i_lo, i_hi));
  }
}

/// Clamp to [0, 255] and truncate two quads of lanes to 8 int16s.
__attribute__((target("avx2"))) inline __m128i ClampTrunc256(__m256d a,
                                                             __m256d b) {
  const __m256d zero = _mm256_setzero_pd(), top = _mm256_set1_pd(255.0);
  return _mm_packs_epi32(
      _mm256_cvttpd_epi32(_mm256_min_pd(_mm256_max_pd(a, zero), top)),
      _mm256_cvttpd_epi32(_mm256_min_pd(_mm256_max_pd(b, zero), top)));
}

/// The four chroma products of four chroma samples, each duplicated to the
/// samples' two luma columns: [0] covers luma columns 0..3, [1] 4..7.
struct Terms256 {
  __m256d r_cr[2], g_cb[2], g_cr[2], b_cb[2];
};

__attribute__((target("avx2"))) inline void YccRow8Avx2(const int16_t* y,
                                                        const Terms256& t,
                                                        uint8_t* out) {
  const __m256i l32 = _mm256_cvtepi16_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(y)));
  const __m256d l[2] = {_mm256_cvtepi32_pd(_mm256_castsi256_si128(l32)),
                        _mm256_cvtepi32_pd(_mm256_extracti128_si256(l32, 1))};
  __m256d r[2], g[2], b[2];
  for (int h = 0; h < 2; ++h) {
    r[h] = _mm256_add_pd(l[h], t.r_cr[h]);
    g[h] = _mm256_sub_pd(_mm256_sub_pd(l[h], t.g_cb[h]), t.g_cr[h]);
    b[h] = _mm256_add_pd(l[h], t.b_cb[h]);
  }
  const __m128i b16 = ClampTrunc256(b[0], b[1]);
  StoreRgb8(_mm_packus_epi16(ClampTrunc256(r[0], r[1]),
                             ClampTrunc256(g[0], g[1])),
            _mm_packus_epi16(b16, b16), out);
}

__attribute__((target("avx2"))) inline void Duplicate256(__m256d v,
                                                         __m256d* pair) {
  pair[0] = _mm256_permute4x64_pd(v, _MM_SHUFFLE(1, 1, 0, 0));
  pair[1] = _mm256_permute4x64_pd(v, _MM_SHUFFLE(3, 3, 2, 2));
}

__attribute__((target("avx2"))) void YccToRgbAvx2(
    const int16_t* y0, const int16_t* y1, const int16_t* cb, const int16_t* cr,
    int width, uint8_t* rgb0, uint8_t* rgb1) {
  const __m256d k128 = _mm256_set1_pd(128.0);
  int x = 0;
  for (; x + 8 <= width; x += 8) {
    const __m256d cb_c = _mm256_sub_pd(
        _mm256_cvtepi32_pd(_mm_cvtepi16_epi32(
            _mm_loadl_epi64(reinterpret_cast<const __m128i*>(cb + x / 2)))),
        k128);
    const __m256d cr_c = _mm256_sub_pd(
        _mm256_cvtepi32_pd(_mm_cvtepi16_epi32(
            _mm_loadl_epi64(reinterpret_cast<const __m128i*>(cr + x / 2)))),
        k128);
    Terms256 t;
    Duplicate256(_mm256_mul_pd(_mm256_set1_pd(kCrToR), cr_c), t.r_cr);
    Duplicate256(_mm256_mul_pd(_mm256_set1_pd(kCbToG), cb_c), t.g_cb);
    Duplicate256(_mm256_mul_pd(_mm256_set1_pd(kCrToG), cr_c), t.g_cr);
    Duplicate256(_mm256_mul_pd(_mm256_set1_pd(kCbToB), cb_c), t.b_cb);
    YccRow8Avx2(y0 + x, t, rgb0 + 3 * x);
    if (y1 != nullptr) YccRow8Avx2(y1 + x, t, rgb1 + 3 * x);
  }
  YccToRgbFrom(x, y0, y1, cb, cr, width, rgb0, rgb1);
}

constexpr DctOps kAvx2DctOps = {IdctAvx2, YccToRgbAvx2};

#endif  // COBRA_DCT_SIMD_X86

}  // namespace

const std::array<uint8_t, 64> kZigzagOrder = {
    0,  1,  8,  16, 9,  2,  3,  10, 17, 24, 32, 25, 18, 11, 4,  5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6,  7,  14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63};

const DctOps* DctOpsFor(util::simd::SimdLevel level) {
  using util::simd::SimdLevel;
  if (level == SimdLevel::kScalar) return &kScalarDctOps;
#if COBRA_DCT_SIMD_X86
  if (static_cast<int>(level) >
      static_cast<int>(util::simd::CpuBestLevel())) {
    return nullptr;
  }
  if (level == SimdLevel::kSse41) return &kSse41DctOps;
  if (level == SimdLevel::kAvx2) return &kAvx2DctOps;
#endif
  return nullptr;
}

util::simd::SimdLevel ActiveDctLevel() {
  const int forced = util::simd::ForcedLevel();
  int level = forced < 0 ? static_cast<int>(util::simd::CpuBestLevel()) : forced;
  while (level > 0 &&
         DctOpsFor(static_cast<util::simd::SimdLevel>(level)) == nullptr) {
    --level;
  }
  return static_cast<util::simd::SimdLevel>(level);
}

const DctOps& ActiveDctOps() { return *DctOpsFor(ActiveDctLevel()); }

void ForwardDct(const PixelBlock& in, DctBlock* out) {
  // Separable: rows then columns.
  double tmp[64];
  for (int y = 0; y < 8; ++y) {
    for (int k = 0; k < 8; ++k) {
      double acc = 0.0;
      for (int n = 0; n < 8; ++n) acc += kTables.basis[k][n] * in[y * 8 + n];
      tmp[y * 8 + k] = acc;
    }
  }
  for (int x = 0; x < 8; ++x) {
    for (int k = 0; k < 8; ++k) {
      double acc = 0.0;
      for (int n = 0; n < 8; ++n) acc += kTables.basis[k][n] * tmp[n * 8 + x];
      (*out)[k * 8 + x] = acc;
    }
  }
}

void InverseDct(const DctBlock& in, PixelBlock* out) {
  uint32_t rows = 0, cols = 0;
  for (int i = 0; i < 64; ++i) {
    if (in[static_cast<size_t>(i)] != 0.0) {
      rows |= 1u << (i / 8);
      cols |= 1u << (i % 8);
    }
  }
  ActiveDctOps().idct8x8(in.data(), rows, cols, out->data());
}

QuantTableSet MakeQuantTables(int quality) {
  QuantTableSet tables;
  for (int chroma = 0; chroma < 2; ++chroma) {
    const int* base = chroma ? kChromaQuant : kLumaQuant;
    for (int i = 0; i < 64; ++i) {
      const int q = ScaledQuant(base[i], quality);
      tables.quant[chroma][static_cast<size_t>(i)] = q;
      tables.dequant[chroma][static_cast<size_t>(i)] = static_cast<double>(q);
    }
  }
  return tables;
}

void Quantize(const DctBlock& in, const QuantTableSet& tables, bool chroma,
              std::array<int16_t, 64>* out) {
  const std::array<int, 64>& q = tables.quant[chroma ? 1 : 0];
  for (int i = 0; i < 64; ++i) {
    (*out)[static_cast<size_t>(i)] =
        static_cast<int16_t>(std::lround(in[static_cast<size_t>(i)] /
                                         q[static_cast<size_t>(i)]));
  }
}

void Quantize(const DctBlock& in, int quality, bool chroma,
              std::array<int16_t, 64>* out) {
  Quantize(in, MakeQuantTables(quality), chroma, out);
}

void Dequantize(const std::array<int16_t, 64>& in, const QuantTableSet& tables,
                bool chroma, DctBlock* out) {
  const std::array<double, 64>& table = tables.dequant[chroma ? 1 : 0];
  for (size_t i = 0; i < 64; ++i) (*out)[i] = static_cast<double>(in[i]) * table[i];
}

void Dequantize(const std::array<int16_t, 64>& in, int quality, bool chroma,
                DctBlock* out) {
  Dequantize(in, MakeQuantTables(quality), chroma, out);
}

void ZigzagScan(const std::array<int16_t, 64>& in,
                std::array<int16_t, 64>* out) {
  for (int i = 0; i < 64; ++i) (*out)[i] = in[kZigzagOrder[i]];
}

}  // namespace cobra::media
