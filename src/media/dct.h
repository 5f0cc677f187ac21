#pragma once

/// \file dct.h
/// 8x8 block DCT, quantization and zigzag scan — the transform layer of the
/// block video codec (media/block_codec.h) that stands in for the demo's
/// external MPEG decoder.
///
/// The decoder's per-sample loops — the inverse DCT and the YCbCr -> RGB
/// conversion — dispatch through `DctOps` (scalar / SSE4.1 / AVX2 tiers,
/// selected at runtime through the shared util/simd level — the same
/// override vision/kernels honors). All tiers are bit-identical: every lane
/// performs the same IEEE double multiply/add sequence in the same order as
/// the scalar reference, and rounding uses an explicit
/// trunc(x + copysign(0.5, x)) formula that vectorizes exactly (DESIGN.md
/// §4e).

#include <array>
#include <cstdint>

#include "util/simd.h"

namespace cobra::media {

constexpr int kDctBlockSize = 8;
using DctBlock = std::array<double, 64>;   ///< row-major 8x8 coefficients
using PixelBlock = std::array<int16_t, 64>;  ///< row-major 8x8 samples

/// Forward 8x8 DCT-II (orthonormal).
void ForwardDct(const PixelBlock& in, DctBlock* out);

/// Inverse 8x8 DCT (matches ForwardDct up to rounding), on the active tier.
void InverseDct(const DctBlock& in, PixelBlock* out);

/// Quantizer tables scaled once for a `quality` in [1, 100] (JPEG-style
/// scaling: 50 = table as-is, higher = finer); index [chroma]. The encoder
/// and decoder build one per stream instead of re-scaling per coefficient.
struct QuantTableSet {
  std::array<int, 64> quant[2];       ///< divisor per coefficient
  std::array<double, 64> dequant[2];  ///< the same divisors as multipliers
};
QuantTableSet MakeQuantTables(int quality);

/// Quantizes coefficients with a prebuilt table set.
void Quantize(const DctBlock& in, const QuantTableSet& tables, bool chroma,
              std::array<int16_t, 64>* out);
/// Convenience overload that scales the tables on every call.
void Quantize(const DctBlock& in, int quality, bool chroma,
              std::array<int16_t, 64>* out);

/// Dequantizes back to coefficient space: out[i] = double(in[i]) * table[i].
void Dequantize(const std::array<int16_t, 64>& in, const QuantTableSet& tables,
                bool chroma, DctBlock* out);
void Dequantize(const std::array<int16_t, 64>& in, int quality, bool chroma,
                DctBlock* out);

/// One tier of the decoder kernels.
struct DctOps {
  /// Inverse DCT of a row-major 8x8 coefficient block, rounded to int16
  /// samples. Bit k of `rows` (`cols`) may be clear only when input row
  /// (column) k is all zero; the kernel skips those terms, which is exact.
  /// 0xFF for both skips nothing.
  void (*idct8x8)(const double* in, uint32_t rows, uint32_t cols,
                  int16_t* out);
  /// BT.601 full-range YCbCr 4:2:0 -> packed RGB8 for the `width` pixels of
  /// luma rows `y0` and `y1` (nullptr for the last row of an odd height),
  /// which share the chroma rows `cb`/`cr` (sample x covers luma columns
  /// 2x, 2x+1). Writes 3 * width bytes to `rgb0` (and `rgb1`).
  void (*ycc_to_rgb)(const int16_t* y0, const int16_t* y1, const int16_t* cb,
                     const int16_t* cr, int width, uint8_t* rgb0,
                     uint8_t* rgb1);
};

/// Ops table for `level`, or nullptr if that tier is compiled out or the
/// CPU lacks the instructions. `kScalar` never returns nullptr.
const DctOps* DctOpsFor(util::simd::SimdLevel level);

/// The tier the codec currently dispatches to: the best compiled+supported
/// tier, capped by the shared util/simd forced level (which
/// vision::kernels::SetActiveLevel sets).
util::simd::SimdLevel ActiveDctLevel();
const DctOps& ActiveDctOps();

/// Zigzag order: index i of the scan -> position in the 8x8 block.
extern const std::array<uint8_t, 64> kZigzagOrder;

/// Reorders a quantized block into zigzag scan order.
void ZigzagScan(const std::array<int16_t, 64>& in, std::array<int16_t, 64>* out);

}  // namespace cobra::media
