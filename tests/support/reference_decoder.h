#pragma once

/// \file reference_decoder.h
/// The retained reference decoder for the block codec: the straightforward
/// per-pixel, per-coefficient decoder (scalar dequantization, full 8x8
/// scalar IDCT with no zero skipping, per-pixel color conversion) that the
/// production decoder in media/block_codec.cc must match bit for bit on
/// every SIMD tier. Test-only: it reads out of bounds on hostile streams
/// (motion vectors are not checked), so feed it encoder output only.

#include <cstdint>
#include <vector>

#include "media/block_codec.h"
#include "media/frame.h"
#include "util/status.h"

namespace cobra::media::reference {

/// How often the color conversion clamped a channel, over all pixels of
/// all decoded frames: below 0 and above 255.
struct ColorClampCounts {
  int64_t low = 0;
  int64_t high = 0;
};

/// Decodes every frame of `encoded` in order. `clamps`, when given,
/// accumulates the color-conversion clamp counts.
Result<std::vector<Frame>> DecodeAll(const EncodedVideo& encoded,
                                     ColorClampCounts* clamps = nullptr);

/// The reference 8x8 inverse DCT: columns then rows, every term summed.
void Idct(const double* in, int16_t* out);

}  // namespace cobra::media::reference
