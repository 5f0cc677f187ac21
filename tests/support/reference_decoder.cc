#include "support/reference_decoder.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "media/dct.h"

namespace cobra::media::reference {

namespace {

constexpr int kMb = 16;  // macroblock size in luma samples

/// One padded image plane of 16-bit samples.
struct Plane {
  int width = 0;
  int height = 0;
  std::vector<int16_t> samples;

  void Resize(int w, int h) {
    width = w;
    height = h;
    samples.assign(static_cast<size_t>(w) * h, 0);
  }
  int16_t At(int x, int y) const {
    return samples[static_cast<size_t>(y) * width + x];
  }
  void Set(int x, int y, int16_t v) {
    samples[static_cast<size_t>(y) * width + x] = v;
  }
};

struct Planes {
  Plane y, cb, cr;
};

int PadTo(int v, int multiple) {
  return (v + multiple - 1) / multiple * multiple;
}

Frame PlanesToFrame(const Planes& planes, int width, int height) {
  Frame frame(width, height);
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      double luma = planes.y.At(x, y);
      double cb = planes.cb.At(x / 2, y / 2) - 128.0;
      double cr = planes.cr.At(x / 2, y / 2) - 128.0;
      double r = luma + 1.403 * cr;
      double g = luma - 0.344 * cb - 0.714 * cr;
      double b = luma + 1.773 * cb;
      frame.At(x, y) =
          Rgb{static_cast<uint8_t>(std::clamp(r, 0.0, 255.0)),
              static_cast<uint8_t>(std::clamp(g, 0.0, 255.0)),
              static_cast<uint8_t>(std::clamp(b, 0.0, 255.0))};
    }
  }
  return frame;
}

/// The unclamped channel values PlanesToFrame computes, tallied by side.
void CountClamps(const Planes& planes, int width, int height,
                 ColorClampCounts* counts) {
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      double luma = planes.y.At(x, y);
      double cb = planes.cb.At(x / 2, y / 2) - 128.0;
      double cr = planes.cr.At(x / 2, y / 2) - 128.0;
      for (double v : {luma + 1.403 * cr, luma - 0.344 * cb - 0.714 * cr,
                       luma + 1.773 * cb}) {
        if (v < 0.0) ++counts->low;
        if (v > 255.0) ++counts->high;
      }
    }
  }
}

// ---------- bitstream ----------

bool GetVarint(const std::vector<uint8_t>& in, size_t* pos, int32_t* value) {
  uint32_t zz = 0;
  int shift = 0;
  while (*pos < in.size() && shift <= 28) {
    uint8_t byte = in[(*pos)++];
    zz |= static_cast<uint32_t>(byte & 0x7F) << shift;
    if (!(byte & 0x80)) {
      *value = static_cast<int32_t>((zz >> 1) ^ (~(zz & 1) + 1));
      return true;
    }
    shift += 7;
  }
  return false;
}

constexpr uint8_t kEob = 0xFF;

bool DecodeBlock(const std::vector<uint8_t>& in, size_t* pos,
                 std::array<int16_t, 64>* zz) {
  zz->fill(0);
  int i = 0;
  while (*pos < in.size()) {
    uint8_t run = in[(*pos)++];
    if (run == kEob) return true;
    i += run;
    int32_t level;
    if (i >= 64 || !GetVarint(in, pos, &level)) return false;
    (*zz)[static_cast<size_t>(i)] = static_cast<int16_t>(level);
    ++i;
  }
  return false;
}

// ---------- transform ----------

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

inline int16_t RoundSample(double v) {
  return static_cast<int16_t>(static_cast<int32_t>(v + std::copysign(0.5, v)));
}

void IdctScalar(const double* in, int16_t* out) {
  // Columns then rows; each inner loop is the sequential k-order sum.
  double tmp[64];
  for (int n = 0; n < 8; ++n) {
    for (int x = 0; x < 8; ++x) {
      double acc = 0.0;
      for (int k = 0; k < 8; ++k) acc += kTables.basis[k][n] * in[k * 8 + x];
      tmp[n * 8 + x] = acc;
    }
  }
  for (int y = 0; y < 8; ++y) {
    for (int n = 0; n < 8; ++n) {
      double acc = 0.0;
      for (int k = 0; k < 8; ++k) acc += kTables.basis[k][n] * tmp[y * 8 + k];
      out[y * 8 + n] = RoundSample(acc);
    }
  }
}

void Dequant64Scalar(const int16_t* in, const double* table, double* out) {
  for (int i = 0; i < 64; ++i) out[i] = static_cast<double>(in[i]) * table[i];
}

void ZigzagUnscan(const std::array<int16_t, 64>& in,
                  std::array<int16_t, 64>* out) {
  for (int i = 0; i < 64; ++i) (*out)[kZigzagOrder[i]] = in[i];
}

void ReconstructBlock(const std::array<int16_t, 64>& zz,
                      const QuantTableSet& tables, bool chroma,
                      PixelBlock* recon_out) {
  std::array<int16_t, 64> quantized;
  ZigzagUnscan(zz, &quantized);
  DctBlock dequantized;
  Dequant64Scalar(quantized.data(), tables.dequant[chroma ? 1 : 0].data(),
                  dequantized.data());
  IdctScalar(dequantized.data(), recon_out->data());
}

// ---------- macroblocks ----------

void ReadBlock(const Plane& plane, int bx, int by, PixelBlock* out) {
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      (*out)[static_cast<size_t>(y) * 8 + x] = plane.At(bx + x, by + y);
    }
  }
}

void WriteBlock(Plane* plane, int bx, int by, const PixelBlock& in,
                const PixelBlock* prediction, int dc_offset) {
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      int v = in[static_cast<size_t>(y) * 8 + x] + dc_offset;
      if (prediction) v += (*prediction)[static_cast<size_t>(y) * 8 + x];
      plane->Set(bx + x, by + y,
                 static_cast<int16_t>(std::clamp(v, 0, 255)));
    }
  }
}

enum MbMode : uint8_t { kSkip = 0, kInter = 1, kIntra = 2 };

/// The six 8x8 blocks of a macroblock: 4 luma, then Cb, Cr.
struct BlockRef {
  Plane Planes::*plane;
  int dx, dy;   ///< offset inside the macroblock, plane-local
  bool chroma;
};
constexpr BlockRef kMbBlocks[6] = {
    {&Planes::y, 0, 0, false}, {&Planes::y, 8, 0, false},
    {&Planes::y, 0, 8, false}, {&Planes::y, 8, 8, false},
    {&Planes::cb, 0, 0, true}, {&Planes::cr, 0, 0, true},
};

Status DecodeFrameBits(const std::vector<uint8_t>& bits,
                       const QuantTableSet& tables, Planes* reference,
                       int luma_w, int luma_h) {
  if (bits.empty()) return Status::ParseError("empty frame bitstream");
  size_t pos = 0;
  const char type = static_cast<char>(bits[pos++]);
  if (type != 'I' && type != 'P') {
    return Status::ParseError("bad frame type marker");
  }
  Planes current;
  current.y.Resize(luma_w, luma_h);
  current.cb.Resize(luma_w / 2, luma_h / 2);
  current.cr.Resize(luma_w / 2, luma_h / 2);

  const int mb_cols = luma_w / kMb;
  const int mb_rows = luma_h / kMb;
  for (int mby = 0; mby < mb_rows; ++mby) {
    for (int mbx = 0; mbx < mb_cols; ++mbx) {
      if (pos >= bits.size()) return Status::ParseError("truncated stream");
      const int px = mbx * kMb, py = mby * kMb;
      MbMode mode = static_cast<MbMode>(bits[pos++]);
      int mvx = 0, mvy = 0;
      if (mode == kSkip || mode == kInter) {
        if (type == 'I') return Status::ParseError("inter MB in I frame");
      }
      if (mode == kInter) {
        if (pos + 2 > bits.size()) return Status::ParseError("truncated mv");
        mvx = static_cast<int8_t>(bits[pos++]);
        mvy = static_cast<int8_t>(bits[pos++]);
      }
      if (mode == kSkip) {
        for (const BlockRef& b : kMbBlocks) {
          int bx = (b.chroma ? mbx * 8 : px) + b.dx;
          int by = (b.chroma ? mby * 8 : py) + b.dy;
          for (int y = 0; y < 8; ++y) {
            for (int x = 0; x < 8; ++x) {
              (current.*(b.plane))
                  .Set(bx + x, by + y, (reference->*(b.plane)).At(bx + x, by + y));
            }
          }
        }
        continue;
      }
      if (mode != kInter && mode != kIntra) {
        return Status::ParseError("bad macroblock mode");
      }
      if (pos >= bits.size()) return Status::ParseError("truncated cbp");
      uint8_t cbp = bits[pos++];
      for (int b = 0; b < 6; ++b) {
        const BlockRef& ref = kMbBlocks[b];
        int bx = (ref.chroma ? mbx * 8 : px) + ref.dx;
        int by = (ref.chroma ? mby * 8 : py) + ref.dy;
        PixelBlock contribution{};
        if (cbp & (1 << b)) {
          std::array<int16_t, 64> zz;
          if (!DecodeBlock(bits, &pos, &zz)) {
            return Status::ParseError("corrupt block data");
          }
          ReconstructBlock(zz, tables, ref.chroma, &contribution);
        }
        if (mode == kIntra) {
          WriteBlock(&(current.*(ref.plane)), bx, by, contribution, nullptr,
                     128);
        } else {
          int cmvx = ref.chroma ? mvx / 2 : mvx;
          int cmvy = ref.chroma ? mvy / 2 : mvy;
          PixelBlock prediction;
          ReadBlock(reference->*(ref.plane), bx + cmvx, by + cmvy, &prediction);
          WriteBlock(&(current.*(ref.plane)), bx, by, contribution, &prediction,
                     0);
        }
      }
    }
  }
  *reference = std::move(current);
  return Status::OK();
}

}  // namespace

Result<std::vector<Frame>> DecodeAll(const EncodedVideo& encoded,
                                     ColorClampCounts* clamps) {
  const int luma_w = PadTo(encoded.width(), kMb);
  const int luma_h = PadTo(encoded.height(), kMb);
  const QuantTableSet tables = MakeQuantTables(encoded.config().quality);
  Planes reference;
  std::vector<Frame> frames;
  for (int64_t f = 0; f < encoded.num_frames(); ++f) {
    COBRA_RETURN_NOT_OK(DecodeFrameBits(encoded.FrameBits(f), tables,
                                        &reference, luma_w, luma_h));
    frames.push_back(
        PlanesToFrame(reference, encoded.width(), encoded.height()));
    if (clamps != nullptr) {
      CountClamps(reference, encoded.width(), encoded.height(), clamps);
    }
  }
  return frames;
}

void Idct(const double* in, int16_t* out) { IdctScalar(in, out); }

}  // namespace cobra::media::reference
