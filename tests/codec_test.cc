#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>

#include "detectors/compressed_shot_boundary.h"
#include "media/block_codec.h"
#include "media/dct.h"
#include "media/tennis_synthesizer.h"
#include "support/reference_decoder.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/stats.h"

namespace cobra::media {
namespace {

// ---------- DCT ----------

TEST(DctTest, RoundTripIsLossless) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    PixelBlock block;
    for (auto& v : block) v = static_cast<int16_t>(rng.NextInt(-255, 255));
    DctBlock coeffs;
    ForwardDct(block, &coeffs);
    PixelBlock back;
    InverseDct(coeffs, &back);
    for (int i = 0; i < 64; ++i) {
      EXPECT_NEAR(back[static_cast<size_t>(i)], block[static_cast<size_t>(i)], 1)
          << "trial " << trial << " index " << i;
    }
  }
}

TEST(DctTest, DcCoefficientIsScaledMean) {
  PixelBlock block;
  block.fill(100);
  DctBlock coeffs;
  ForwardDct(block, &coeffs);
  EXPECT_NEAR(coeffs[0], 100.0 * 8.0, 1e-6);  // orthonormal: DC = 8 * mean
  for (int i = 1; i < 64; ++i) EXPECT_NEAR(coeffs[i], 0.0, 1e-9);
}

TEST(DctTest, ParsevalEnergyPreserved) {
  Rng rng(9);
  PixelBlock block;
  for (auto& v : block) v = static_cast<int16_t>(rng.NextInt(-128, 127));
  DctBlock coeffs;
  ForwardDct(block, &coeffs);
  double energy_pixels = 0, energy_coeffs = 0;
  for (int i = 0; i < 64; ++i) {
    energy_pixels += static_cast<double>(block[static_cast<size_t>(i)]) *
                     block[static_cast<size_t>(i)];
    energy_coeffs += coeffs[static_cast<size_t>(i)] * coeffs[static_cast<size_t>(i)];
  }
  EXPECT_NEAR(energy_pixels, energy_coeffs, energy_pixels * 1e-9);
}

TEST(DctTest, QuantizationHigherQualityLowerError) {
  Rng rng(11);
  PixelBlock block;
  for (auto& v : block) v = static_cast<int16_t>(rng.NextInt(-128, 127));
  DctBlock coeffs;
  ForwardDct(block, &coeffs);
  auto error_at = [&](int quality) {
    std::array<int16_t, 64> q;
    Quantize(coeffs, quality, false, &q);
    DctBlock back;
    Dequantize(q, quality, false, &back);
    double err = 0;
    for (int i = 0; i < 64; ++i) err += std::fabs(back[i] - coeffs[i]);
    return err;
  };
  EXPECT_LT(error_at(95), error_at(50));
  EXPECT_LT(error_at(50), error_at(10));
}

TEST(DctTest, ZigzagRoundTrip) {
  std::array<int16_t, 64> block;
  for (int i = 0; i < 64; ++i) block[static_cast<size_t>(i)] = static_cast<int16_t>(i * 3 - 90);
  std::array<int16_t, 64> zz, back;
  ZigzagScan(block, &zz);
  for (size_t i = 0; i < 64; ++i) back[kZigzagOrder[i]] = zz[i];  // unscan
  EXPECT_EQ(block, back);
  // Zigzag starts at DC and visits each position once.
  EXPECT_EQ(kZigzagOrder[0], 0);
  std::array<bool, 64> seen{};
  for (uint8_t p : kZigzagOrder) seen[p] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

// ---------- Codec ----------

TennisSynthConfig CodecVideoConfig() {
  TennisSynthConfig config;
  config.width = 96;
  config.height = 80;
  config.num_points = 2;
  config.min_court_frames = 50;
  config.max_court_frames = 70;
  config.min_cutaway_frames = 10;
  config.max_cutaway_frames = 16;
  config.noise_sigma = 2.0;
  config.seed = 3;
  return config;
}

const Broadcast& CodecBroadcast() {
  static const Broadcast* b = [] {
    auto r = TennisBroadcastSynthesizer(CodecVideoConfig()).Synthesize();
    EXPECT_TRUE(r.ok());
    return new Broadcast(std::move(r).TakeValue());
  }();
  return *b;
}

TEST(CodecTest, RejectsBadConfig) {
  const Broadcast& b = CodecBroadcast();
  CodecConfig config;
  config.quality = 0;
  EXPECT_FALSE(BlockVideoEncoder::Encode(*b.video, config).ok());
  config = CodecConfig{};
  config.gop_size = 0;
  EXPECT_FALSE(BlockVideoEncoder::Encode(*b.video, config).ok());
  MemoryVideo empty({}, 25.0);
  EXPECT_FALSE(BlockVideoEncoder::Encode(empty, CodecConfig{}).ok());
}

TEST(CodecTest, CompressesAndReconstructsFaithfully) {
  const Broadcast& b = CodecBroadcast();
  auto encoded = BlockVideoEncoder::Encode(*b.video).TakeValue();
  EXPECT_EQ(encoded.num_frames(), b.video->num_frames());
  EXPECT_GT(encoded.CompressionRatio(), 4.0)
      << "expected at least 4x over raw RGB";

  CodedVideoSource decoded(std::move(encoded));
  RunningStats psnr;
  for (int64_t f = 0; f < decoded.num_frames(); f += 7) {
    Frame original = b.video->GetFrame(f).TakeValue();
    Frame reconstructed = decoded.GetFrame(f).TakeValue();
    psnr.Add(ComputePsnr(original, reconstructed).TakeValue());
  }
  // The crowd mosaics (3px random-hue blocks) are chroma content that 4:2:0
  // subsampling cannot represent; ~25 dB overall is the content's bound,
  // not a codec defect (verified against an I-frame-only q=100 encode).
  EXPECT_GT(psnr.min(), 22.0) << "mean PSNR " << psnr.mean();
  EXPECT_GT(psnr.mean(), 24.0);
}

TEST(CodecTest, QualityKnobTradesSizeForFidelity) {
  const Broadcast& b = CodecBroadcast();
  CodecConfig low, high;
  low.quality = 30;
  high.quality = 90;
  auto coarse = BlockVideoEncoder::Encode(*b.video, low).TakeValue();
  auto fine = BlockVideoEncoder::Encode(*b.video, high).TakeValue();
  EXPECT_LT(coarse.TotalBytes(), fine.TotalBytes());

  CodedVideoSource coarse_video(std::move(coarse));
  CodedVideoSource fine_video(std::move(fine));
  Frame original = b.video->GetFrame(20).TakeValue();
  double coarse_psnr =
      ComputePsnr(original, coarse_video.GetFrame(20).TakeValue()).TakeValue();
  double fine_psnr =
      ComputePsnr(original, fine_video.GetFrame(20).TakeValue()).TakeValue();
  EXPECT_GT(fine_psnr, coarse_psnr);
}

TEST(CodecTest, RandomAccessMatchesSequentialDecode) {
  const Broadcast& b = CodecBroadcast();
  auto encoded = BlockVideoEncoder::Encode(*b.video).TakeValue();
  CodedVideoSource sequential(encoded);
  CodedVideoSource random(std::move(encoded));

  // Decode a few frames sequentially on one decoder.
  std::vector<Frame> expected;
  for (int64_t f = 0; f <= 40; ++f) {
    expected.push_back(sequential.GetFrame(f).TakeValue());
  }
  // Access the same frames out of order on the other.
  for (int64_t f : {40, 0, 25, 13, 39, 1, 40}) {
    Frame got = random.GetFrame(f).TakeValue();
    const Frame& want = expected[static_cast<size_t>(f)];
    ASSERT_TRUE(got.SameSizeAs(want));
    EXPECT_TRUE(std::equal(got.pixels().begin(), got.pixels().end(),
                           want.pixels().begin(),
                           [](const Rgb& x, const Rgb& y) { return x == y; }))
        << "frame " << f << " differs between access orders";
  }
}

TEST(CodecTest, GopStructure) {
  const Broadcast& b = CodecBroadcast();
  CodecConfig config;
  config.gop_size = 10;
  auto encoded = BlockVideoEncoder::Encode(*b.video, config).TakeValue();
  for (int64_t f = 0; f < encoded.num_frames(); ++f) {
    EXPECT_EQ(encoded.Stats(f).intra_frame, f % 10 == 0) << "frame " << f;
    EXPECT_GT(encoded.Stats(f).bytes, 0u);
  }
  // P frames should be smaller than I frames on average.
  double i_bytes = 0, p_bytes = 0;
  int i_count = 0, p_count = 0;
  for (int64_t f = 0; f < encoded.num_frames(); ++f) {
    if (encoded.Stats(f).intra_frame) {
      i_bytes += static_cast<double>(encoded.Stats(f).bytes);
      ++i_count;
    } else {
      p_bytes += static_cast<double>(encoded.Stats(f).bytes);
      ++p_count;
    }
  }
  EXPECT_LT(p_bytes / p_count, 0.6 * i_bytes / i_count);
}

TEST(CodecTest, OutOfRangeAccess) {
  const Broadcast& b = CodecBroadcast();
  auto encoded = BlockVideoEncoder::Encode(*b.video).TakeValue();
  CodedVideoSource decoded(std::move(encoded));
  EXPECT_FALSE(decoded.GetFrame(-1).ok());
  EXPECT_FALSE(decoded.GetFrame(decoded.num_frames()).ok());
}

TEST(PsnrTest, Properties) {
  Frame a(8, 8, Rgb{100, 100, 100});
  EXPECT_DOUBLE_EQ(ComputePsnr(a, a).TakeValue(), 99.0);
  Frame b(8, 8, Rgb{110, 100, 100});
  double psnr = ComputePsnr(a, b).TakeValue();
  EXPECT_GT(psnr, 20.0);
  EXPECT_LT(psnr, 40.0);
  Frame c(4, 4);
  EXPECT_FALSE(ComputePsnr(a, c).ok());
}

// ---------- Compressed-domain shot detection ----------

TEST(CompressedShotTest, IntraRatioSpikesAtCuts) {
  const Broadcast& b = CodecBroadcast();
  auto encoded = BlockVideoEncoder::Encode(*b.video).TakeValue();
  auto signal = detectors::CompressedShotBoundaryDetector::Signal(encoded);
  for (int64_t cut : b.truth.CutPositions()) {
    EXPECT_GT(signal[static_cast<size_t>(cut)], 0.4)
        << "no intra-ratio spike at cut " << cut;
  }
}

TEST(CompressedShotTest, DetectsCutsFromStatistics) {
  const Broadcast& b = CodecBroadcast();
  auto encoded = BlockVideoEncoder::Encode(*b.video).TakeValue();
  detectors::CompressedShotBoundaryDetector detector;
  auto cuts = detector.Detect(encoded);
  PrecisionRecall pr = MatchWithTolerance(b.truth.CutPositions(), cuts, 2);
  EXPECT_GE(pr.F1(), 0.9) << pr.ToString();
}

TEST(CompressedShotTest, FrameZeroNeverFires) {
  const Broadcast& b = CodecBroadcast();
  auto encoded = BlockVideoEncoder::Encode(*b.video).TakeValue();
  detectors::CompressedShotBoundaryDetector detector;
  for (int64_t cut : detector.Detect(encoded)) EXPECT_GT(cut, 0);
}

// ---------- Decoder identity with the reference decoder ----------

bool FramesIdentical(const Frame& a, const Frame& b) {
  return a.SameSizeAs(b) &&
         std::memcmp(a.pixels().data(), b.pixels().data(),
                     a.pixels().size() * sizeof(Rgb)) == 0;
}

/// The SIMD tiers this binary can run, scalar first.
std::vector<util::simd::SimdLevel> RunnableTiers() {
  std::vector<util::simd::SimdLevel> tiers;
  for (auto level : {util::simd::SimdLevel::kScalar,
                     util::simd::SimdLevel::kSse41,
                     util::simd::SimdLevel::kAvx2}) {
    if (DctOpsFor(level) != nullptr) tiers.push_back(level);
  }
  return tiers;
}

/// Forces the kernel tier for one scope.
class ScopedTier {
 public:
  explicit ScopedTier(util::simd::SimdLevel level) {
    util::simd::SetForcedLevel(static_cast<int>(level));
  }
  ~ScopedTier() { util::simd::SetForcedLevel(-1); }
};

/// Odd-sized (53x37: partial macroblocks, an odd last column and row)
/// frames built to stress the decoder: a moving gradient with saturated
/// shapes (motion vectors, ringing), static black and white stretches (skip
/// macroblocks, both sample clamps), a shifting checkerboard of saturated
/// primaries and secondaries (both color-conversion clamps), and noise
/// (dense coefficient blocks, intra macroblocks inside P frames).
const MemoryVideo& IdentityVideo() {
  static const MemoryVideo* video = [] {
    constexpr int kW = 53, kH = 37;
    const Rgb kSaturated[6] = {{255, 0, 0},   {0, 255, 0},   {0, 0, 255},
                               {255, 255, 0}, {255, 0, 255}, {0, 255, 255}};
    Rng rng(17);
    std::vector<Frame> frames;
    for (int t = 0; t < 60; ++t) {
      Frame frame(kW, kH);
      for (int y = 0; y < kH; ++y) {
        for (int x = 0; x < kW; ++x) {
          Rgb& p = frame.At(x, y);
          if (t < 20) {
            p = Rgb{static_cast<uint8_t>((x + t) * 4), static_cast<uint8_t>(y * 6),
                    static_cast<uint8_t>(255 - (x + t) * 4)};
          } else if (t < 25) {
            p = Rgb{0, 0, 0};
          } else if (t < 30) {
            p = Rgb{255, 255, 255};
          } else if (t < 40) {
            const int cell = ((x + 2 * t) / 6 + y / 6) % 6;
            p = kSaturated[cell];
          } else {
            const bool still = x < kW / 2;
            const auto v = static_cast<uint8_t>(still ? (x * y) & 255
                                                      : rng.NextInt(0, 255));
            p = Rgb{v, static_cast<uint8_t>(255 - v),
                    static_cast<uint8_t>(still ? 128 : rng.NextInt(0, 255))};
          }
        }
      }
      if (t < 20) {
        frame.FillEllipse(10 + t, 12, 7, 6, Rgb{255, 0, 0});
        frame.FillRect(RectI{30 - t / 2, 20, 10, 10}, Rgb{0, 0, 255});
        frame.FillRect(RectI{5, 28, 12, 6}, Rgb{255, 255, 255});
        frame.FillRect(RectI{20, 28, 12, 6}, Rgb{0, 0, 0});
      }
      frames.push_back(std::move(frame));
    }
    return new MemoryVideo(std::move(frames), 25.0);
  }();
  return *video;
}

const EncodedVideo& IdentityEncoded(int gop_size, int quality) {
  static auto* cache = new std::map<std::pair<int, int>, const EncodedVideo*>();
  auto it = cache->find({gop_size, quality});
  if (it == cache->end()) {
    CodecConfig config;
    config.gop_size = gop_size;
    config.quality = quality;
    auto encoded = BlockVideoEncoder::Encode(IdentityVideo(), config);
    EXPECT_TRUE(encoded.ok()) << encoded.status().ToString();
    it = cache->emplace(std::make_pair(gop_size, quality),
                        new EncodedVideo(encoded.TakeValue()))
             .first;
  }
  return *it->second;
}

TEST(DecoderIdentityTest, FramesMatchReferenceDecoderOnEveryTier) {
  for (int gop_size : {1, 12, 50}) {
    for (int quality : {10, 50, 75, 95}) {
      const EncodedVideo& encoded = IdentityEncoded(gop_size, quality);
      reference::ColorClampCounts clamps;
      auto want = reference::DecodeAll(encoded, &clamps);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      // The content must drive the color conversion into both clamps.
      EXPECT_GT(clamps.low, 0) << "gop " << gop_size << " q " << quality;
      EXPECT_GT(clamps.high, 0) << "gop " << gop_size << " q " << quality;
      for (auto level : RunnableTiers()) {
        ScopedTier tier(level);
        const std::string where = std::string(util::simd::SimdLevelName(level)) +
                                  " gop " + std::to_string(gop_size) + " q " +
                                  std::to_string(quality);
        CodedVideoSource source(encoded);
        for (int64_t f = 0; f < source.num_frames(); ++f) {
          auto got = source.GetFrame(f);
          ASSERT_TRUE(got.ok()) << where << ": " << got.status().ToString();
          ASSERT_TRUE(FramesIdentical(*got, (*want)[static_cast<size_t>(f)]))
              << where << " frame " << f;
        }
        auto all = source.DecodeAll();
        ASSERT_TRUE(all.ok()) << where;
        for (int64_t f = 0; f < source.num_frames(); ++f) {
          ASSERT_TRUE(FramesIdentical(all->GetFrame(f).TakeValue(),
                                      (*want)[static_cast<size_t>(f)]))
              << where << " DecodeAll frame " << f;
        }
      }
    }
  }
}

/// Row/column masks of the nonzero entries of a coefficient block.
void NonzeroMasks(const DctBlock& in, uint32_t* rows, uint32_t* cols) {
  *rows = 0;
  *cols = 0;
  for (int i = 0; i < 64; ++i) {
    if (in[static_cast<size_t>(i)] != 0.0) {
      *rows |= 1u << (i / 8);
      *cols |= 1u << (i % 8);
    }
  }
}

TEST(DecoderIdentityTest, SparseBlocksMatchReferenceIdctOnEveryTier) {
  // Coefficient magnitudes an 8x8 block of 8-bit residuals can produce
  // (|coefficient| <= 8 * 255), so every output fits int16 on every tier.
  Rng rng(23);
  std::vector<DctBlock> blocks;
  const auto level = [&] {
    return static_cast<double>(rng.NextInt(-2040, 2040));
  };
  for (int trial = 0; trial < 8; ++trial) {
    DctBlock dc{};
    dc[0] = level();
    blocks.push_back(dc);
    DctBlock last_row{}, last_col{}, corner{};
    for (int i = 0; i < 8; ++i) {
      last_row[static_cast<size_t>(56 + i)] = level();
      last_col[static_cast<size_t>(i * 8 + 7)] = level();
    }
    corner[63] = level();
    blocks.push_back(last_row);
    blocks.push_back(last_col);
    blocks.push_back(corner);
    DctBlock sparse{}, dense{};
    for (int i = 0; i < 64; ++i) {
      if (rng.NextInt(0, 9) == 0) sparse[static_cast<size_t>(i)] = level();
      dense[static_cast<size_t>(i)] = static_cast<double>(rng.NextInt(-255, 255));
    }
    blocks.push_back(sparse);
    blocks.push_back(dense);
  }
  for (int p = 0; p < 64; ++p) {  // every single-coefficient block
    DctBlock one{};
    one[static_cast<size_t>(p)] = level();
    blocks.push_back(one);
  }
  DctBlock negative_zeros{};  // -0.0 inputs count as zero terms
  negative_zeros[0] = 300.0;
  for (int i = 8; i < 64; i += 3) negative_zeros[static_cast<size_t>(i)] = -0.0;
  blocks.push_back(negative_zeros);
  blocks.push_back(DctBlock{});

  for (auto tier : RunnableTiers()) {
    ScopedTier scoped(tier);
    const DctOps* ops = DctOpsFor(tier);
    for (size_t b = 0; b < blocks.size(); ++b) {
      PixelBlock want, masked, unmasked, dispatched;
      reference::Idct(blocks[b].data(), want.data());
      uint32_t rows, cols;
      NonzeroMasks(blocks[b], &rows, &cols);
      ops->idct8x8(blocks[b].data(), rows, cols, masked.data());
      ops->idct8x8(blocks[b].data(), 0xFF, 0xFF, unmasked.data());
      InverseDct(blocks[b], &dispatched);
      EXPECT_EQ(masked, want) << util::simd::SimdLevelName(tier) << " block " << b;
      EXPECT_EQ(unmasked, want) << util::simd::SimdLevelName(tier) << " block " << b;
      EXPECT_EQ(dispatched, want) << util::simd::SimdLevelName(tier) << " block " << b;
    }
  }
}

// ---------- Hand-made streams ----------

void PutU32(uint32_t v, std::vector<uint8_t>* out) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutVarint(int32_t value, std::vector<uint8_t>* out) {
  uint32_t zz = (static_cast<uint32_t>(value) << 1) ^
                static_cast<uint32_t>(value >> 31);
  while (zz >= 0x80) {
    out->push_back(static_cast<uint8_t>(zz) | 0x80);
    zz >>= 7;
  }
  out->push_back(static_cast<uint8_t>(zz));
}

/// RLE bitstream of a block given in natural (row-major) order.
void PutBlock(const std::array<int16_t, 64>& natural, std::vector<uint8_t>* out) {
  int run = 0;
  for (int i = 0; i < 64; ++i) {
    const int16_t v = natural[kZigzagOrder[static_cast<size_t>(i)]];
    if (v == 0) {
      ++run;
      continue;
    }
    out->push_back(static_cast<uint8_t>(run));
    PutVarint(v, out);
    run = 0;
  }
  out->push_back(0xFF);
}

/// A serialized stream of the given frame bitstreams (zeroed stats).
std::vector<uint8_t> SerializeStream(int width, int height,
                                     const std::vector<std::vector<uint8_t>>& frames,
                                     int quality = 75) {
  std::vector<uint8_t> out;
  for (uint32_t v : {0xC0B7A01u, static_cast<uint32_t>(width),
                     static_cast<uint32_t>(height), 25000u, 12u,
                     static_cast<uint32_t>(quality),
                     static_cast<uint32_t>(frames.size())}) {
    PutU32(v, &out);
  }
  for (const auto& bits : frames) {
    PutU32(static_cast<uint32_t>(bits.size()), &out);
    out.insert(out.end(), bits.begin(), bits.end());
    out.push_back(bits.empty() || bits[0] != 'I' ? 0 : 1);
    PutU32(0, &out);
    PutU32(0, &out);
  }
  return out;
}

/// Six coded blocks of one macroblock.
void PutCodedBlocks(const std::array<std::array<int16_t, 64>, 6>& blocks,
                    std::vector<uint8_t>* out) {
  out->push_back(0x3F);  // cbp: every block coded
  for (const auto& block : blocks) PutBlock(block, out);
}

/// Blocks with a DC level only, only the last row, only the last column,
/// only the bottom-right corner, and last row plus last column.
std::array<std::array<int16_t, 64>, 6> SparseBlocks(int seed) {
  std::array<std::array<int16_t, 64>, 6> b{};
  b[0][0] = static_cast<int16_t>(-20 + seed);
  for (int i = 0; i < 8; ++i) {
    b[1][static_cast<size_t>(56 + i)] = static_cast<int16_t>(i % 2 ? 3 : -4);
    b[2][static_cast<size_t>(i * 8 + 7)] = static_cast<int16_t>(5 - i);
    b[4][static_cast<size_t>(56 + i)] = static_cast<int16_t>(2 + seed);
    b[4][static_cast<size_t>(i * 8 + 7)] = static_cast<int16_t>(-3);
  }
  b[3][63] = static_cast<int16_t>(9 + seed);
  b[5][0] = static_cast<int16_t>(6 - seed);
  b[5][7] = 2;
  return b;
}

/// 32x16 (two macroblocks): an I frame of sparse blocks, then a P frame
/// with an inter macroblock at motion vector (mvx, 0) and a skip.
std::vector<uint8_t> SparseStream(int mvx, char first_type = 'I') {
  std::vector<uint8_t> intra = {static_cast<uint8_t>(first_type)};
  for (int mb = 0; mb < 2; ++mb) {
    intra.push_back(first_type == 'I' ? 2 : 0);  // intra, or skip
    if (first_type == 'I') PutCodedBlocks(SparseBlocks(mb), &intra);
  }
  std::vector<uint8_t> inter = {'P', 1, static_cast<uint8_t>(mvx), 0};
  PutCodedBlocks(SparseBlocks(3), &inter);
  inter.push_back(0);  // skip
  return SerializeStream(32, 16, {intra, inter});
}

TEST(DecoderIdentityTest, HandMadeSparseBlocksMatchReference) {
  auto encoded = EncodedVideo::Deserialize(SparseStream(3));
  ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
  auto want = reference::DecodeAll(*encoded);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  for (auto tier : RunnableTiers()) {
    ScopedTier scoped(tier);
    CodedVideoSource source(*encoded);
    for (int64_t f = 0; f < 2; ++f) {
      auto got = source.GetFrame(f);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(FramesIdentical(*got, (*want)[static_cast<size_t>(f)]))
          << util::simd::SimdLevelName(tier) << " frame " << f;
    }
  }
}

// ---------- Hostile input ----------

TEST(DecoderHostileInputTest, MotionVectorOutsideReferenceIsParseError) {
  // The second macroblock's valid range is [-16, 0]; the first's [0, 16].
  for (int mvx : {-1, -16, 17, 127, -128}) {
    auto encoded = EncodedVideo::Deserialize(SparseStream(mvx));
    ASSERT_TRUE(encoded.ok());
    CodedVideoSource source(*encoded);
    EXPECT_TRUE(source.GetFrame(0).ok());
    auto frame = source.GetFrame(1);
    ASSERT_FALSE(frame.ok()) << "mv " << mvx;
    EXPECT_TRUE(frame.status().IsParseError()) << frame.status().ToString();
    auto all = source.DecodeAll();
    ASSERT_FALSE(all.ok());
    EXPECT_TRUE(all.status().IsParseError());
  }
  for (int mvx : {0, 16}) {  // the edges of the valid range decode
    auto encoded = EncodedVideo::Deserialize(SparseStream(mvx));
    ASSERT_TRUE(encoded.ok());
    EXPECT_TRUE(CodedVideoSource(*encoded).GetFrame(1).ok()) << "mv " << mvx;
  }
}

TEST(DecoderHostileInputTest, PFrameWithoutReferenceIsParseError) {
  // Frame 0 is a P frame of skip macroblocks; frame 1 a valid P frame.
  auto encoded = EncodedVideo::Deserialize(SparseStream(3, 'P'));
  ASSERT_TRUE(encoded.ok());
  CodedVideoSource source(*encoded);
  for (int64_t f : {0, 1}) {
    auto frame = source.GetFrame(f);
    ASSERT_FALSE(frame.ok()) << "frame " << f;
    EXPECT_TRUE(frame.status().IsParseError()) << frame.status().ToString();
  }
  auto gop = source.DecodeGop(0);
  ASSERT_FALSE(gop.ok());
  EXPECT_TRUE(gop.status().IsParseError());

  // Seeking back to a P frame at the stream start must not reuse the
  // planes of a later frame as its reference.
  std::vector<uint8_t> intra = {'I', 2};
  PutCodedBlocks(SparseBlocks(1), &intra);
  auto mixed = EncodedVideo::Deserialize(
      SerializeStream(16, 16, {{'P', 0}, intra}));
  ASSERT_TRUE(mixed.ok());
  CodedVideoSource seek(*mixed);
  EXPECT_TRUE(seek.GetFrame(1).ok());
  auto back = seek.GetFrame(0);
  ASSERT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsParseError());
}

TEST(DecoderHostileInputTest, EveryTruncationIsParseError) {
  const std::vector<uint8_t> bytes = SparseStream(3);
  for (size_t n = 0; n < bytes.size(); ++n) {
    auto got = EncodedVideo::Deserialize(
        std::vector<uint8_t>(bytes.begin(), bytes.begin() + static_cast<long>(n)));
    ASSERT_FALSE(got.ok()) << "prefix " << n;
    EXPECT_TRUE(got.status().IsParseError()) << got.status().ToString();
  }
}

TEST(DecoderHostileInputTest, SeededByteFlipsYieldOkOrParseError) {
  CodecConfig config;
  config.gop_size = 6;
  const MemoryVideo& video = IdentityVideo();
  std::vector<Frame> frames;
  for (int64_t f = 10; f < 34; ++f) frames.push_back(video.GetFrame(f).TakeValue());
  auto encoded = BlockVideoEncoder::Encode(MemoryVideo(frames, 25.0), config);
  ASSERT_TRUE(encoded.ok());
  const std::vector<uint8_t> pristine = encoded->Serialize();
  Rng rng(2024);
  int decoded_ok = 0, rejected = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<uint8_t> bytes = pristine;
    const int flips = static_cast<int>(rng.NextInt(1, 3));
    for (int i = 0; i < flips; ++i) {
      const auto at = static_cast<size_t>(rng.NextBounded(bytes.size()));
      bytes[at] ^= static_cast<uint8_t>(rng.NextInt(1, 255));
    }
    auto parsed = EncodedVideo::Deserialize(bytes);
    if (!parsed.ok()) {
      EXPECT_TRUE(parsed.status().IsParseError()) << parsed.status().ToString();
      ++rejected;
      continue;
    }
    CodedVideoSource source(parsed.TakeValue());
    bool all_ok = true;
    for (int64_t f = 0; f < source.num_frames(); ++f) {
      auto frame = source.GetFrame(f);
      if (!frame.ok()) {
        EXPECT_TRUE(frame.status().IsParseError())
            << "trial " << trial << ": " << frame.status().ToString();
        all_ok = false;
      }
    }
    auto all = source.DecodeAll();
    if (!all.ok()) {
      EXPECT_TRUE(all.status().IsParseError())
          << "trial " << trial << ": " << all.status().ToString();
    }
    EXPECT_EQ(all.ok(), all_ok) << "trial " << trial;
    all_ok ? ++decoded_ok : ++rejected;
  }
  // The sweep must exercise both outcomes.
  EXPECT_GT(decoded_ok, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace cobra::media
