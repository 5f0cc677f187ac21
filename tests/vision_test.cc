#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "media/frame.h"
#include "support/reference_segmentation.h"
#include "vision/color_model.h"
#include "vision/gray_stats.h"
#include "vision/histogram.h"
#include "vision/mask.h"
#include "vision/moments.h"
#include "util/rng.h"

namespace cobra::vision {
namespace {

using media::Frame;
using media::Rgb;

// ---------- Histogram ----------

TEST(HistogramTest, UniformFrameIsOneBin) {
  Frame f(16, 16, Rgb{38, 82, 164});
  auto h = ColorHistogram::FromFrame(f, 8);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->NumBins(), 512u);
  EXPECT_DOUBLE_EQ(h->DominantRatio(), 1.0);
  double sum = 0;
  for (size_t i = 0; i < h->NumBins(); ++i) sum += h->At(i);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(HistogramTest, RejectsBadBins) {
  Frame f(4, 4);
  EXPECT_FALSE(ColorHistogram::FromFrame(f, 3).ok());
  EXPECT_FALSE(ColorHistogram::FromFrame(f, 0).ok());
  EXPECT_FALSE(ColorHistogram::FromFrame(f, 512).ok());
}

TEST(HistogramTest, RejectsEmptyRegion) {
  Frame f(4, 4);
  EXPECT_FALSE(ColorHistogram::FromRegion(f, RectI{10, 10, 2, 2}).ok());
}

TEST(HistogramTest, DistancesZeroForIdentical) {
  Frame f(16, 16, Rgb{100, 50, 25});
  auto h = ColorHistogram::FromFrame(f).TakeValue();
  EXPECT_DOUBLE_EQ(h.L1Distance(h), 0.0);
  EXPECT_DOUBLE_EQ(h.ChiSquareDistance(h), 0.0);
  EXPECT_NEAR(h.IntersectionDistance(h), 0.0, 1e-12);
}

TEST(HistogramTest, DistancesMaximalForDisjoint) {
  Frame a(16, 16, Rgb{0, 0, 0});
  Frame b(16, 16, Rgb{255, 255, 255});
  auto ha = ColorHistogram::FromFrame(a).TakeValue();
  auto hb = ColorHistogram::FromFrame(b).TakeValue();
  EXPECT_DOUBLE_EQ(ha.L1Distance(hb), 2.0);
  EXPECT_DOUBLE_EQ(ha.IntersectionDistance(hb), 1.0);
  EXPECT_GT(ha.ChiSquareDistance(hb), 1.0);
}

TEST(HistogramTest, DistanceSymmetry) {
  Frame a(8, 8, Rgb{10, 20, 30});
  Frame b(8, 8);
  b.FillRect(RectI{0, 0, 4, 8}, Rgb{200, 100, 20});
  auto ha = ColorHistogram::FromFrame(a).TakeValue();
  auto hb = ColorHistogram::FromFrame(b).TakeValue();
  for (auto metric : {HistogramDistance::kL1, HistogramDistance::kChiSquare,
                      HistogramDistance::kIntersection}) {
    EXPECT_DOUBLE_EQ(Distance(ha, hb, metric), Distance(hb, ha, metric))
        << HistogramDistanceToString(metric);
  }
}

TEST(HistogramTest, BinCenterInverts) {
  Frame f(4, 4, Rgb{38, 82, 164});
  auto h = ColorHistogram::FromFrame(f, 8).TakeValue();
  Rgb center = h.BinCenter(h.ModalBin());
  // Bin width is 32 at 8 bins: center within 16 of the true color.
  EXPECT_NEAR(center.r, 38, 16);
  EXPECT_NEAR(center.g, 82, 16);
  EXPECT_NEAR(center.b, 164, 16);
}

TEST(HistogramTest, RegionIsolatesContent) {
  Frame f(16, 16, Rgb{0, 0, 0});
  f.FillRect(RectI{8, 0, 8, 16}, Rgb{255, 0, 0});
  auto left = ColorHistogram::FromRegion(f, RectI{0, 0, 8, 16}).TakeValue();
  auto right = ColorHistogram::FromRegion(f, RectI{8, 0, 8, 16}).TakeValue();
  EXPECT_DOUBLE_EQ(left.L1Distance(right), 2.0);
}

// ---------- GrayStats ----------

TEST(GrayStatsTest, UniformFrame) {
  Frame f(16, 16, Rgb{100, 100, 100});
  GrayStats gs = ComputeGrayStats(f);
  EXPECT_NEAR(gs.mean, 100.0, 0.5);
  EXPECT_NEAR(gs.variance, 0.0, 1e-9);
  EXPECT_NEAR(gs.entropy, 0.0, 1e-9);
}

TEST(GrayStatsTest, TwoToneEntropyIsOneBit) {
  Frame f(16, 16, Rgb{0, 0, 0});
  f.FillRect(RectI{0, 0, 16, 8}, Rgb{255, 255, 255});
  GrayStats gs = ComputeGrayStats(f);
  EXPECT_NEAR(gs.entropy, 1.0, 1e-9);
  EXPECT_NEAR(gs.mean, 127.5, 0.5);
  EXPECT_GT(gs.variance, 10000.0);
}

TEST(GrayStatsTest, EmptyRegionIsZeros) {
  Frame f(8, 8);
  GrayStats gs = ComputeGrayStats(f, RectI{20, 20, 4, 4});
  EXPECT_EQ(gs.mean, 0.0);
  EXPECT_EQ(gs.entropy, 0.0);
}

TEST(GrayStatsTest, SkinRatio) {
  Frame f(10, 10, Rgb{38, 82, 164});
  f.FillRect(RectI{0, 0, 10, 3}, Rgb{222, 164, 124});
  EXPECT_NEAR(SkinPixelRatio(f), 0.3, 1e-9);
}

// ---------- Mask / components ----------

TEST(MaskTest, CountAndBoundingBox) {
  BinaryMask m(10, 10);
  m.Set(2, 3, true);
  m.Set(5, 7, true);
  EXPECT_EQ(m.Count(), 2);
  EXPECT_EQ(m.BoundingBox(), (RectI{2, 3, 4, 5}));
}

TEST(MaskTest, EmptyBoundingBox) {
  BinaryMask m(5, 5);
  EXPECT_TRUE(m.BoundingBox().Empty());
}

TEST(MaskTest, ErodeRemovesThinStructures) {
  BinaryMask m(10, 10);
  for (int x = 0; x < 10; ++x) m.Set(x, 5, true);  // 1-px horizontal line
  EXPECT_EQ(m.Erode().Count(), 0);
}

TEST(MaskTest, OpenPreservesBlobRemovesNoise) {
  BinaryMask m(20, 20);
  for (int y = 5; y < 12; ++y) {
    for (int x = 5; x < 12; ++x) m.Set(x, y, true);  // 7x7 blob
  }
  m.Set(17, 17, true);  // isolated noise pixel
  BinaryMask opened = m.Open();
  EXPECT_FALSE(opened.At(17, 17));
  EXPECT_TRUE(opened.At(8, 8));
  EXPECT_GE(opened.Count(), 25);
}

TEST(MaskTest, DilateGrows) {
  BinaryMask m(10, 10);
  m.Set(5, 5, true);
  EXPECT_EQ(m.Dilate().Count(), 9);
}

/// The 8-neighborhood definition, pixel by pixel: erosion needs every
/// neighbor set and in bounds, dilation any neighbor set.
BinaryMask ReferenceMorph(const BinaryMask& m, bool dilate) {
  BinaryMask out(m.width(), m.height());
  for (int y = 0; y < m.height(); ++y) {
    for (int x = 0; x < m.width(); ++x) {
      bool any = false, all = true;
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          const int nx = x + dx, ny = y + dy;
          const bool set = nx >= 0 && nx < m.width() && ny >= 0 &&
                           ny < m.height() && m.At(nx, ny);
          any = any || set;
          all = all && set;
        }
      }
      out.Set(x, y, dilate ? any : all);
    }
  }
  return out;
}

TEST(MaskTest, MorphologyMatchesNeighborhoodDefinition) {
  Rng rng(77);
  const int sizes[][2] = {{1, 1}, {1, 7}, {7, 1}, {2, 2}, {3, 5},
                          {17, 9}, {128, 96}};
  for (const auto& size : sizes) {
    for (int density = 1; density <= 9; density += 4) {
      BinaryMask m(size[0], size[1]);
      for (int y = 0; y < m.height(); ++y) {
        for (int x = 0; x < m.width(); ++x) {
          m.Set(x, y, static_cast<int>(rng.NextBounded(10)) < density);
        }
      }
      for (bool dilate : {false, true}) {
        const BinaryMask want = ReferenceMorph(m, dilate);
        const BinaryMask got = dilate ? m.Dilate() : m.Erode();
        ASSERT_EQ(got.width(), want.width());
        ASSERT_EQ(got.height(), want.height());
        EXPECT_EQ(got.Count(), want.Count());
        for (int y = 0; y < m.height(); ++y) {
          for (int x = 0; x < m.width(); ++x) {
            ASSERT_EQ(got.At(x, y), want.At(x, y))
                << size[0] << "x" << size[1] << " density " << density
                << (dilate ? " dilate" : " erode") << " at " << x << ","
                << y;
          }
        }
      }
    }
  }
  EXPECT_TRUE(BinaryMask().Dilate().Empty());
  EXPECT_TRUE(BinaryMask().Erode().Empty());
}

TEST(ComponentsTest, FindsSeparateBlobs) {
  BinaryMask m(20, 20);
  for (int y = 0; y < 3; ++y) {
    for (int x = 0; x < 3; ++x) m.Set(x, y, true);  // 9 px
  }
  for (int y = 10; y < 16; ++y) {
    for (int x = 10; x < 16; ++x) m.Set(x, y, true);  // 36 px
  }
  auto cc = LabelComponents(m);
  ASSERT_EQ(cc.size(), 2u);
  EXPECT_EQ(cc[0].area, 36);  // sorted by area desc
  EXPECT_EQ(cc[1].area, 9);
  EXPECT_EQ(cc[0].bbox, (RectI{10, 10, 6, 6}));
  EXPECT_NEAR(cc[0].centroid.x, 12.5, 1e-9);
}

TEST(ComponentsTest, MinAreaFilters) {
  BinaryMask m(10, 10);
  m.Set(1, 1, true);
  m.Set(5, 5, true);
  m.Set(5, 6, true);
  auto cc = LabelComponents(m, 2);
  ASSERT_EQ(cc.size(), 1u);
  EXPECT_EQ(cc[0].area, 2);
}

TEST(ComponentsTest, DiagonalIsNotConnected) {
  BinaryMask m(4, 4);
  m.Set(0, 0, true);
  m.Set(1, 1, true);
  EXPECT_EQ(LabelComponents(m).size(), 2u);  // 4-connectivity
}

// ---------- Windowed masks vs the full-frame reference ----------

/// A frame of background-colored pixels with random rectangles of two
/// foreground colors and sprinkled single-pixel noise.
Frame BlobFrame(int w, int h, Rng& rng) {
  Frame f(w, h, Rgb{40, 120, 40});
  const Rgb colors[2] = {Rgb{200, 60, 60}, Rgb{230, 230, 230}};
  const int rects = 1 + static_cast<int>(rng.NextBounded(6));
  for (int i = 0; i < rects; ++i) {
    const int x = static_cast<int>(rng.NextInt(-3, w));
    const int y = static_cast<int>(rng.NextInt(-3, h));
    f.FillRect(RectI{x, y, static_cast<int>(rng.NextInt(1, w / 2 + 2)),
                     static_cast<int>(rng.NextInt(1, h / 2 + 2))},
               colors[rng.NextBounded(2)]);
  }
  const int noise = static_cast<int>(rng.NextBounded(
      static_cast<uint64_t>(w) * static_cast<uint64_t>(h) / 8 + 1));
  for (int i = 0; i < noise; ++i) {
    f.Set(static_cast<int>(rng.NextBounded(static_cast<uint64_t>(w))),
          static_cast<int>(rng.NextBounded(static_cast<uint64_t>(h))),
          colors[rng.NextBounded(2)]);
  }
  return f;
}

void ExpectSameMask(const BinaryMask& got, const reference::FullMask& want,
                    const std::string& what) {
  for (int y = -1; y <= want.height; ++y) {
    for (int x = -1; x <= want.width; ++x) {
      ASSERT_EQ(got.At(x, y), want.At(x, y)) << what << " at " << x << "," << y;
    }
  }
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void ExpectSameComponents(const std::vector<ConnectedComponent>& got,
                          const std::vector<ConnectedComponent>& want,
                          const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].label, want[i].label) << what << " #" << i;
    EXPECT_EQ(got[i].area, want[i].area) << what << " #" << i;
    EXPECT_EQ(got[i].bbox, want[i].bbox) << what << " #" << i;
    EXPECT_TRUE(SameBits(got[i].centroid.x, want[i].centroid.x) &&
                SameBits(got[i].centroid.y, want[i].centroid.y))
        << what << " #" << i;
    EXPECT_EQ(got[i].pixels, want[i].pixels) << what << " #" << i;
  }
}

TEST(WindowedMaskTest, MatchesFullFrameReference) {
  Rng rng(4242);
  const kernels::ColorBox boxes[2] = {
      kernels::ColorBox{{30, 110, 30}, {50, 130, 50}},  // background
      kernels::ColorBox{{220, 220, 220}, {255, 255, 255}}};
  const int sizes[][2] = {{1, 1}, {1, 9}, {9, 1}, {13, 7}, {40, 30},
                          {128, 96}};
  int windows_checked = 0;
  for (const auto& size : sizes) {
    const int w = size[0], h = size[1];
    for (int trial = 0; trial < 12; ++trial) {
      const Frame frame = BlobFrame(w, h, rng);
      std::vector<RectI> rois = {
          RectI{0, 0, w, h},            // whole frame
          RectI{-5, -5, w + 10, h + 10},  // larger than the frame
          RectI{0, 0, w / 2 + 1, h},    // left and top and bottom edges
          RectI{w / 2, 0, w - w / 2, h / 2 + 1},  // top and right edges
          RectI{0, h - 1, w, 1},        // bottom row, 1 px high
          RectI{w - 1, 0, 1, h},        // right column, 1 px wide
          RectI{w / 3, h / 3, 1, 1},    // single pixel
          RectI{w / 2, h / 2, 0, 5},    // empty
          RectI{w + 1, 0, 4, h},        // fully clipped, right
          RectI{-6, -6, 5, 5},          // fully clipped, top-left corner
          RectI{-2, h - 2, 4, 4},       // clipped on two sides
      };
      for (int r = 0; r < 6; ++r) {
        const int x = static_cast<int>(rng.NextInt(-4, w + 1));
        const int y = static_cast<int>(rng.NextInt(-4, h + 1));
        rois.push_back(RectI{x, y, static_cast<int>(rng.NextInt(0, w + 4)),
                             static_cast<int>(rng.NextInt(0, h + 4))});
      }
      for (const RectI& roi : rois) {
        const std::string what = std::to_string(w) + "x" + std::to_string(h) +
                                 " roi " + roi.ToString();
        const BinaryMask mask =
            BinaryMask::FromOutsideColorBoxes(frame, roi, boxes, 2);
        const reference::FullMask full =
            reference::OutsideColorBoxes(frame, roi, boxes, 2);
        const RectI clipped = roi.ClipTo(w, h);
        if (!clipped.Empty()) {
          EXPECT_EQ(mask.Window(),
                    (RectI{clipped.x - 1, clipped.y - 1, clipped.width + 2,
                           clipped.height + 2}
                         .ClipTo(w, h)))
              << what;
        } else {
          EXPECT_TRUE(mask.Empty()) << what;
        }
        ExpectSameMask(mask, full, what + " mask");

        const BinaryMask opened = mask.Open();
        const reference::FullMask opened_ref =
            reference::Dilate(reference::Erode(full));
        EXPECT_EQ(opened.Window(), mask.Window()) << what;
        ExpectSameMask(opened, opened_ref, what + " open");
        for (int64_t min_area : {1, 3}) {
          ExpectSameComponents(LabelComponents(opened, min_area),
                               reference::LabelComponents(opened_ref, min_area),
                               what + " open components");
        }

        const BinaryMask dilated = mask.Dilate();
        const reference::FullMask dilated_ref = reference::Dilate(full);
        ExpectSameMask(dilated, dilated_ref, what + " dilate");
        ExpectSameComponents(LabelComponents(dilated),
                             reference::LabelComponents(dilated_ref),
                             what + " dilate components");
        ExpectSameMask(mask.Erode(), reference::Erode(full), what + " erode");
        ExpectSameComponents(LabelComponents(mask),
                             reference::LabelComponents(full),
                             what + " mask components");
        EXPECT_EQ(mask.Count(),
                  static_cast<int64_t>(std::count(full.bits.begin(),
                                                  full.bits.end(), 1)))
            << what;
        ++windows_checked;
      }
    }
  }
  EXPECT_EQ(windows_checked, 6 * 12 * 17);
}

TEST(WindowedMaskTest, OriginAndFrameCoordinates) {
  BinaryMask m(4, 3, 10, 20);  // window {10, 20, 4, 3}
  m.Set(11, 21, true);
  m.Set(12, 21, true);
  EXPECT_TRUE(m.At(11, 21));
  EXPECT_FALSE(m.At(1, 1));    // inside the window's raster, outside it
  EXPECT_FALSE(m.At(14, 21));  // one past the right edge
  EXPECT_EQ(m.BoundingBox(), (RectI{11, 21, 2, 1}));
  EXPECT_EQ(m.Dilate().Window(), m.Window());
  EXPECT_EQ(m.Dilate().BoundingBox(), (RectI{10, 20, 4, 3}));
  const auto cc = LabelComponents(m);
  ASSERT_EQ(cc.size(), 1u);
  EXPECT_EQ(cc[0].bbox, (RectI{11, 21, 2, 1}));
  EXPECT_EQ(cc[0].pixels,
            (std::vector<std::pair<int, int>>{{11, 21}, {12, 21}}));
  EXPECT_EQ(cc[0].centroid.x, 11.5);
  EXPECT_EQ(cc[0].centroid.y, 21.0);
  const RegionMoments moments = ComputeMoments(m);
  EXPECT_EQ(moments.m10, 23.0);
  EXPECT_EQ(moments.m01, 42.0);
}

// ---------- Moments ----------

TEST(MomentsTest, CentroidOfSquare) {
  std::vector<std::pair<int, int>> pixels;
  for (int y = 2; y <= 6; ++y) {
    for (int x = 4; x <= 8; ++x) pixels.emplace_back(x, y);
  }
  RegionMoments m = ComputeMoments(pixels);
  EXPECT_DOUBLE_EQ(m.m00, 25.0);
  EXPECT_DOUBLE_EQ(m.Centroid().x, 6.0);
  EXPECT_DOUBLE_EQ(m.Centroid().y, 4.0);
  EXPECT_NEAR(m.Eccentricity(), 0.0, 1e-9);  // square ~ circle
}

TEST(MomentsTest, ElongatedRegionEccentricityAndOrientation) {
  std::vector<std::pair<int, int>> pixels;
  for (int x = 0; x < 30; ++x) {
    for (int y = 0; y < 3; ++y) pixels.emplace_back(x, y);  // wide strip
  }
  RegionMoments m = ComputeMoments(pixels);
  EXPECT_GT(m.Eccentricity(), 0.9);
  EXPECT_NEAR(m.Orientation(), 0.0, 0.05);  // aligned with x axis

  // Vertical strip: orientation ±pi/2.
  std::vector<std::pair<int, int>> vert;
  for (int y = 0; y < 30; ++y) {
    for (int x = 0; x < 3; ++x) vert.emplace_back(x, y);
  }
  RegionMoments mv = ComputeMoments(vert);
  EXPECT_NEAR(std::fabs(mv.Orientation()), M_PI / 2, 0.05);
}

TEST(MomentsTest, EmptyRegion) {
  RegionMoments m = ComputeMoments(std::vector<std::pair<int, int>>{});
  EXPECT_EQ(m.m00, 0.0);
  EXPECT_EQ(m.Eccentricity(), 0.0);
  EXPECT_EQ(m.Orientation(), 0.0);
}

TEST(MomentsTest, MaskOverloadMatchesPixelList) {
  BinaryMask mask(10, 10);
  std::vector<std::pair<int, int>> pixels;
  for (int y = 1; y < 5; ++y) {
    for (int x = 2; x < 9; ++x) {
      mask.Set(x, y, true);
      pixels.emplace_back(x, y);
    }
  }
  RegionMoments a = ComputeMoments(mask);
  RegionMoments b = ComputeMoments(pixels);
  EXPECT_DOUBLE_EQ(a.m00, b.m00);
  EXPECT_DOUBLE_EQ(a.mu20, b.mu20);
  EXPECT_DOUBLE_EQ(a.mu11, b.mu11);
}

TEST(ShapeFeaturesTest, DominantColorOfRegion) {
  Frame f(10, 10, Rgb{0, 0, 0});
  f.FillRect(RectI{2, 2, 4, 4}, Rgb{208, 44, 44});
  BinaryMask m(10, 10);
  for (int y = 2; y < 6; ++y) {
    for (int x = 2; x < 6; ++x) m.Set(x, y, true);
  }
  auto cc = LabelComponents(m);
  ASSERT_EQ(cc.size(), 1u);
  ShapeFeatures sf = ComputeShapeFeatures(f, cc[0]);
  EXPECT_EQ(sf.area, 16.0);
  EXPECT_EQ(sf.bounding_box, (RectI{2, 2, 4, 4}));
  // Dominant color quantized to 32-wide bins: within 16 of the truth.
  EXPECT_NEAR(sf.dominant_color.r, 208, 16);
  EXPECT_NEAR(sf.dominant_color.g, 44, 16);
}

TEST(ShapeFeaturesTest, DominantColorTieGoesToSmallerKey) {
  // Red quantizes to key (6, 1, 1) and green to (1, 6, 1): four pixels
  // each, red first in raster order. The smaller key, green, wins.
  Frame f(4, 2, Rgb{40, 200, 40});
  f.FillRect(RectI{0, 0, 4, 1}, Rgb{200, 40, 40});
  BinaryMask m(4, 2);
  for (int y = 0; y < 2; ++y) {
    for (int x = 0; x < 4; ++x) m.Set(x, y, true);
  }
  auto cc = LabelComponents(m);
  ASSERT_EQ(cc.size(), 1u);
  EXPECT_EQ(ComputeShapeFeatures(f, cc[0]).dominant_color,
            (Rgb{1 * 32 + 16, 6 * 32 + 16, 1 * 32 + 16}));
  // A component without pixels keeps the default color.
  EXPECT_EQ(ComputeShapeFeatures(f, ConnectedComponent{}).dominant_color,
            Rgb{});
}

// ---------- Color model ----------

TEST(ColorModelTest, MatchesOwnPopulation) {
  Frame f(16, 16, Rgb{38, 82, 164});
  GaussianColorModel m =
      GaussianColorModel::FromRegion(f, RectI{0, 0, 16, 16});
  EXPECT_NEAR(m.mean_b(), 164.0, 0.5);
  EXPECT_TRUE(m.Matches(Rgb{40, 84, 160}));
  EXPECT_FALSE(m.Matches(Rgb{208, 44, 44}));   // player shirt
  EXPECT_FALSE(m.Matches(Rgb{222, 164, 124})); // skin
}

TEST(ColorModelTest, VarianceFloorAdmitsNoise) {
  GaussianColorModel m;
  for (int i = 0; i < 100; ++i) m.Add(Rgb{100, 100, 100});
  // Exactly constant model still accepts small perturbations.
  EXPECT_TRUE(m.Matches(Rgb{104, 96, 100}, 3.0));
  EXPECT_FALSE(m.Matches(Rgb{140, 100, 100}, 3.0));
}

TEST(ColorModelTest, Distance2Monotone) {
  GaussianColorModel m;
  for (int i = 0; i < 50; ++i) m.Add(Rgb{100, 100, 100});
  EXPECT_LT(m.Distance2(Rgb{101, 100, 100}), m.Distance2(Rgb{120, 100, 100}));
  EXPECT_LT(m.Distance2(Rgb{120, 100, 100}), m.Distance2(Rgb{200, 100, 100}));
}

TEST(ColorModelTest, EmptyModelIsPermissiveEnough) {
  GaussianColorModel m;
  EXPECT_EQ(m.count(), 0);
  EXPECT_EQ(m.mean_r(), 0.0);
}

}  // namespace
}  // namespace cobra::vision
