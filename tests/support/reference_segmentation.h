#pragma once

/// \file reference_segmentation.h
/// The retained full-frame player segmentation and the tracker built on
/// it: the frame-sized foreground raster, the 3x3 morphology by its
/// 8-neighborhood definition, and 4-connected labeling over a full-frame
/// label raster with a FIFO queue per component. The production path
/// (vision::BinaryMask over the ROI plus a one-pixel margin) must return
/// the same components, in the same order, with the same pixel lists,
/// bounding boxes and centroids, bit for bit.

#include <cstdint>
#include <vector>

#include "detectors/player_tracker.h"
#include "media/frame.h"
#include "media/video.h"
#include "util/geometry.h"
#include "util/status.h"
#include "vision/kernels.h"
#include "vision/mask.h"

namespace cobra::vision::reference {

/// A frame-sized 0/1 raster.
struct FullMask {
  int width = 0;
  int height = 0;
  std::vector<uint8_t> bits;

  bool At(int x, int y) const {
    return x >= 0 && x < width && y >= 0 && y < height &&
           bits[static_cast<size_t>(y) * width + x] != 0;
  }
};

/// Pixels of `roi` (clipped to the frame) in none of `boxes`.
FullMask OutsideColorBoxes(const media::Frame& frame, const RectI& roi,
                           const kernels::ColorBox* boxes, size_t num_boxes);

/// 3x3 erosion / dilation; pixels outside the frame count as 0.
FullMask Erode(const FullMask& mask);
FullMask Dilate(const FullMask& mask);

/// 4-connected components sorted by decreasing area; components smaller
/// than `min_area` are dropped.
std::vector<ConnectedComponent> LabelComponents(const FullMask& mask,
                                                int64_t min_area = 1);

/// Foreground components of `roi`: mask, open, label.
std::vector<ConnectedComponent> SegmentForeground(
    const media::Frame& frame, const RectI& roi,
    const kernels::ColorBox* boxes, size_t num_boxes, int64_t min_area);

}  // namespace cobra::vision::reference

namespace cobra::detectors::reference {

/// PlayerTracker::Track with the full-frame segmentation above and no
/// frame cache.
Result<TrackingResult> Track(const PlayerTrackerConfig& config,
                             const media::VideoSource& video,
                             const FrameInterval& shot);

/// True when both results hold the same court model and the same tracks,
/// every point and shape feature compared bitwise.
bool SameTracking(const TrackingResult& a, const TrackingResult& b);

}  // namespace cobra::detectors::reference
