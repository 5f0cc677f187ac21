#pragma once

/// \file mask.h
/// Binary pixel masks and simple morphology, used by the player
/// segmentation step of the tennis detector.

#include <cstdint>
#include <functional>
#include <vector>

#include "media/frame.h"
#include "util/geometry.h"
#include "vision/kernels.h"

namespace cobra::vision {

/// A binary raster over a window of a frame: `width` x `height` bytes
/// whose first pixel sits at frame coordinates (origin_x, origin_y). Every
/// pixel outside the window is 0, and all coordinates in the interface are
/// frame coordinates, so a windowed mask reads like a full-frame one.
///
/// The ROI builders cover only the ROI grown by one pixel and clipped to
/// the frame. A set pixel then lies at least one pixel inside the window
/// unless it touches the frame border, so one 3x3 operation on the window
/// equals the same operation on the full frame; Open() (erode, then dilate
/// what is left inside the ROI) and Close() stay exact as well.
class BinaryMask {
 public:
  BinaryMask() = default;
  /// A zeroed mask over the window {origin_x, origin_y, width, height}.
  BinaryMask(int width, int height, int origin_x = 0, int origin_y = 0)
      : width_(width),
        height_(height),
        origin_x_(origin_x),
        origin_y_(origin_y),
        bits_(static_cast<size_t>(width) * static_cast<size_t>(height), 0) {}

  int width() const { return width_; }
  int height() const { return height_; }
  int origin_x() const { return origin_x_; }
  int origin_y() const { return origin_y_; }
  RectI Window() const { return RectI{origin_x_, origin_y_, width_, height_}; }
  bool Empty() const { return width_ == 0 || height_ == 0; }

  /// Pixel at frame coordinates (x, y); 0 outside the window.
  bool At(int x, int y) const {
    return Window().Contains(x, y) && bits_[Index(x, y)] != 0;
  }
  /// Unchecked write; requires (x, y) inside the window.
  void Set(int x, int y, bool v) { bits_[Index(x, y)] = v ? 1 : 0; }

  /// The window's 0/1 bytes, row-major.
  const std::vector<uint8_t>& bits() const { return bits_; }

  /// Number of set pixels.
  int64_t Count() const;

  /// Tight bounding box of set pixels (empty rect if none).
  RectI BoundingBox() const;

  /// 3x3 box erosion (8-neighborhood); pixels outside the window count
  /// as 0. Keeps the window.
  BinaryMask Erode() const;
  /// 3x3 box dilation (8-neighborhood), clipped to the window.
  BinaryMask Dilate() const;
  /// Erode-then-dilate; removes isolated noise pixels.
  BinaryMask Open() const { return Erode().Dilate(); }
  /// Dilate-then-erode; fills small holes.
  BinaryMask Close() const { return Dilate().Erode(); }

  /// Builds a mask by applying `predicate` to every pixel of `frame`,
  /// optionally restricted to `roi` (pixels outside stay 0).
  static BinaryMask FromPredicate(
      const media::Frame& frame,
      const std::function<bool(const media::Rgb&)>& predicate);
  static BinaryMask FromPredicate(
      const media::Frame& frame, const RectI& roi,
      const std::function<bool(const media::Rgb&)>& predicate);

  /// Builds the mask of pixels inside `box` within `roi` (clipped; pixels
  /// outside stay 0). Batch-kernel fast path for color-model match tests
  /// (see GaussianColorModel::MatchBox); equivalent to FromPredicate with
  /// `box.Contains` but runs SIMD-wide.
  static BinaryMask FromColorBox(const media::Frame& frame, const RectI& roi,
                                 const kernels::ColorBox& box);

  /// Builds the mask of pixels belonging to NONE of `boxes` within `roi` —
  /// the foreground-extraction shape the player tracker uses.
  static BinaryMask FromOutsideColorBoxes(const media::Frame& frame,
                                          const RectI& roi,
                                          const kernels::ColorBox* boxes,
                                          size_t num_boxes);

 private:
  /// The zeroed mask the ROI builders fill: `roi` clipped to the frame
  /// (returned in `*clipped`), grown by one pixel and clipped again. An
  /// empty clipped ROI gives an empty mask.
  static BinaryMask ForRoi(const media::Frame& frame, const RectI& roi,
                           RectI* clipped);

  /// Raster index of frame coordinates (x, y) inside the window.
  size_t Index(int x, int y) const {
    return static_cast<size_t>(y - origin_y_) * static_cast<size_t>(width_) +
           static_cast<size_t>(x - origin_x_);
  }

  int width_ = 0;
  int height_ = 0;
  int origin_x_ = 0;
  int origin_y_ = 0;
  std::vector<uint8_t> bits_;
};

/// A 4-connected component of set pixels.
struct ConnectedComponent {
  int label = 0;
  int64_t area = 0;
  RectI bbox;
  PointD centroid;
  std::vector<std::pair<int, int>> pixels;  ///< (x, y) members
};

/// Labels 4-connected components in raster order (breadth-first from each
/// seed); returns them sorted by decreasing area, in frame coordinates.
/// Components smaller than `min_area` are dropped.
std::vector<ConnectedComponent> LabelComponents(const BinaryMask& mask,
                                                int64_t min_area = 1);

}  // namespace cobra::vision
