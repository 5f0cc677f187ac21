#pragma once

/// \file frame.h
/// `Frame`: a decoded RGB8 raster, the raw-data layer of the COBRA model.

#include <cstdint>
#include <vector>

#include "media/color.h"
#include "util/geometry.h"
#include "util/status.h"

namespace cobra::media {

/// A decoded video frame: packed RGB8, row-major, origin top-left.
///
/// Frames own their pixels; copying is explicit and cheap enough at the
/// analysis resolutions the detectors use (the paper's detectors operate on
/// subsampled frames too).
class Frame {
 public:
  Frame() = default;

  /// Allocates a black width x height frame (pixels value-initialized).
  Frame(int width, int height);
  /// Allocates a width x height frame filled with `fill`.
  Frame(int width, int height, Rgb fill);

  int width() const { return width_; }
  int height() const { return height_; }
  bool Empty() const { return width_ == 0 || height_ == 0; }
  int64_t PixelCount() const { return int64_t{width_} * height_; }

  /// Unchecked pixel access. Requires 0 <= x < width, 0 <= y < height.
  const Rgb& At(int x, int y) const { return pixels_[Index(x, y)]; }
  Rgb& At(int x, int y) { return pixels_[Index(x, y)]; }

  /// Bounds-checked pixel write; out-of-frame writes are ignored.
  void Set(int x, int y, Rgb color) {
    if (x >= 0 && x < width_ && y >= 0 && y < height_) At(x, y) = color;
  }

  const std::vector<Rgb>& pixels() const { return pixels_; }

  /// Pointer to the first pixel of row `y` (unchecked; 0 <= y < height).
  ///
  /// Contract: rows are packed `Rgb` triples (no padding, no row stride
  /// beyond `width()`), and consecutive rows are contiguous in memory, so
  /// `Row(0)` spans all `PixelCount()` pixels of the frame. The batch
  /// kernels in vision/kernels.h rely on this layout.
  const Rgb* Row(int y) const { return pixels_.data() + Index(0, y); }
  Rgb* Row(int y) { return pixels_.data() + Index(0, y); }

  /// Fills an axis-aligned rectangle (clipped to the frame).
  void FillRect(const RectI& rect, Rgb color);

  /// Fills an axis-aligned ellipse centered at (cx, cy) (clipped).
  void FillEllipse(double cx, double cy, double rx, double ry, Rgb color);

  /// Draws a 1-pixel-thick line (Bresenham), clipped.
  void DrawLine(int x0, int y0, int x1, int y1, Rgb color);

  /// Returns the sub-image under `rect` clipped to the frame.
  Frame Crop(const RectI& rect) const;

  /// Box-filter downsample by integer `factor` (>= 1).
  Result<Frame> Downsample(int factor) const;

  bool SameSizeAs(const Frame& other) const {
    return width_ == other.width_ && height_ == other.height_;
  }

 private:
  size_t Index(int x, int y) const {
    return static_cast<size_t>(y) * static_cast<size_t>(width_) +
           static_cast<size_t>(x);
  }

  int width_ = 0;
  int height_ = 0;
  std::vector<Rgb> pixels_;
};

}  // namespace cobra::media
