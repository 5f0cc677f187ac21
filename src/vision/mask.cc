#include "vision/mask.h"

#include <algorithm>

namespace cobra::vision {

int64_t BinaryMask::Count() const {
  return static_cast<int64_t>(
      kernels::Ops().byte_sum(bits_.data(), bits_.size()));
}

RectI BinaryMask::BoundingBox() const {
  int min_x = width_, min_y = height_, max_x = -1, max_y = -1;
  for (int y = 0; y < height_; ++y) {
    const uint8_t* row = bits_.data() + static_cast<size_t>(y) * width_;
    for (int x = 0; x < width_; ++x) {
      if (row[x] != 0) {
        min_x = std::min(min_x, x);
        min_y = std::min(min_y, y);
        max_x = std::max(max_x, x);
        max_y = std::max(max_y, y);
      }
    }
  }
  if (max_x < 0) return RectI{};
  return RectI{origin_x_ + min_x, origin_y_ + min_y, max_x - min_x + 1,
               max_y - min_y + 1};
}

namespace {

/// 3x3 box morphology over a 0/1 byte raster as two separable 3-tap passes
/// (rows, then columns): max for dilation, min for erosion. Pixels outside
/// the raster count as 0, as in the 8-neighborhood definition, so erosion
/// clears the border. Branch-free inner loops; the output is 0/1.
template <bool kDilate>
std::vector<uint8_t> Morph3x3(const std::vector<uint8_t>& in, size_t width,
                              size_t height) {
  auto op = [](uint8_t a, uint8_t b) -> uint8_t {
    return kDilate ? std::max(a, b) : std::min(a, b);
  };
  std::vector<uint8_t> rows(in.size());
  for (size_t y = 0; y < height; ++y) {
    const uint8_t* src = in.data() + y * width;
    uint8_t* dst = rows.data() + y * width;
    if (width == 1) {
      dst[0] = op(op(0, src[0]), 0);
      continue;
    }
    dst[0] = op(op(0, src[0]), src[1]);
    for (size_t x = 1; x + 1 < width; ++x) {
      dst[x] = op(op(src[x - 1], src[x]), src[x + 1]);
    }
    dst[width - 1] = op(op(src[width - 2], src[width - 1]), 0);
  }
  std::vector<uint8_t> out(in.size());
  const std::vector<uint8_t> zeros(width, 0);
  for (size_t y = 0; y < height; ++y) {
    const uint8_t* up = y > 0 ? rows.data() + (y - 1) * width : zeros.data();
    const uint8_t* mid = rows.data() + y * width;
    const uint8_t* down =
        y + 1 < height ? rows.data() + (y + 1) * width : zeros.data();
    uint8_t* dst = out.data() + y * width;
    for (size_t x = 0; x < width; ++x) {
      dst[x] = op(op(up[x], mid[x]), down[x]) != 0 ? 1 : 0;
    }
  }
  return out;
}

}  // namespace

BinaryMask BinaryMask::Erode() const {
  BinaryMask out;
  out.width_ = width_;
  out.height_ = height_;
  out.origin_x_ = origin_x_;
  out.origin_y_ = origin_y_;
  out.bits_ = Morph3x3<false>(bits_, static_cast<size_t>(width_),
                              static_cast<size_t>(height_));
  return out;
}

BinaryMask BinaryMask::Dilate() const {
  BinaryMask out;
  out.width_ = width_;
  out.height_ = height_;
  out.origin_x_ = origin_x_;
  out.origin_y_ = origin_y_;
  out.bits_ = Morph3x3<true>(bits_, static_cast<size_t>(width_),
                             static_cast<size_t>(height_));
  return out;
}

BinaryMask BinaryMask::ForRoi(const media::Frame& frame, const RectI& roi,
                              RectI* clipped) {
  *clipped = roi.ClipTo(frame.width(), frame.height());
  if (clipped->Empty()) return BinaryMask();
  const RectI window =
      RectI{clipped->x - 1, clipped->y - 1, clipped->width + 2,
            clipped->height + 2}
          .ClipTo(frame.width(), frame.height());
  return BinaryMask(window.width, window.height, window.x, window.y);
}

BinaryMask BinaryMask::FromPredicate(
    const media::Frame& frame,
    const std::function<bool(const media::Rgb&)>& predicate) {
  return FromPredicate(frame, RectI{0, 0, frame.width(), frame.height()},
                       predicate);
}

BinaryMask BinaryMask::FromPredicate(
    const media::Frame& frame, const RectI& roi,
    const std::function<bool(const media::Rgb&)>& predicate) {
  RectI r;
  BinaryMask out = ForRoi(frame, roi, &r);
  for (int y = r.y; y < r.Bottom(); ++y) {
    for (int x = r.x; x < r.Right(); ++x) {
      if (predicate(frame.At(x, y))) out.Set(x, y, true);
    }
  }
  return out;
}

BinaryMask BinaryMask::FromColorBox(const media::Frame& frame,
                                    const RectI& roi,
                                    const kernels::ColorBox& box) {
  RectI r;
  BinaryMask out = ForRoi(frame, roi, &r);
  const kernels::KernelOps& ops = kernels::Ops();
  for (int y = r.y; y < r.Bottom(); ++y) {
    ops.classify_inside(frame.Row(y) + r.x, static_cast<size_t>(r.width), box,
                        out.bits_.data() + out.Index(r.x, y));
  }
  return out;
}

BinaryMask BinaryMask::FromOutsideColorBoxes(const media::Frame& frame,
                                             const RectI& roi,
                                             const kernels::ColorBox* boxes,
                                             size_t num_boxes) {
  RectI r;
  BinaryMask out = ForRoi(frame, roi, &r);
  const kernels::KernelOps& ops = kernels::Ops();
  for (int y = r.y; y < r.Bottom(); ++y) {
    ops.classify_outside(frame.Row(y) + r.x, static_cast<size_t>(r.width),
                         boxes, num_boxes, out.bits_.data() + out.Index(r.x, y));
  }
  return out;
}

std::vector<ConnectedComponent> LabelComponents(const BinaryMask& mask,
                                                int64_t min_area) {
  std::vector<ConnectedComponent> out;
  const int width = mask.width();
  const int height = mask.height();
  const int ox = mask.origin_x();
  const int oy = mask.origin_y();
  // Set pixels not yet labeled; each is cleared when it joins a component.
  std::vector<uint8_t> unlabeled = mask.bits();
  int next_label = 0;
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      if (unlabeled[static_cast<size_t>(y) * width + x] == 0) continue;
      unlabeled[static_cast<size_t>(y) * width + x] = 0;
      ConnectedComponent cc;
      cc.label = ++next_label;
      cc.pixels.emplace_back(ox + x, oy + y);
      int min_x = x, min_y = y, max_x = x, max_y = y;
      double sum_x = 0, sum_y = 0;
      // Breadth-first: the pixel list is the queue, so members land in the
      // order they are dequeued.
      for (size_t head = 0; head < cc.pixels.size(); ++head) {
        const auto [fx, fy] = cc.pixels[head];
        sum_x += fx;
        sum_y += fy;
        const int cx = fx - ox, cy = fy - oy;
        min_x = std::min(min_x, cx);
        min_y = std::min(min_y, cy);
        max_x = std::max(max_x, cx);
        max_y = std::max(max_y, cy);
        constexpr int kDx[] = {1, -1, 0, 0};
        constexpr int kDy[] = {0, 0, 1, -1};
        for (int d = 0; d < 4; ++d) {
          const int nx = cx + kDx[d], ny = cy + kDy[d];
          if (nx < 0 || nx >= width || ny < 0 || ny >= height) continue;
          uint8_t& bit = unlabeled[static_cast<size_t>(ny) * width + nx];
          if (bit == 0) continue;
          bit = 0;
          cc.pixels.emplace_back(ox + nx, oy + ny);
        }
      }
      cc.area = static_cast<int64_t>(cc.pixels.size());
      cc.bbox = RectI{ox + min_x, oy + min_y, max_x - min_x + 1,
                      max_y - min_y + 1};
      cc.centroid = PointD{sum_x / static_cast<double>(cc.area),
                           sum_y / static_cast<double>(cc.area)};
      if (cc.area >= min_area) out.push_back(std::move(cc));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ConnectedComponent& a, const ConnectedComponent& b) {
              return a.area > b.area;
            });
  return out;
}

}  // namespace cobra::vision
