#include "support/reference_segmentation.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <optional>

#include "util/strings.h"

namespace cobra::vision::reference {

namespace {

/// Pixel-by-pixel 3x3 morphology: erosion needs all nine neighbors set and
/// inside the frame, dilation any of them.
FullMask Morph(const FullMask& mask, bool dilate) {
  FullMask out{mask.width, mask.height, std::vector<uint8_t>(mask.bits.size())};
  for (int y = 0; y < mask.height; ++y) {
    for (int x = 0; x < mask.width; ++x) {
      bool any = false, all = true;
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          const bool set = mask.At(x + dx, y + dy);
          any = any || set;
          all = all && set;
        }
      }
      out.bits[static_cast<size_t>(y) * mask.width + x] =
          (dilate ? any : all) ? 1 : 0;
    }
  }
  return out;
}

}  // namespace

FullMask OutsideColorBoxes(const media::Frame& frame, const RectI& roi,
                           const kernels::ColorBox* boxes, size_t num_boxes) {
  FullMask out{frame.width(), frame.height(),
               std::vector<uint8_t>(static_cast<size_t>(frame.PixelCount()))};
  const RectI r = roi.ClipTo(frame.width(), frame.height());
  for (int y = r.y; y < r.Bottom(); ++y) {
    for (int x = r.x; x < r.Right(); ++x) {
      bool inside_any = false;
      for (size_t b = 0; b < num_boxes; ++b) {
        inside_any = inside_any || boxes[b].Contains(frame.At(x, y));
      }
      out.bits[static_cast<size_t>(y) * frame.width() + x] =
          inside_any ? 0 : 1;
    }
  }
  return out;
}

FullMask Erode(const FullMask& mask) { return Morph(mask, false); }
FullMask Dilate(const FullMask& mask) { return Morph(mask, true); }

std::vector<ConnectedComponent> LabelComponents(const FullMask& mask,
                                                int64_t min_area) {
  std::vector<ConnectedComponent> out;
  if (mask.width == 0 || mask.height == 0) return out;
  std::vector<int> labels(
      static_cast<size_t>(mask.width) * static_cast<size_t>(mask.height), 0);
  auto idx = [&](int x, int y) {
    return static_cast<size_t>(y) * mask.width + x;
  };
  int next_label = 0;
  for (int y = 0; y < mask.height; ++y) {
    for (int x = 0; x < mask.width; ++x) {
      if (!mask.At(x, y) || labels[idx(x, y)] != 0) continue;
      ++next_label;
      ConnectedComponent cc;
      cc.label = next_label;
      double sum_x = 0, sum_y = 0;
      std::deque<std::pair<int, int>> queue{{x, y}};
      labels[idx(x, y)] = next_label;
      RectI box{x, y, 1, 1};
      while (!queue.empty()) {
        auto [cx, cy] = queue.front();
        queue.pop_front();
        cc.pixels.emplace_back(cx, cy);
        cc.area++;
        sum_x += cx;
        sum_y += cy;
        box = box.Union(RectI{cx, cy, 1, 1});
        constexpr int kDx[] = {1, -1, 0, 0};
        constexpr int kDy[] = {0, 0, 1, -1};
        for (int d = 0; d < 4; ++d) {
          int nx = cx + kDx[d], ny = cy + kDy[d];
          if (mask.At(nx, ny) && labels[idx(nx, ny)] == 0) {
            labels[idx(nx, ny)] = next_label;
            queue.emplace_back(nx, ny);
          }
        }
      }
      cc.bbox = box;
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

std::vector<ConnectedComponent> SegmentForeground(
    const media::Frame& frame, const RectI& roi,
    const kernels::ColorBox* boxes, size_t num_boxes, int64_t min_area) {
  return LabelComponents(
      Dilate(Erode(OutsideColorBoxes(frame, roi, boxes, num_boxes))),
      min_area);
}

}  // namespace cobra::vision::reference

namespace cobra::detectors::reference {

namespace {

std::optional<vision::ConnectedComponent> ClosestComponent(
    std::vector<vision::ConnectedComponent> components, const PointD& target) {
  if (components.empty()) return std::nullopt;
  auto best = std::min_element(
      components.begin(), components.end(),
      [&](const vision::ConnectedComponent& a,
          const vision::ConnectedComponent& b) {
        return a.centroid.DistanceTo(target) < b.centroid.DistanceTo(target);
      });
  return std::move(*best);
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool SamePoint(const PointD& a, const PointD& b) {
  return SameBits(a.x, b.x) && SameBits(a.y, b.y);
}

bool SameFeatures(const vision::ShapeFeatures& a,
                  const vision::ShapeFeatures& b) {
  return SameBits(a.area, b.area) && SamePoint(a.mass_center, b.mass_center) &&
         a.bounding_box == b.bounding_box &&
         SameBits(a.orientation, b.orientation) &&
         SameBits(a.eccentricity, b.eccentricity) &&
         a.dominant_color == b.dominant_color;
}

}  // namespace

Result<TrackingResult> Track(const PlayerTrackerConfig& config,
                             const media::VideoSource& video,
                             const FrameInterval& shot) {
  if (shot.Empty() || shot.begin < 0 || shot.end >= video.num_frames()) {
    return Status::InvalidArgument(
        StringFormat("shot %s out of video bounds", shot.ToString().c_str()));
  }
  TrackingResult result;
  COBRA_ASSIGN_OR_RETURN(media::Frame first, video.GetFrame(shot.begin));
  COBRA_ASSIGN_OR_RETURN(result.court, EstimateCourtModel(first, config.court));
  const CourtModel& court = result.court;

  RectI roi =
      RectI{court.court_bbox.x - config.court_margin,
            court.court_bbox.y - config.court_margin_top,
            court.court_bbox.width + 2 * config.court_margin,
            court.court_bbox.height + config.court_margin_top +
                config.court_margin}
          .ClipTo(first.width(), first.height());

  const vision::kernels::ColorBox boxes[3] = {
      court.court_color.MatchBox(config.foreground_k),
      court.surround_color.MatchBox(config.foreground_k),
      vision::kernels::ColorBox{{186, 186, 186}, {255, 255, 255}}};
  auto segment = [&](const media::Frame& frame, const RectI& r) {
    return vision::reference::SegmentForeground(frame, r, boxes, 3,
                                                config.min_player_area);
  };

  auto components = segment(first, roi);
  struct PlayerState {
    PlayerTrack track;
    PointD velocity;
    RectI last_bbox;
    int lost = 0;
    bool alive = false;
  };
  PlayerState players[2];
  players[0].track.player_id = 0;
  players[1].track.player_id = 1;

  for (int id = 0; id < 2; ++id) {
    const bool near_half = (id == 0);
    for (const auto& c : components) {
      bool in_half = near_half ? c.centroid.y > court.net_y
                               : c.centroid.y <= court.net_y;
      if (!in_half) continue;
      TrackPoint tp;
      tp.frame = shot.begin;
      tp.center = c.centroid;
      tp.bbox = c.bbox;
      tp.features = vision::ComputeShapeFeatures(first, c);
      players[id].track.points.push_back(tp);
      players[id].last_bbox = c.bbox;
      players[id].alive = true;
      break;
    }
  }

  for (int64_t f = shot.begin + 1; f <= shot.end; ++f) {
    COBRA_ASSIGN_OR_RETURN(media::Frame frame, video.GetFrame(f));
    for (PlayerState& ps : players) {
      if (!ps.alive) continue;
      const TrackPoint& last = ps.track.points.back();
      PointD predicted = last.center + ps.velocity;

      RectI window{
          static_cast<int>(predicted.x) - ps.last_bbox.width / 2 -
              config.search_margin,
          static_cast<int>(predicted.y) - ps.last_bbox.height / 2 -
              config.search_margin,
          ps.last_bbox.width + 2 * config.search_margin,
          ps.last_bbox.height + 2 * config.search_margin};
      window = window.Intersect(roi);

      std::optional<vision::ConnectedComponent> hit =
          ClosestComponent(segment(frame, window), predicted);

      if (!hit && ++ps.lost > config.max_lost_frames) {
        RectI half = roi;
        if (ps.track.player_id == 0) {
          half.height = roi.Bottom() - court.net_y;
          half.y = court.net_y;
        } else {
          half.height = court.net_y - roi.y;
        }
        hit = ClosestComponent(segment(frame, half), predicted);
      }

      TrackPoint tp;
      tp.frame = f;
      if (hit) {
        tp.center = hit->centroid;
        tp.bbox = hit->bbox;
        tp.features = vision::ComputeShapeFeatures(frame, *hit);
        if (last.predicted_only) {
          ps.velocity = PointD{0, 0};
        } else {
          ps.velocity = (tp.center - last.center) * 0.5;
          double norm = ps.velocity.Norm();
          constexpr double kMaxVelocity = 12.0;
          if (norm > kMaxVelocity) {
            ps.velocity = ps.velocity * (kMaxVelocity / norm);
          }
        }
        ps.last_bbox = hit->bbox;
        ps.lost = 0;
      } else {
        tp.center = predicted;
        tp.bbox = window;
        tp.predicted_only = true;
      }
      ps.track.points.push_back(tp);
    }
  }

  for (PlayerState& ps : players) {
    if (ps.alive) result.tracks.push_back(std::move(ps.track));
  }
  result.frames_processed = shot.Length();
  return result;
}

bool SameTracking(const TrackingResult& a, const TrackingResult& b) {
  if (!(a.court.court_bbox == b.court.court_bbox) ||
      a.court.net_y != b.court.net_y ||
      a.frames_processed != b.frames_processed ||
      a.tracks.size() != b.tracks.size()) {
    return false;
  }
  for (size_t t = 0; t < a.tracks.size(); ++t) {
    const PlayerTrack& ta = a.tracks[t];
    const PlayerTrack& tb = b.tracks[t];
    if (ta.player_id != tb.player_id || ta.points.size() != tb.points.size()) {
      return false;
    }
    for (size_t i = 0; i < ta.points.size(); ++i) {
      const TrackPoint& pa = ta.points[i];
      const TrackPoint& pb = tb.points[i];
      if (pa.frame != pb.frame || !SamePoint(pa.center, pb.center) ||
          !(pa.bbox == pb.bbox) || pa.predicted_only != pb.predicted_only ||
          !SameFeatures(pa.features, pb.features)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace cobra::detectors::reference
