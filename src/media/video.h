#pragma once

/// \file video.h
/// `VideoSource`: the abstract decoded-video interface consumed by every
/// detector, plus an in-memory implementation.
///
/// The paper's segment detector sits behind an external MPEG decoder; here
/// any frame producer (the tennis synthesizer, a test pattern, a recorded
/// buffer) plugs in behind the same interface.

#include <cstdint>
#include <memory>
#include <vector>

#include "media/frame.h"
#include "util/status.h"

namespace cobra::media {

/// Random-access source of decoded frames.
class VideoSource {
 public:
  virtual ~VideoSource() = default;

  virtual int64_t num_frames() const = 0;
  virtual int width() const = 0;
  virtual int height() const = 0;
  /// Frames per second of the nominal timeline (used to convert event frame
  /// intervals to seconds in query results).
  virtual double fps() const = 0;

  /// Decodes frame `index` in [0, num_frames()).
  virtual Result<Frame> GetFrame(int64_t index) const = 0;

  /// Frame `index` as an immutable shared frame. The default wraps
  /// GetFrame; a source that already keeps decoded frames (the GOP buffer
  /// of PrefetchingVideoSource) hands out its own frame without copying.
  virtual Result<std::shared_ptr<const Frame>> GetSharedFrame(
      int64_t index) const;

  /// Process-unique id of this object, never reused. A source destroyed
  /// and another constructed at the same address get different ids, so
  /// state kept per source (the FDE's decode pipeline and frame-feature
  /// cache) is rebound on an id change, not on an address change. Copies
  /// and moves get a fresh id.
  uint64_t instance_id() const { return instance_id_; }

 protected:
  VideoSource() : instance_id_(NextInstanceId()) {}
  VideoSource(const VideoSource&) : instance_id_(NextInstanceId()) {}
  VideoSource& operator=(const VideoSource&) {
    instance_id_ = NextInstanceId();
    return *this;
  }

 private:
  static uint64_t NextInstanceId();

  uint64_t instance_id_;
};

/// A video fully materialized in memory.
class MemoryVideo : public VideoSource {
 public:
  MemoryVideo(std::vector<Frame> frames, double fps);

  int64_t num_frames() const override {
    return static_cast<int64_t>(frames_.size());
  }
  int width() const override { return width_; }
  int height() const override { return height_; }
  double fps() const override { return fps_; }

  Result<Frame> GetFrame(int64_t index) const override;

  /// Appends a frame; must match the dimensions of the first frame.
  Status Append(Frame frame);

  /// Mutable access for post-processing passes (e.g. the synthesizer's
  /// dissolve rendering). Bounds-checked like GetFrame: returns OutOfRange
  /// instead of handing out a dangling pointer.
  Result<Frame*> MutableFrame(int64_t index);

 private:
  std::vector<Frame> frames_;
  int width_ = 0;
  int height_ = 0;
  double fps_ = 25.0;
};

}  // namespace cobra::media
