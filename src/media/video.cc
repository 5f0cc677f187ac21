#include "media/video.h"

#include <atomic>

#include "util/strings.h"

namespace cobra::media {

uint64_t VideoSource::NextInstanceId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

Result<std::shared_ptr<const Frame>> VideoSource::GetSharedFrame(
    int64_t index) const {
  COBRA_ASSIGN_OR_RETURN(Frame frame, GetFrame(index));
  return std::make_shared<const Frame>(std::move(frame));
}

MemoryVideo::MemoryVideo(std::vector<Frame> frames, double fps)
    : frames_(std::move(frames)), fps_(fps) {
  if (!frames_.empty()) {
    width_ = frames_.front().width();
    height_ = frames_.front().height();
  }
}

Result<Frame> MemoryVideo::GetFrame(int64_t index) const {
  if (index < 0 || index >= num_frames()) {
    return Status::OutOfRange(
        StringFormat("frame %lld out of [0, %lld)", static_cast<long long>(index),
                     static_cast<long long>(num_frames())));
  }
  return frames_[static_cast<size_t>(index)];
}

Result<Frame*> MemoryVideo::MutableFrame(int64_t index) {
  if (index < 0 || index >= num_frames()) {
    return Status::OutOfRange(
        StringFormat("frame %lld out of [0, %lld)", static_cast<long long>(index),
                     static_cast<long long>(num_frames())));
  }
  return &frames_[static_cast<size_t>(index)];
}

Status MemoryVideo::Append(Frame frame) {
  if (frames_.empty()) {
    width_ = frame.width();
    height_ = frame.height();
  } else if (frame.width() != width_ || frame.height() != height_) {
    return Status::InvalidArgument("appended frame dimensions differ");
  }
  frames_.push_back(std::move(frame));
  return Status::OK();
}

}  // namespace cobra::media
