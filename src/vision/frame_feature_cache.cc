#include "vision/frame_feature_cache.h"

#include <tuple>
#include <utility>

namespace cobra::vision {

namespace {
/// Fixed bookkeeping charge per entry (key + node + control block).
constexpr size_t kEntryOverhead = 128;
}  // namespace

bool FrameFeatureCache::Key::operator<(const Key& other) const {
  return std::tie(kind, frame, downsample, bins) <
         std::tie(other.kind, other.frame, other.downsample, other.bins);
}

FrameFeatureCache::FrameFeatureCache(const media::VideoSource& video,
                                     FrameFeatureCacheConfig config)
    : video_(video), config_(config) {}

FrameFeatureCache::Entry* FrameFeatureCache::Lookup(const Key& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  return &it->second;
}

void FrameFeatureCache::Insert(const Key& key, Entry entry) {
  entry.bytes += kEntryOverhead;
  if (entry.bytes > config_.cache_bytes) return;  // would never fit
  auto [it, inserted] = entries_.emplace(key, std::move(entry));
  if (!inserted) return;  // a concurrent computation beat us; keep theirs
  lru_.push_front(key);
  it->second.lru_pos = lru_.begin();
  stats_.bytes += it->second.bytes;
  while (stats_.bytes > config_.cache_bytes && !lru_.empty()) {
    auto victim = entries_.find(lru_.back());
    stats_.bytes -= victim->second.bytes;
    entries_.erase(victim);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

Result<std::shared_ptr<const media::Frame>> FrameFeatureCache::GetFrame(
    int64_t index, int downsample) {
  const Key key{Key::Kind::kFrame, index, downsample, 0};
  if (config_.cache_bytes > 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (Entry* entry = Lookup(key)) return entry->frame;
  }
  COBRA_ASSIGN_OR_RETURN(std::shared_ptr<const media::Frame> shared,
                         video_.GetSharedFrame(index));
  if (downsample > 1) {
    COBRA_ASSIGN_OR_RETURN(media::Frame small, shared->Downsample(downsample));
    shared = std::make_shared<const media::Frame>(std::move(small));
  }
  if (config_.cache_bytes > 0) {
    Entry entry;
    entry.frame = shared;
    entry.bytes =
        static_cast<size_t>(shared->PixelCount()) * sizeof(media::Rgb);
    std::lock_guard<std::mutex> lock(mutex_);
    Insert(key, std::move(entry));
  }
  return shared;
}

Result<std::shared_ptr<const ColorHistogram>> FrameFeatureCache::GetHistogram(
    int64_t index, int downsample, int bins_per_channel) {
  const Key key{Key::Kind::kHistogram, index, downsample, bins_per_channel};
  if (config_.cache_bytes > 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (Entry* entry = Lookup(key)) return entry->histogram;
  }
  COBRA_ASSIGN_OR_RETURN(std::shared_ptr<const media::Frame> frame,
                         GetFrame(index, downsample));
  COBRA_ASSIGN_OR_RETURN(ColorHistogram histogram,
                         ColorHistogram::FromFrame(*frame, bins_per_channel));
  auto shared = std::make_shared<const ColorHistogram>(std::move(histogram));
  if (config_.cache_bytes > 0) {
    Entry entry;
    entry.histogram = shared;
    entry.bytes = shared->NumBins() * sizeof(double);
    std::lock_guard<std::mutex> lock(mutex_);
    Insert(key, std::move(entry));
  }
  return shared;
}

Result<double> FrameFeatureCache::GetSkinRatio(int64_t index) {
  const Key key{Key::Kind::kSkinRatio, index, 1, 0};
  if (config_.cache_bytes > 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (Entry* entry = Lookup(key)) return entry->scalar;
  }
  COBRA_ASSIGN_OR_RETURN(std::shared_ptr<const media::Frame> frame,
                         GetFrame(index, 1));
  const double ratio = SkinPixelRatio(*frame);
  if (config_.cache_bytes > 0) {
    Entry entry;
    entry.scalar = ratio;
    std::lock_guard<std::mutex> lock(mutex_);
    Insert(key, std::move(entry));
  }
  return ratio;
}

Result<GrayStats> FrameFeatureCache::GetGrayStats(int64_t index) {
  const Key key{Key::Kind::kGrayStats, index, 1, 0};
  if (config_.cache_bytes > 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (Entry* entry = Lookup(key)) return entry->gray;
  }
  COBRA_ASSIGN_OR_RETURN(std::shared_ptr<const media::Frame> frame,
                         GetFrame(index, 1));
  const GrayStats stats = ComputeGrayStats(*frame);
  if (config_.cache_bytes > 0) {
    Entry entry;
    entry.gray = stats;
    std::lock_guard<std::mutex> lock(mutex_);
    Insert(key, std::move(entry));
  }
  return stats;
}

FrameFeatureCache::Stats FrameFeatureCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void FrameFeatureCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  lru_.clear();
  stats_.bytes = 0;
}

}  // namespace cobra::vision
