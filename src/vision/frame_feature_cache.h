#pragma once

/// \file frame_feature_cache.h
/// `FrameFeatureCache`: memoizes per-frame artifacts that several detectors
/// recompute from the same video — decoded (and downsampled) frames, color
/// histograms, skin-pixel ratios and gray-level statistics. Shared across
/// the whole FDE run through `DetectionContext`, so the shot-boundary
/// detector's two histogram passes, the shot classifier and the player
/// tracker all hit the same entries.
///
/// Thread-safe: lookups may race, in which case both threads compute the
/// same (pure) value and one insert wins — results never depend on the
/// interleaving. Entries are evicted LRU under a byte budget; values are
/// handed out as shared_ptr so eviction never invalidates a value in use.

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>

#include "media/frame.h"
#include "media/video.h"
#include "util/status.h"
#include "vision/gray_stats.h"
#include "vision/histogram.h"

namespace cobra::vision {

struct FrameFeatureCacheConfig {
  /// Total budget for cached pixel + histogram bytes. 0 disables caching
  /// entirely (every call recomputes).
  size_t cache_bytes = size_t{64} << 20;
};

class FrameFeatureCache {
 public:
  /// The cache is bound to one video: keys are frame indices into it.
  explicit FrameFeatureCache(const media::VideoSource& video,
                             FrameFeatureCacheConfig config = {});

  const media::VideoSource& video() const { return video_; }

  /// Frame `index`, box-downsampled by `downsample` (1 = full resolution).
  /// At full resolution the entry is the source's own shared frame
  /// (VideoSource::GetSharedFrame), not a copy; it is charged to the
  /// budget all the same, so eviction does not depend on the source.
  Result<std::shared_ptr<const media::Frame>> GetFrame(int64_t index,
                                                       int downsample);

  /// Color histogram of frame `index` downsampled by `downsample`, with
  /// `bins_per_channel` bins.
  Result<std::shared_ptr<const ColorHistogram>> GetHistogram(
      int64_t index, int downsample, int bins_per_channel);

  /// Fraction of skin-colored pixels of the full-resolution frame.
  Result<double> GetSkinRatio(int64_t index);

  /// Gray-level mean / variance / entropy of the full-resolution frame.
  Result<GrayStats> GetGrayStats(int64_t index);

  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
    size_t bytes = 0;  ///< currently cached
  };
  Stats stats() const;

  /// Drops every entry (stat counters are kept).
  void Clear();

 private:
  /// One key per (artifact kind, frame, parameters).
  struct Key {
    enum class Kind { kFrame, kHistogram, kSkinRatio, kGrayStats };
    Kind kind;
    int64_t frame = 0;
    int downsample = 1;
    int bins = 0;
    bool operator<(const Key& other) const;
  };

  struct Entry {
    std::shared_ptr<const media::Frame> frame;
    std::shared_ptr<const ColorHistogram> histogram;
    double scalar = 0.0;
    GrayStats gray;
    size_t bytes = 0;
    std::list<Key>::iterator lru_pos;
  };

  /// Returns the cached entry for `key` (bumping LRU) or nullptr.
  Entry* Lookup(const Key& key);
  /// Inserts `entry` under `key`, evicting LRU entries over budget.
  void Insert(const Key& key, Entry entry);

  const media::VideoSource& video_;
  FrameFeatureCacheConfig config_;

  mutable std::mutex mutex_;
  std::map<Key, Entry> entries_;
  std::list<Key> lru_;  ///< front = most recent
  Stats stats_;
};

}  // namespace cobra::vision
