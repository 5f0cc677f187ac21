#include "media/prefetch.h"

#include <algorithm>
#include <utility>

#include "util/strings.h"

namespace cobra::media {

namespace {

/// Buffer budget in GOPs for a given lookahead: the GOPs spanned by the
/// read-ahead window, plus the one being consumed and one of slack so a
/// just-behind reader does not evict what a just-ahead reader needs.
size_t ResidentBudget(const PrefetchConfig& config, const EncodedVideo& video) {
  const int gop = std::max(1, video.config().gop_size);
  const int64_t window = std::max<int64_t>(0, config.prefetch_frames);
  return static_cast<size_t>(window / gop + 3);
}

/// How far past the budget the buffer may grow before eviction stops
/// sparing GOPs that some tracked reader has not passed yet. Bounds memory
/// when a reader goes quiet mid-stream (its stale position would otherwise
/// pin every later GOP).
constexpr size_t kOverdriveFactor = 4;

}  // namespace

PrefetchingVideoSource::PrefetchingVideoSource(const CodedVideoSource& source,
                                               PrefetchConfig config,
                                               util::ThreadPool* pool)
    : source_(source),
      config_(config),
      pool_(pool != nullptr && pool->num_threads() > 0 ? pool : nullptr),
      max_resident_gops_(ResidentBudget(config, source.encoded())),
      tasks_(pool_) {}

PrefetchingVideoSource::~PrefetchingVideoSource() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;  // ScheduleLookaheadLocked submits nothing past here
  }
  tasks_.Wait();  // join in-flight decodes that reference this object
}

PrefetchStats PrefetchingVideoSource::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void PrefetchingVideoSource::WaitIdle() const {
  std::unique_lock<std::mutex> lock(mutex_);
  // Every decode, read-ahead or inline, publishes under mutex_ and wakes
  // ready_cv_; in-flight slots are never evicted.
  ready_cv_.wait(lock, [this]() {
    for (const auto& [gop, slot] : slots_) {
      if (slot->state == GopSlot::State::kInFlight) return false;
    }
    return true;
  });
}

Result<PrefetchingVideoSource::SharedFrames>
PrefetchingVideoSource::DecodeShared(int64_t gop) const {
  COBRA_ASSIGN_OR_RETURN(std::vector<Frame> frames, source_.DecodeGop(gop));
  SharedFrames shared;
  shared.reserve(frames.size());
  for (Frame& frame : frames) {
    shared.push_back(std::make_shared<const Frame>(std::move(frame)));
  }
  return shared;
}

void PrefetchingVideoSource::PublishLocked(
    GopSlot* slot, Result<SharedFrames> decoded) const {
  if (decoded.ok()) {
    slot->frames = decoded.TakeValue();
    slot->state = GopSlot::State::kReady;
  } else {
    slot->status = decoded.status();
    slot->state = GopSlot::State::kFailed;
  }
  ready_cv_.notify_all();
}

void PrefetchingVideoSource::ScheduleLookaheadLocked(int64_t index) const {
  if (pool_ == nullptr || stopping_ || config_.prefetch_frames <= 0) return;
  const int64_t last = std::min(index + config_.prefetch_frames,
                                source_.num_frames() - 1);
  const int64_t first_gop = source_.encoded().GopOfFrame(index);
  const int64_t last_gop = source_.encoded().GopOfFrame(last);
  for (int64_t g = first_gop; g <= last_gop; ++g) {
    if (slots_.count(g) > 0) continue;
    if (slots_.size() >= max_resident_gops_ + 1) break;  // buffer is full
    auto slot = std::make_shared<GopSlot>();
    slot->last_touch = ++touch_clock_;
    slots_.emplace(g, slot);
    ++stats_.scheduled_gops;
    tasks_.Run([this, g, slot]() {
      // Pure decode outside the lock; publish under it.
      Result<SharedFrames> decoded = DecodeShared(g);
      std::lock_guard<std::mutex> lock(mutex_);
      PublishLocked(slot.get(), std::move(decoded));
    });
  }
}

int64_t PrefetchingVideoSource::MinReaderGopLocked() const {
  int64_t min_gop = source_.encoded().NumGops();
  for (const auto& [tid, pos] : positions_) {
    if (pos.frame < 0) continue;
    min_gop = std::min(min_gop, source_.encoded().GopOfFrame(pos.frame));
  }
  return min_gop;
}

void PrefetchingVideoSource::EvictLocked(int64_t keep_gop) const {
  const int64_t min_reader_gop = MinReaderGopLocked();
  while (slots_.size() > max_resident_gops_) {
    // Pass 1: least-recently-touched GOP behind every reader (dead on a
    // forward scan). Pass 2 (only past the overdrive bound): plain LRU.
    auto victim = slots_.end();
    for (int pass = 0; pass < 2 && victim == slots_.end(); ++pass) {
      if (pass == 1 && slots_.size() <= max_resident_gops_ * kOverdriveFactor) {
        return;  // tolerate reader drift instead of forcing re-decodes
      }
      for (auto it = slots_.begin(); it != slots_.end(); ++it) {
        if (it->first == keep_gop ||
            it->second->state == GopSlot::State::kInFlight ||
            (pass == 0 && it->first >= min_reader_gop)) {
          continue;
        }
        if (victim == slots_.end() ||
            it->second->last_touch < victim->second->last_touch) {
          victim = it;
        }
      }
    }
    if (victim == slots_.end()) return;  // everything is in use or in flight
    slots_.erase(victim);
    ++stats_.evicted_gops;
  }
}

Result<Frame> PrefetchingVideoSource::GetFrame(int64_t index) const {
  COBRA_ASSIGN_OR_RETURN(std::shared_ptr<const Frame> frame,
                         GetSharedFrame(index));
  return *frame;
}

Result<std::shared_ptr<const Frame>> PrefetchingVideoSource::GetSharedFrame(
    int64_t index) const {
  if (index < 0 || index >= source_.num_frames()) {
    return Status::OutOfRange(
        StringFormat("frame %lld out of range", static_cast<long long>(index)));
  }
  const int64_t gop = source_.encoded().GopOfFrame(index);

  std::unique_lock<std::mutex> lock(mutex_);
  // The heuristic is per reader thread: concurrent branches interleave
  // arbitrarily, but each branch on its own walks forward.
  ReaderPos& pos = positions_[std::this_thread::get_id()];
  const bool sequential =
      pos.frame < 0
          ? index <= config_.sequential_stride
          : index >= pos.frame &&
                index - pos.frame <= config_.sequential_stride;
  pos.frame = index;
  pos.stamp = ++touch_clock_;

  auto it = slots_.find(gop);
  std::shared_ptr<GopSlot> slot;
  if (it == slots_.end()) {
    // Miss: claim the slot, decode on this thread (off the lock), publish.
    slot = std::make_shared<GopSlot>();
    slots_.emplace(gop, slot);
    ++stats_.inline_decodes;
    if (sequential) ScheduleLookaheadLocked(index);
    lock.unlock();
    Result<SharedFrames> decoded = DecodeShared(gop);
    lock.lock();
    PublishLocked(slot.get(), std::move(decoded));
  } else {
    slot = it->second;
    if (slot->state == GopSlot::State::kInFlight) {
      ++stats_.buffer_waits;
    } else {
      ++stats_.buffer_hits;
    }
    if (sequential) ScheduleLookaheadLocked(index);
    ready_cv_.wait(lock, [&slot]() {
      return slot->state != GopSlot::State::kInFlight;
    });
  }

  if (slot->state == GopSlot::State::kFailed) {
    // Failed slots are not cached: drop so a retry re-decodes.
    auto failed = slots_.find(gop);
    if (failed != slots_.end() && failed->second == slot) slots_.erase(failed);
    return slot->status;
  }
  slot->last_touch = ++touch_clock_;
  EvictLocked(gop);
  lock.unlock();
  // Read outside the lock: `frames` is written once at publish and the
  // shared_ptr keeps the slot alive even if a concurrent eviction drops it
  // from the map.
  const int64_t first =
      source_.encoded().Gops()[static_cast<size_t>(gop)].first_frame;
  return slot->frames[static_cast<size_t>(index - first)];
}

}  // namespace cobra::media
