#pragma once

/// \file prefetch.h
/// `PrefetchingVideoSource`: a VideoSource decorator that hides the coded
/// decode stall behind GOP-granular read-ahead.
///
/// The FDE's detectors walk frames roughly in order; the decoder's cost is
/// concentrated in GOP decodes. This decorator watches the access pattern,
/// and while the pipeline consumes frame i it schedules the GOPs covering
/// (i, i + prefetch_frames] onto a thread pool. Decoded GOPs land in a
/// bounded buffer (LRU-evicted per GOP), so the steady-state sequential
/// read is a buffer hit and the decode happens off the critical path.
///
/// Thread-safety contract: `GetFrame` and `GetSharedFrame` are safe from
/// any number of threads (the FDE calls them from every wave worker).
/// Decode work itself is `CodedVideoSource::DecodeGop`, which is pure, so
/// output is bit-identical to the undecorated source for every config.
/// Destruction joins all in-flight decode tasks.

#include <cstdint>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "media/block_codec.h"
#include "media/video.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace cobra::media {

struct PrefetchConfig {
  /// How far past the last served frame to keep decoded (in frames).
  /// <= 0 disables read-ahead: the decorator degenerates to a per-GOP
  /// decode cache.
  int64_t prefetch_frames = 96;
  /// A forward jump of at most this many frames still counts as sequential
  /// access (detectors sample every k-th frame); larger jumps and backward
  /// seeks are treated as random access and trigger no read-ahead.
  int64_t sequential_stride = 16;
};

/// Counters for observability and bench assertions (snapshot under lock).
struct PrefetchStats {
  int64_t buffer_hits = 0;      ///< frame served from a resident GOP
  int64_t buffer_waits = 0;     ///< GOP was in flight; caller blocked on it
  int64_t inline_decodes = 0;   ///< GOP absent; caller decoded it itself
  int64_t scheduled_gops = 0;   ///< GOP decodes submitted to the pool
  int64_t evicted_gops = 0;
};

class PrefetchingVideoSource : public VideoSource {
 public:
  /// `source` must outlive this object. `pool` (borrowed, may be null) runs
  /// the read-ahead decodes; with a null or inline pool every decode is
  /// synchronous on the calling thread and only the GOP cache remains.
  ///
  /// `pool` must be DEDICATED to this prefetcher: a waiter on an in-flight
  /// GOP blocks until the pool runs that GOP's task, so if the pool's
  /// workers can themselves block in GetFrame (e.g. the FDE wave pool),
  /// every worker may end up waiting on a task none of them will run. The
  /// FDE therefore owns a separate decode pool (FdeConfig::decode_threads).
  PrefetchingVideoSource(const CodedVideoSource& source, PrefetchConfig config,
                         util::ThreadPool* pool);
  ~PrefetchingVideoSource() override;

  int64_t num_frames() const override { return source_.num_frames(); }
  int width() const override { return source_.width(); }
  int height() const override { return source_.height(); }
  double fps() const override { return source_.fps(); }

  /// A copy of the buffered frame (see GetSharedFrame).
  Result<Frame> GetFrame(int64_t index) const override;
  /// The GOP buffer's own frame, shared without copying: it stays valid
  /// for as long as the caller holds it, also after its GOP is evicted.
  Result<std::shared_ptr<const Frame>> GetSharedFrame(
      int64_t index) const override;

  const CodedVideoSource& source() const { return source_; }
  PrefetchStats stats() const;

  /// Blocks until no GOP decode is in flight. With no reader active, no
  /// task then touches `source` until the next GetFrame, so the caller may
  /// destroy the source (the decorator must then see no GetFrame again).
  void WaitIdle() const;

 private:
  using SharedFrames = std::vector<std::shared_ptr<const Frame>>;

  /// One GOP's decode slot in the buffer.
  struct GopSlot {
    enum class State { kInFlight, kReady, kFailed };
    State state = State::kInFlight;
    Status status = Status::OK();  ///< failure cause when kFailed
    /// Display order when kReady. Handed out by pointer: readers (the
    /// frame-feature cache) share these frames instead of copying them.
    SharedFrames frames;
    int64_t last_touch = 0;        ///< LRU stamp
  };

  /// Per-reader-thread stream position. Concurrent detector branches walk
  /// the stream at different offsets; tracking them separately keeps the
  /// sequential heuristic meaningful (a global "last index" flip-flops
  /// between readers) and lets eviction know which GOPs are behind every
  /// reader and therefore dead.
  struct ReaderPos {
    int64_t frame = -1;
    int64_t stamp = 0;  ///< touch_clock_ at last access
  };

  /// Decodes GOP `gop` into shared frames. Pure; runs outside `mutex_`.
  Result<SharedFrames> DecodeShared(int64_t gop) const;
  /// Publishes a finished decode into `slot` and wakes waiters. Called with
  /// `mutex_` held.
  void PublishLocked(GopSlot* slot, Result<SharedFrames> decoded) const;
  /// Schedules GOPs covering (index, index + prefetch_frames] that are not
  /// yet resident. Called with `mutex_` held; only enqueues, never decodes.
  void ScheduleLookaheadLocked(int64_t index) const;
  /// Drops ready GOPs beyond the buffer budget, preferring GOPs behind
  /// every tracked reader (nobody will re-read them on a forward scan).
  /// GOPs still ahead of some reader are spared until the buffer reaches
  /// `kOverdriveFactor` times the budget — evicting them while readers are
  /// merely drifting apart forces the laggard to re-decode, which under
  /// concurrent branches degenerates into each branch decoding the whole
  /// stream. Called with `mutex_` held; never drops `keep_gop` or in-flight
  /// slots.
  void EvictLocked(int64_t keep_gop) const;
  /// Smallest GOP any tracked reader is positioned in. Called with `mutex_`
  /// held.
  int64_t MinReaderGopLocked() const;

  const CodedVideoSource& source_;
  const PrefetchConfig config_;
  util::ThreadPool* const pool_;  ///< null or inline => synchronous mode
  const size_t max_resident_gops_;

  mutable std::mutex mutex_;
  mutable std::condition_variable ready_cv_;
  mutable std::unordered_map<int64_t, std::shared_ptr<GopSlot>> slots_;
  mutable std::unordered_map<std::thread::id, ReaderPos> positions_;
  mutable int64_t touch_clock_ = 0;
  mutable bool stopping_ = false;
  mutable PrefetchStats stats_;
  /// All Run calls are serialized under mutex_; Wait runs only in the
  /// destructor after stopping_ blocks further Runs — the TaskGroup
  /// single-submitter contract holds.
  mutable util::TaskGroup tasks_;
};

}  // namespace cobra::media
