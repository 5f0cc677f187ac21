#pragma once

/// \file fde.h
/// The Feature Detector Engine: the parser "generated" from a feature
/// grammar (paper §3). The FDE walks the grammar's dependency DAG and
/// triggers the execution of the associated detectors, accumulating the
/// video meta-data that later populates the meta-index.
///
/// Detectors come in two flavors, as in the paper:
///   * black-box: an arbitrary callable registered by name (e.g. the
///     segment detector wrapping histogram differencing);
///   * white-box: a declarative spatio-temporal predicate over existing
///     annotations, interpreted by the engine itself (see WhiteboxRule).
///
/// Execution is wave-scheduled: the grammar's topological levels
/// (FeatureGrammar::ExecutionWaves) run one after another, and the
/// detectors inside one wave run concurrently on a thread pool. Blackboard
/// writes happen only at wave barriers, so the DetectionContext is
/// read-only while detectors execute and the annotation output is
/// bit-identical to a sequential run (see DESIGN.md "Parallel execution
/// model").

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "grammar/annotation.h"
#include "grammar/feature_grammar.h"
#include "media/video.h"
#include "util/status.h"

namespace cobra::util {
class ThreadPool;
}  // namespace cobra::util

namespace cobra::media {
class CodedVideoSource;
class PrefetchingVideoSource;
}  // namespace cobra::media

namespace cobra::vision {
class FrameFeatureCache;
}  // namespace cobra::vision

namespace cobra::grammar {

/// Engine-level execution knobs.
struct FdeConfig {
  /// Detectors within one grammar wave (and frame loops inside detectors
  /// that use the shared pool) run on this many threads. 1 reproduces the
  /// sequential engine exactly.
  int num_threads = 1;
  /// Byte budget of the shared per-frame feature cache (decoded frames,
  /// histograms, skin ratios, gray stats). 0 disables caching.
  size_t cache_bytes = size_t{64} << 20;
  /// Decode pipeline (only active when Run is handed a
  /// media::CodedVideoSource): the engine wraps the source in a
  /// PrefetchingVideoSource backed by a dedicated decode pool of this many
  /// threads, so detectors read decoded frames from the GOP buffer instead
  /// of stalling on the decoder. 0 follows num_threads; negative disables
  /// the pipeline (detectors hit the raw decoder). Output is bit-identical
  /// either way.
  int decode_threads = 0;
  /// Read-ahead window of the decode pipeline, in frames (<= 0: no
  /// read-ahead, the pipeline degenerates to a GOP decode cache).
  int64_t prefetch_frames = 96;
};

/// What a detector sees while running: the video plus every annotation
/// produced by detectors in earlier waves, and the shared execution
/// substrate (frame-feature cache + thread pool). During a wave the context
/// is read-only; the cache is internally synchronized.
class DetectionContext {
 public:
  DetectionContext(const media::VideoSource& video,
                   const std::map<std::string, std::vector<Annotation>>* blackboard,
                   vision::FrameFeatureCache* cache = nullptr,
                   util::ThreadPool* pool = nullptr)
      : video_(video), blackboard_(blackboard), cache_(cache), pool_(pool) {}

  const media::VideoSource& video() const { return video_; }

  /// Annotations of a dependency symbol (empty if none were produced).
  const std::vector<Annotation>& Of(const std::string& symbol) const;

  /// Shared per-frame feature cache for this run (null when the engine was
  /// built without one; detectors must fall back to direct computation).
  vision::FrameFeatureCache* cache() const { return cache_; }

  /// Shared thread pool (null or inline in single-threaded runs).
  util::ThreadPool* pool() const { return pool_; }

 private:
  const media::VideoSource& video_;
  const std::map<std::string, std::vector<Annotation>>* blackboard_;
  vision::FrameFeatureCache* cache_ = nullptr;
  util::ThreadPool* pool_ = nullptr;
};

/// A black-box detector: consumes the context, emits annotations for its
/// own symbol.
using DetectorFn =
    std::function<Result<std::vector<Annotation>>(const DetectionContext&)>;

/// A white-box detector rule, interpreted by the FDE itself: selects
/// annotations of `source` whose numeric attribute satisfies a comparison,
/// and re-emits them under the rule's own symbol.
///
/// This models the paper's "rules, which use spatio-temporal relations ...
/// implemented as white- ... box detectors within the FDE": the attribute
/// is typically a spatial quantity (distance to net) and the run-length
/// constraint is the temporal part.
struct WhiteboxRule {
  std::string source;        ///< symbol whose annotations are filtered
  std::string attribute;     ///< numeric attribute to test
  enum class Op { kLess, kGreater } op = Op::kLess;
  double threshold = 0.0;
  /// Only emit matches whose interval is at least this long.
  int64_t min_length = 1;
};

/// Per-detector execution record.
struct DetectorRunStats {
  std::string symbol;
  int64_t annotations_out = 0;
  double millis = 0.0;
  bool from_cache = false;  ///< reused from the previous run (incremental)
  int wave = 0;             ///< topological level the detector ran in
};

/// Per-wave execution record: the concurrent batch and its barrier-to-
/// barrier wall time (under parallel execution this is less than the sum of
/// its detectors' own times).
struct WaveRunStats {
  int wave = 0;
  std::vector<std::string> symbols;  ///< detectors executed (not cached)
  double millis = 0.0;
};

/// Result of one FDE run over a video.
struct FdeRunReport {
  std::vector<DetectorRunStats> detectors;  ///< in wave order
  std::vector<WaveRunStats> waves;          ///< one entry per grammar wave
  double total_millis = 0.0;
  /// Frame-feature cache traffic during THIS run (deltas over the shared
  /// cache's counters; all zero when the engine runs uncached) — how often
  /// detectors rode on artifacts another detector already computed.
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_evictions = 0;
  size_t cache_bytes = 0;  ///< held by the cache at the end of the run

  int64_t TotalAnnotations() const;
  std::string ToString() const;
};

/// The engine. Construct with a grammar, register one detector per grammar
/// symbol (black-box or white-box), then Run.
class FeatureDetectorEngine {
 public:
  explicit FeatureDetectorEngine(FeatureGrammar grammar, FdeConfig config = {});
  ~FeatureDetectorEngine();

  const FeatureGrammar& grammar() const { return grammar_; }
  const FdeConfig& config() const { return config_; }

  /// Registers a black-box detector for `symbol`. Fails if the symbol is
  /// unknown, is the start symbol, or already has a detector.
  Status RegisterDetector(const std::string& symbol, DetectorFn detector);

  /// Registers a white-box rule for `symbol` (same constraints).
  Status RegisterWhitebox(const std::string& symbol, WhiteboxRule rule);

  /// Replaces the detector for `symbol` and marks it dirty, so the next
  /// RunIncremental re-runs it and everything downstream.
  Status ReplaceDetector(const std::string& symbol, DetectorFn detector);

  /// True if every non-start symbol has a detector.
  Status CheckComplete() const;

  /// Runs all detectors wave by wave over `video`, populating the
  /// annotation blackboard afresh. No decode work on `video` is left
  /// running when Run returns, so `video` may be destroyed then, unless
  /// frame_cache() is read afterwards (it reads through `video`). A later
  /// source is told apart by VideoSource::instance_id, never by address.
  Result<FdeRunReport> Run(const media::VideoSource& video);

  /// Incremental run: reuses the previous run's annotations for symbols
  /// that are not dirty (dirty = ReplaceDetector'd since the last run, or
  /// downstream of one). Requires a previous Run on the same video.
  Result<FdeRunReport> RunIncremental(const media::VideoSource& video);

  /// Annotations of `symbol` from the last run.
  const std::vector<Annotation>& AnnotationsOf(const std::string& symbol) const;

  /// The whole blackboard from the last run.
  const std::map<std::string, std::vector<Annotation>>& blackboard() const {
    return blackboard_;
  }

  /// The shared frame-feature cache of the last/current run (null before
  /// the first Run or when cache_bytes == 0).
  vision::FrameFeatureCache* frame_cache() const { return cache_.get(); }

 private:
  Status RegisterCommon(const std::string& symbol);
  Result<std::vector<Annotation>> RunWhitebox(const WhiteboxRule& rule,
                                              const DetectionContext& ctx) const;
  /// Executes one detector (black- or white-box) for the wave scheduler.
  Result<std::vector<Annotation>> RunSymbol(const std::string& symbol,
                                            const DetectionContext& ctx);
  /// Binds cache + pools to `video` (creating or resetting as needed) and
  /// returns the source detectors should read: the decode pipeline's
  /// prefetcher when `video` is coded and the pipeline is enabled, `video`
  /// itself otherwise.
  const media::VideoSource& PrepareExecution(const media::VideoSource& video);
  /// Wave-scheduled execution shared by Run and RunIncremental: runs every
  /// symbol not in `skip` and merges results at wave barriers; symbols in
  /// `skip` are reported as cached.
  Result<FdeRunReport> RunWaves(const media::VideoSource& video,
                                const std::set<std::string>& skip);

  FeatureGrammar grammar_;
  FdeConfig config_;
  std::map<std::string, DetectorFn> detectors_;
  std::map<std::string, WhiteboxRule> whitebox_rules_;
  std::map<std::string, std::vector<Annotation>> blackboard_;
  std::vector<std::string> dirty_;
  bool has_run_ = false;

  std::unique_ptr<util::ThreadPool> pool_;
  std::unique_ptr<vision::FrameFeatureCache> cache_;
  /// VideoSource::instance_id of the source `cache_` is bound to.
  uint64_t cache_source_id_ = 0;
  /// Decode pipeline state; the prefetcher must be declared after (and so
  /// destroyed before) the decode pool its in-flight tasks run on.
  std::unique_ptr<util::ThreadPool> decode_pool_;
  std::unique_ptr<media::PrefetchingVideoSource> prefetcher_;
  /// VideoSource::instance_id of the coded source `prefetcher_` decodes.
  uint64_t prefetch_source_id_ = 0;
};

}  // namespace cobra::grammar
