#include "grammar/fde.h"

#include <algorithm>

#include "media/block_codec.h"
#include "media/prefetch.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "vision/frame_feature_cache.h"

namespace cobra::grammar {

const std::vector<Annotation>& DetectionContext::Of(
    const std::string& symbol) const {
  static const std::vector<Annotation> kEmpty;
  auto it = blackboard_->find(symbol);
  return it == blackboard_->end() ? kEmpty : it->second;
}

int64_t FdeRunReport::TotalAnnotations() const {
  int64_t n = 0;
  for (const DetectorRunStats& d : detectors) n += d.annotations_out;
  return n;
}

std::string FdeRunReport::ToString() const {
  std::string out = "FDE run:\n";
  for (const DetectorRunStats& d : detectors) {
    out += StringFormat("  %-16s %6lld annotations %8.2f ms%s\n",
                        d.symbol.c_str(),
                        static_cast<long long>(d.annotations_out), d.millis,
                        d.from_cache ? " (cached)" : "");
  }
  for (const WaveRunStats& w : waves) {
    out += StringFormat("  wave %d [%s] %8.2f ms\n", w.wave,
                        JoinStrings(w.symbols, " ").c_str(), w.millis);
  }
  out += StringFormat("  total %.2f ms, %lld annotations\n", total_millis,
                      static_cast<long long>(TotalAnnotations()));
  if (cache_hits + cache_misses > 0) {
    out += StringFormat(
        "  frame cache: %lld hits / %lld misses (%.1f%% hit rate), "
        "%lld evictions, %zu bytes held\n",
        static_cast<long long>(cache_hits),
        static_cast<long long>(cache_misses),
        100.0 * static_cast<double>(cache_hits) /
            static_cast<double>(cache_hits + cache_misses),
        static_cast<long long>(cache_evictions), cache_bytes);
  }
  return out;
}

FeatureDetectorEngine::FeatureDetectorEngine(FeatureGrammar grammar,
                                             FdeConfig config)
    : grammar_(std::move(grammar)), config_(config) {
  if (config_.num_threads > 1) {
    pool_ = std::make_unique<util::ThreadPool>(config_.num_threads);
  }
}

FeatureDetectorEngine::~FeatureDetectorEngine() = default;

Status FeatureDetectorEngine::RegisterCommon(const std::string& symbol) {
  if (!grammar_.HasSymbol(symbol)) {
    return Status::NotFound(
        StringFormat("symbol '%s' not in grammar", symbol.c_str()));
  }
  if (symbol == grammar_.start_symbol()) {
    return Status::InvalidArgument(
        StringFormat("start symbol '%s' cannot have a detector", symbol.c_str()));
  }
  if (detectors_.count(symbol) || whitebox_rules_.count(symbol)) {
    return Status::AlreadyExists(
        StringFormat("symbol '%s' already has a detector", symbol.c_str()));
  }
  return Status::OK();
}

Status FeatureDetectorEngine::RegisterDetector(const std::string& symbol,
                                               DetectorFn detector) {
  COBRA_RETURN_NOT_OK(RegisterCommon(symbol));
  detectors_[symbol] = std::move(detector);
  return Status::OK();
}

Status FeatureDetectorEngine::RegisterWhitebox(const std::string& symbol,
                                               WhiteboxRule rule) {
  COBRA_RETURN_NOT_OK(RegisterCommon(symbol));
  if (!grammar_.HasSymbol(rule.source)) {
    return Status::NotFound(
        StringFormat("white-box source '%s' not in grammar", rule.source.c_str()));
  }
  // The source must be a declared dependency, otherwise the execution order
  // gives no guarantee the source has run.
  const auto& deps = grammar_.DependenciesOf(symbol);
  if (std::find(deps.begin(), deps.end(), rule.source) == deps.end()) {
    return Status::InvalidArgument(StringFormat(
        "white-box source '%s' is not a grammar dependency of '%s'",
        rule.source.c_str(), symbol.c_str()));
  }
  whitebox_rules_[symbol] = std::move(rule);
  return Status::OK();
}

Status FeatureDetectorEngine::ReplaceDetector(const std::string& symbol,
                                              DetectorFn detector) {
  if (!grammar_.HasSymbol(symbol) || symbol == grammar_.start_symbol()) {
    return Status::NotFound(
        StringFormat("symbol '%s' not replaceable", symbol.c_str()));
  }
  whitebox_rules_.erase(symbol);
  detectors_[symbol] = std::move(detector);
  dirty_.push_back(symbol);
  return Status::OK();
}

Status FeatureDetectorEngine::CheckComplete() const {
  for (const std::string& symbol : grammar_.ExecutionOrder()) {
    if (!detectors_.count(symbol) && !whitebox_rules_.count(symbol)) {
      return Status::FailedPrecondition(
          StringFormat("no detector registered for symbol '%s'", symbol.c_str()));
    }
  }
  return Status::OK();
}

Result<std::vector<Annotation>> FeatureDetectorEngine::RunWhitebox(
    const WhiteboxRule& rule, const DetectionContext& ctx) const {
  std::vector<Annotation> out;
  for (const Annotation& src : ctx.Of(rule.source)) {
    double value;
    if (!src.GetDouble(rule.attribute, &value)) continue;
    bool pass = rule.op == WhiteboxRule::Op::kLess ? value < rule.threshold
                                                   : value > rule.threshold;
    if (pass && src.range.Length() >= rule.min_length) {
      Annotation a = src;
      a.symbol.clear();  // filled by the caller with the rule's own symbol
      out.push_back(std::move(a));
    }
  }
  return out;
}

Result<std::vector<Annotation>> FeatureDetectorEngine::RunSymbol(
    const std::string& symbol, const DetectionContext& ctx) {
  // find(), not operator[]: RunSymbol executes concurrently within a wave
  // and must not mutate the registries.
  auto detector = detectors_.find(symbol);
  if (detector != detectors_.end()) return detector->second(ctx);
  return RunWhitebox(whitebox_rules_.find(symbol)->second, ctx);
}

const media::VideoSource& FeatureDetectorEngine::PrepareExecution(
    const media::VideoSource& video) {
  // Decode pipeline: a coded source is wrapped in a prefetching decorator
  // (backed by a dedicated decode pool — see prefetch.h for why it must not
  // share the wave pool), so detectors and the frame cache read from the
  // GOP buffer. For the same video it persists across incremental runs;
  // "same" is the source's instance id, since a new source can reuse a
  // freed one's address.
  const media::VideoSource* effective = &video;
  const auto* coded = dynamic_cast<const media::CodedVideoSource*>(&video);
  if (coded != nullptr && config_.decode_threads >= 0) {
    if (prefetcher_ == nullptr || prefetch_source_id_ != coded->instance_id()) {
      const int threads = config_.decode_threads > 0 ? config_.decode_threads
                                                     : config_.num_threads;
      prefetcher_.reset();  // joins in-flight tasks before the pool goes
      decode_pool_ = std::make_unique<util::ThreadPool>(threads);
      media::PrefetchConfig prefetch_config;
      prefetch_config.prefetch_frames = config_.prefetch_frames;
      prefetcher_ = std::make_unique<media::PrefetchingVideoSource>(
          *coded, prefetch_config, decode_pool_.get());
      prefetch_source_id_ = coded->instance_id();
    }
    effective = prefetcher_.get();
  } else {
    prefetcher_.reset();
    decode_pool_.reset();
  }

  if (config_.cache_bytes == 0) {
    cache_.reset();
    return *effective;
  }
  // The cache is keyed by frame index, so it must be rebound whenever the
  // video changes; for the same video it persists across incremental runs.
  if (cache_ == nullptr || cache_source_id_ != effective->instance_id()) {
    vision::FrameFeatureCacheConfig cache_config;
    cache_config.cache_bytes = config_.cache_bytes;
    cache_ =
        std::make_unique<vision::FrameFeatureCache>(*effective, cache_config);
    cache_source_id_ = effective->instance_id();
  }
  return *effective;
}

Result<FdeRunReport> FeatureDetectorEngine::RunWaves(
    const media::VideoSource& video, const std::set<std::string>& skip) {
  const media::VideoSource& source = PrepareExecution(video);
  // Read-ahead decodes must not outlive the run: the caller may destroy
  // the coded source as soon as Run returns.
  struct QuiesceOnExit {
    const media::PrefetchingVideoSource* prefetcher;
    ~QuiesceOnExit() {
      if (prefetcher != nullptr) prefetcher->WaitIdle();
    }
  } quiesce{prefetcher_.get()};
  DetectionContext ctx(source, &blackboard_, cache_.get(), pool_.get());

  FdeRunReport report;
  const vision::FrameFeatureCache::Stats cache_before =
      cache_ != nullptr ? cache_->stats() : vision::FrameFeatureCache::Stats{};
  auto run_start = std::chrono::steady_clock::now();
  const auto& waves = grammar_.ExecutionWaves();
  for (size_t wave_idx = 0; wave_idx < waves.size(); ++wave_idx) {
    WaveRunStats wave_stats;
    wave_stats.wave = static_cast<int>(wave_idx);

    // Partition the wave into cached (skipped) and runnable symbols.
    std::vector<std::string> runnable;
    for (const std::string& symbol : waves[wave_idx]) {
      if (skip.count(symbol)) {
        DetectorRunStats stats;
        stats.symbol = symbol;
        stats.from_cache = true;
        stats.wave = static_cast<int>(wave_idx);
        stats.annotations_out =
            static_cast<int64_t>(blackboard_[symbol].size());
        report.detectors.push_back(std::move(stats));
      } else {
        runnable.push_back(symbol);
      }
    }

    // Execute the wave. Results land in per-symbol slots; the blackboard is
    // untouched (read-only context) until the barrier below, which merges
    // slots in wave order — so the outcome is independent of scheduling.
    std::vector<Result<std::vector<Annotation>>> produced(
        runnable.size(), std::vector<Annotation>{});
    std::vector<double> millis(runnable.size(), 0.0);
    auto wave_start = std::chrono::steady_clock::now();
    {
      util::TaskGroup group(pool_.get());
      for (size_t i = 0; i < runnable.size(); ++i) {
        group.Run([this, &ctx, &runnable, &produced, &millis, i] {
          auto t0 = std::chrono::steady_clock::now();
          produced[i] = RunSymbol(runnable[i], ctx);
          auto t1 = std::chrono::steady_clock::now();
          millis[i] =
              std::chrono::duration<double, std::milli>(t1 - t0).count();
        });
      }
      group.Wait();
    }
    auto wave_end = std::chrono::steady_clock::now();
    wave_stats.symbols = runnable;
    wave_stats.millis =
        std::chrono::duration<double, std::milli>(wave_end - wave_start)
            .count();

    // Barrier: surface the first failure (in wave order), then merge.
    for (size_t i = 0; i < runnable.size(); ++i) {
      if (!produced[i].ok()) {
        return Status::DetectorError(StringFormat(
            "detector '%s' failed: %s", runnable[i].c_str(),
            produced[i].status().ToString().c_str()));
      }
    }
    for (size_t i = 0; i < runnable.size(); ++i) {
      std::vector<Annotation> annotations = std::move(produced[i]).TakeValue();
      for (Annotation& a : annotations) a.symbol = runnable[i];
      DetectorRunStats stats;
      stats.symbol = runnable[i];
      stats.annotations_out = static_cast<int64_t>(annotations.size());
      stats.millis = millis[i];
      stats.wave = static_cast<int>(wave_idx);
      report.detectors.push_back(std::move(stats));
      blackboard_[runnable[i]] = std::move(annotations);
    }
    report.waves.push_back(std::move(wave_stats));
  }
  auto run_end = std::chrono::steady_clock::now();
  report.total_millis =
      std::chrono::duration<double, std::milli>(run_end - run_start).count();
  if (cache_ != nullptr) {
    const vision::FrameFeatureCache::Stats after = cache_->stats();
    report.cache_hits = after.hits - cache_before.hits;
    report.cache_misses = after.misses - cache_before.misses;
    report.cache_evictions = after.evictions - cache_before.evictions;
    report.cache_bytes = after.bytes;
  }
  return report;
}

Result<FdeRunReport> FeatureDetectorEngine::Run(const media::VideoSource& video) {
  COBRA_RETURN_NOT_OK(CheckComplete());
  blackboard_.clear();
  dirty_.clear();
  has_run_ = false;

  COBRA_ASSIGN_OR_RETURN(FdeRunReport report, RunWaves(video, {}));
  has_run_ = true;
  return report;
}

Result<FdeRunReport> FeatureDetectorEngine::RunIncremental(
    const media::VideoSource& video) {
  if (!has_run_) {
    return Status::FailedPrecondition(
        "RunIncremental requires a completed Run first");
  }
  COBRA_RETURN_NOT_OK(CheckComplete());

  // Dirty set: explicitly replaced detectors plus everything downstream.
  std::set<std::string> dirty(dirty_.begin(), dirty_.end());
  for (const std::string& symbol : dirty_) {
    for (const std::string& down : grammar_.Downstream(symbol)) {
      dirty.insert(down);
    }
  }
  std::set<std::string> clean;
  for (const std::string& symbol : grammar_.ExecutionOrder()) {
    if (!dirty.count(symbol)) clean.insert(symbol);
  }

  COBRA_ASSIGN_OR_RETURN(FdeRunReport report, RunWaves(video, clean));
  dirty_.clear();
  return report;
}

const std::vector<Annotation>& FeatureDetectorEngine::AnnotationsOf(
    const std::string& symbol) const {
  static const std::vector<Annotation> kEmpty;
  auto it = blackboard_.find(symbol);
  return it == blackboard_.end() ? kEmpty : it->second;
}

}  // namespace cobra::grammar
