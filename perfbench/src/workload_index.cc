/// \file workload_index.cc
/// index_backlog — the indexing job. A backlog of distinct coded tennis
/// broadcasts (generated before the run, outside the timed region) is
/// analyzed through the CorpusIngestPipeline: deserialize, the tennis FDE
/// over a CodedVideoSource (so the decode/prefetch pipeline runs), shot
/// signatures; results commit into a group-commit DurableLibrary, then
/// Flush and a cold Open.

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>

#include "core/tennis_fde.h"
#include "corpus.h"
#include "engine/durable_library.h"
#include "engine/ingest/ingest.h"
#include "vision/signature.h"
#include "workload.h"

namespace perfbench {

using namespace cobra;  // NOLINT
using engine::ingest::IngestDelta;

namespace {

constexpr int kSetupRepeats = 15;
constexpr int kOpenRepeats = 7;
constexpr size_t kWarmupVideos = 8;
constexpr size_t kRoundVideos = 16;

/// One TennisVideoIndexer per concurrent analysis (an indexer indexes one
/// video at a time), each with the source it indexed last: the FDE keeps
/// its decode pipeline and frame cache bound to that source (by address)
/// until the next Index call rebinds them, so the source must outlive that
/// call and the next source must be a different object.
class IndexerPool {
 public:
  struct Slot {
    std::unique_ptr<media::CodedVideoSource> source;
    std::unique_ptr<core::TennisVideoIndexer> indexer;  // destroyed first
  };

  Status Init(int count) {
    core::TennisIndexerConfig config;
    config.fde.num_threads = 1;
    config.fde.decode_threads = 1;
    for (int i = 0; i < count; ++i) {
      auto slot = std::make_unique<Slot>();
      COBRA_ASSIGN_OR_RETURN(slot->indexer,
                             core::TennisVideoIndexer::Create(config));
      free_.push_back(std::move(slot));
    }
    return Status::OK();
  }
  /// Blocks while every indexer is in use: the pipeline may run more
  /// analyses at once than the pool has workers (a waiting thread helps).
  std::unique_ptr<Slot> Take() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !free_.empty(); });
    auto slot = std::move(free_.back());
    free_.pop_back();
    return slot;
  }
  void Give(std::unique_ptr<Slot> slot) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      free_.push_back(std::move(slot));
    }
    cv_.notify_one();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<Slot>> free_;
};

/// Per-video analysis record, written by the worker that analyzed it.
struct VideoAnalysis {
  double deserialize_ms = 0.0;
  double segment_ms = 0.0, player_ms = 0.0, features_ms = 0.0,
         events_ms = 0.0, wave_ms = 0.0;
  int64_t cache_hits = 0, cache_lookups = 0;
  double signature_ms = 0.0;
  int64_t signature_hits = 0, signature_lookups = 0;
  std::unique_ptr<IngestDelta> delta;  ///< copy for the oracle
};

Result<IngestDelta> Analyze(const CodedInput& input, IndexerPool* indexers,
                            VideoAnalysis* out) {
  double t = NowS();
  Result<media::EncodedVideo> encoded = [&] {
    Span span("media");
    return media::EncodedVideo::Deserialize(input.bytes);
  }();
  out->deserialize_ms = (NowS() - t) * 1e3;
  COBRA_RETURN_NOT_OK(encoded.status());
  auto source = std::make_unique<media::CodedVideoSource>(encoded.TakeValue());

  auto slot = indexers->Take();
  core::TennisVideoIndexer* indexer = slot->indexer.get();
  Result<core::VideoDescription> desc = [&] {
    Span span("fde");
    return indexer->Index(*source, input.oid, "backlog broadcast");
  }();
  if (desc.ok() && indexer->last_report().has_value()) {
    const grammar::FdeRunReport& report = *indexer->last_report();
    for (const grammar::DetectorRunStats& d : report.detectors) {
      if (d.symbol == "segment") out->segment_ms += d.millis;
      if (d.symbol == "player") out->player_ms += d.millis;
      if (d.symbol == "features") out->features_ms += d.millis;
      if (d.symbol == "serve" || d.symbol == "rally" ||
          d.symbol == "net_play" || d.symbol == "baseline_play") {
        out->events_ms += d.millis;
      }
    }
    for (const grammar::WaveRunStats& w : report.waves) out->wave_ms += w.millis;
    out->cache_hits = report.cache_hits;
    out->cache_lookups = report.cache_hits + report.cache_misses;
  }
  Result<std::vector<vision::SignatureRecord>> signatures =
      Status::Internal("no frame cache");
  if (desc.ok() && indexer->fde().frame_cache() != nullptr) {
    std::vector<FrameInterval> shots;
    for (const grammar::Annotation& a :
         desc->Layer(core::CobraLayer::kFeature)) {
      shots.push_back(a.range);
    }
    vision::SignatureExtractionStats stats;
    t = NowS();
    {
      Span span("vision");
      signatures = vision::ExtractShotSignatures(*indexer->fde().frame_cache(),
                                                 input.oid, shots, &stats);
    }
    out->signature_ms = (NowS() - t) * 1e3;
    out->signature_hits = stats.cache_hits;
    out->signature_lookups = stats.cache_hits + stats.cache_misses;
  }
  slot->source = std::move(source);
  indexers->Give(std::move(slot));
  COBRA_RETURN_NOT_OK(desc.status());
  COBRA_RETURN_NOT_OK(signatures.status());
  IngestDelta delta =
      IngestDelta::Video(desc.TakeValue(), signatures.TakeValue());
  out->delta = std::make_unique<IngestDelta>(delta);
  return delta;
}

}  // namespace

int RunIndexBacklog(const RunConfig& config, Report* report) {
  std::vector<CodedInput> inputs;
  if (config.inputs.empty() || !ReadBacklog(config.inputs, &inputs) ||
      inputs.empty()) {
    std::fprintf(stderr, "index_backlog: unreadable backlog '%s'\n",
                 config.inputs.c_str());
    return 1;
  }
  const webspace::SynthesizedSite site =
      MakeSite(config.seed, 32, static_cast<int>(inputs.size()));
  int64_t frames = 0;
  for (const CodedInput& input : inputs) frames += input.frames;

  // Set-up: the analysis pool, one indexer per worker and an empty durable
  // library. Built kSetupRepeats times before the timed region (the last
  // one is used). Set-ups after the timed region cost about 30% more CPU
  // time in the process that has just indexed, so none are taken there.
  std::vector<double> setup_s;
  const std::string dir = config.work_dir + "/library";
  auto set_up = [&](const std::string& at,
                    std::unique_ptr<util::ThreadPool>* pool,
                    std::unique_ptr<IndexerPool>* indexers,
                    std::unique_ptr<engine::DurableLibrary>* durable) {
    durable->reset();
    pool->reset();
    *indexers = std::make_unique<IndexerPool>();
    if (!ResetDirectory(at)) return false;
    const double cpu = ProcessCpuS();
    *pool = std::make_unique<util::ThreadPool>(config.threads);
    Status status = (*indexers)->Init(config.threads);
    auto created = engine::DurableLibrary::Create(at, site.store);
    if (!status.ok() || !created.ok()) {
      std::fprintf(stderr, "index_backlog setup: %s %s\n",
                   status.ToString().c_str(),
                   created.status().ToString().c_str());
      return false;
    }
    *durable = created.TakeValue();
    setup_s.push_back(ProcessCpuS() - cpu);
    return true;
  };
  std::unique_ptr<util::ThreadPool> pool;
  std::unique_ptr<IndexerPool> indexers;
  std::unique_ptr<engine::DurableLibrary> durable;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (!set_up(dir, &pool, &indexers, &durable)) return 1;
  }

  // ---- timed region ----
  // The backlog is indexed in rounds of distinct videos, each drained and
  // flushed (first submit -> Finish + Flush). A short first round carries
  // the interviews and warms the indexers; the equal rounds after it are
  // measured and the median round's throughput is reported.
  BeginTimed(report);
  engine::ingest::DurableLibrarySink durable_sink(durable.get());
  TracedSink sink({{&durable_sink, "wal"}});
  std::vector<VideoAnalysis> analyses(inputs.size());
  std::vector<double> submitted_at(inputs.size());
  std::vector<double> submit_blocked_ms, round_s, round_cpu_s, round_frames,
      round_videos, flush_ms;
  int64_t wal_syncs = 0, wal_records = 0;
  Status status;
  {
    engine::ingest::CorpusIngestPipeline::Options options;
    options.pool = pool.get();
    engine::ingest::CorpusIngestPipeline pipeline(&sink, options);
    size_t first = 0;
    for (size_t round = 0; first < inputs.size() && status.ok(); ++round) {
      const double round_start = NowS();
      const double round_cpu = ProcessCpuS();
      const size_t last = std::min(
          inputs.size(), first + (round == 0 ? kWarmupVideos : kRoundVideos));
      if (round == 0) {
        // The site's interviews come first, so text conditions resolve.
        for (const auto& [oid, body] : site.interview_texts) {
          if (status.ok()) status = pipeline.SubmitInterview(oid, body);
        }
        if (status.ok()) status = pipeline.SubmitFinalizeText();
      }
      double frames_in_round = 0.0;
      for (size_t v = first; v < last && status.ok(); ++v) {
        frames_in_round += static_cast<double>(inputs[v].frames);
        submitted_at[v] = NowS();
        Span span("ingest");
        status = pipeline.SubmitVideo([&inputs, &indexers, &analyses, v] {
          return Analyze(inputs[v], indexers.get(), &analyses[v]);
        });
        submit_blocked_ms.push_back((NowS() - submitted_at[v]) * 1e3);
      }
      {
        Span span("ingest");
        const Status finished = pipeline.Finish();
        if (status.ok()) status = finished;
      }
      // WAL telemetry restarts at every rotation (Flush).
      wal_syncs += durable->wal_sync_calls();
      wal_records += durable->wal_records_committed();
      const double t = NowS();
      if (status.ok()) {
        Span span("segment");
        status = durable->Flush();
      }
      flush_ms.push_back((NowS() - t) * 1e3);
      if (round > 0) {
        round_s.push_back(NowS() - round_start);
        round_cpu_s.push_back(ProcessCpuS() - round_cpu);
        round_frames.push_back(frames_in_round);
        round_videos.push_back(static_cast<double>(last - first));
      }
      first = last;
    }
  }
  report->attempted += static_cast<int64_t>(inputs.size());
  if (!status.ok()) {
    std::fprintf(stderr, "index_backlog ingest: %s\n",
                 status.ToString().c_str());
    report->failed += static_cast<int64_t>(inputs.size());
    return 1;
  }

  // Cold open of the store (full verify), repeated; the last one is
  // checked against the oracle.
  std::vector<double> open_ms;
  for (int rep = 0; rep < kOpenRepeats; ++rep) {
    durable.reset();
    const double cpu = ProcessCpuS();
    auto opened = [&] {
      Span span("segment");
      return engine::DurableLibrary::Open(dir);
    }();
    open_ms.push_back((ProcessCpuS() - cpu) * 1e3);
    if (!opened.ok()) {
      std::fprintf(stderr, "index_backlog open: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    durable = opened.TakeValue();
  }
  const engine::DigitalLibrary& library = durable->library();

  EndTimed(report);
  // ---- end of timed region ----

  // Gate: the reopened durable library answers the sweep bit-identically
  // to an in-memory library fed the same deltas through a LibrarySink.
  auto oracle = engine::DigitalLibrary::Create(site.store).TakeValue();
  engine::ingest::LibrarySink oracle_sink(oracle.get());
  bool fed = true;
  for (const auto& [oid, body] : site.interview_texts) {
    fed = fed && oracle_sink.Commit(IngestDelta::Interview(oid, body)).ok();
  }
  fed = fed && oracle_sink.Commit(IngestDelta::FinalizeText()).ok();
  for (const VideoAnalysis& analysis : analyses) {
    fed = fed && analysis.delta && oracle_sink.Commit(*analysis.delta).ok();
  }
  report->Gate("index_backlog: every delta replays into the oracle", fed);
  bool sweep_ok = true;
  bool flipped = !config.flip_oracle;
  for (const engine::CombinedQuery& query :
       SweepQueries(LibraryProbes(library))) {
    auto expected = oracle->Search(query);
    if (!flipped && expected.ok() && !expected->empty()) {
      (*expected)[0].video_oid += 1;
      flipped = true;
    }
    sweep_ok = sweep_ok && SameAnswer(expected, library.Search(query), 0);
  }
  report->Gate("index_backlog: reopened library == in-memory oracle (sweep)",
               sweep_ok && flipped);
  std::vector<double> deserialize_ms, segment_ms, player_ms, features_ms,
      events_ms, wave_ms, signature_ms, freshness_ms;
  int64_t cache_hits = 0, cache_lookups = 0, sig_hits = 0, sig_lookups = 0;
  for (size_t v = 0; v < analyses.size(); ++v) {
    const VideoAnalysis& a = analyses[v];
    deserialize_ms.push_back(a.deserialize_ms);
    segment_ms.push_back(a.segment_ms);
    player_ms.push_back(a.player_ms);
    features_ms.push_back(a.features_ms);
    events_ms.push_back(a.events_ms);
    wave_ms.push_back(a.wave_ms);
    signature_ms.push_back(a.signature_ms);
    cache_hits += a.cache_hits;
    cache_lookups += a.cache_lookups;
    sig_hits += a.signature_hits;
    sig_lookups += a.signature_lookups;
    if (v >= kWarmupVideos && v < sink.visible_at.size()) {
      freshness_ms.push_back((sink.visible_at[v] - submitted_at[v]) * 1e3);
    }
  }

  JsonObject& f = report->fields;
  f.Int("videos", static_cast<int64_t>(inputs.size()))
      .Int("frames", frames)
      .Nums("setup_s", setup_s)
      .Nums("round_s", round_s)
      .Nums("round_cpu_s", round_cpu_s)
      .Nums("round_frames", round_frames)
      .Nums("round_videos", round_videos)
      .Nums("cold_open_ms", open_ms)
      .Int("store_bytes", DirectoryBytes(dir))
      .Nums("freshness_ms", freshness_ms)
      .Nums("deserialize_ms", deserialize_ms)
      .Nums("fde_segment_ms", segment_ms)
      .Nums("fde_player_ms", player_ms)
      .Nums("fde_features_ms", features_ms)
      .Nums("fde_events_ms", events_ms)
      .Nums("fde_wave_ms", wave_ms)
      .Int("fde_cache_hits", cache_hits)
      .Int("fde_cache_lookups", cache_lookups)
      .Nums("signature_ms", signature_ms)
      .Int("signature_cache_hits", sig_hits)
      .Int("signature_cache_lookups", sig_lookups)
      .Nums("submit_blocked_ms", submit_blocked_ms)
      .Int("wal_sync_calls", wal_syncs)
      .Int("wal_records", wal_records)
      .Nums("barrier_ms", sink.barrier_ms[0])
      .Nums("flush_ms", flush_ms);

  if (config.trace) {
    // Decode cost per frame on the same inputs, outside the timed region.
    std::vector<double> decode_us;
    for (size_t v = 0; v < inputs.size() && v < 6; ++v) {
      auto encoded = media::EncodedVideo::Deserialize(inputs[v].bytes);
      if (!encoded.ok()) continue;
      const media::CodedVideoSource source(encoded.TakeValue());
      const double t = NowS();
      auto decoded = [&] {
        Span span("media");
        return source.DecodeAll(nullptr);
      }();
      if (decoded.ok()) {
        decode_us.push_back((NowS() - t) * 1e6 /
                            static_cast<double>(source.num_frames()));
      }
    }
    f.Nums("decode_us_per_frame", decode_us);
    // Query-layer counters over the freshly indexed library.
    StreamVocabulary vocabulary;
    vocabulary.words = InterviewWords(site);
    vocabulary.probes = LibraryProbes(library);
    vocabulary.first_year = 1996;
    vocabulary.last_year = 2003;
    f.Raw("replay",
          QueryReplay({&library},
                      MakeQueryStream(vocabulary, config.seed, 400,
                                      kPopularShare, kPopularPool)));
  }
  return 0;
}

}  // namespace perfbench
