/// \file workload_live.cc
/// live_grow — writes beside reads. Pre-analyzed video deltas arrive in
/// bursts on a fixed schedule and stream through the CorpusIngestPipeline
/// into one TracedSink that forwards every commit and barrier to a
/// group-commit DurableLibrarySink (with periodic Flush and CompactAsync)
/// and to a 2-shard ShardedIngestSink. Meanwhile the query stream runs
/// open-loop at a fixed rate against the sharded frontend. Every publish
/// bumps the index epoch, so the caches query_mix rides on are defeated
/// here.

#include <algorithm>
#include <memory>
#include <thread>

#include "corpus.h"
#include "engine/durable_library.h"
#include "engine/ingest/ingest.h"
#include "engine/query_language.h"
#include "engine/serving/partition.h"
#include "workload.h"

namespace perfbench {

using namespace cobra;  // NOLINT
using engine::ingest::IngestDelta;

namespace {

constexpr int kSetupRepeats = 5;
constexpr int kOpenRepeats = 7;
constexpr size_t kShards = 2;
constexpr int kSeedVideos = 160;
constexpr int kEventsPerVideo = 96;
constexpr int kShotsPerVideo = 12;
constexpr int kClusters = 256;
constexpr double kBurstPeriodS = 1.0;  ///< one burst of videos arrives per period
constexpr int kBurstVideos = 96;
constexpr int64_t kFlushEveryVideos = 128;
constexpr int kCompactEveryFlushes = 3;

/// The durable arm's set-up: the seed corpus replayed through the durable
/// mutation API, then flushed.
Result<std::unique_ptr<engine::DurableLibrary>> CreateDurable(
    const std::string& dir, const engine::serving::CorpusParts& seed) {
  COBRA_ASSIGN_OR_RETURN(auto durable,
                         engine::DurableLibrary::Create(dir, seed.store));
  for (const auto& [oid, body] : seed.interviews) {
    COBRA_RETURN_NOT_OK(durable->AddInterview(oid, body));
  }
  COBRA_RETURN_NOT_OK(durable->FinalizeText());
  for (const core::VideoDescription& desc : seed.videos) {
    COBRA_RETURN_NOT_OK(durable->AddVideoDescription(desc));
  }
  for (const auto& [oid, records] : seed.signatures) {
    COBRA_RETURN_NOT_OK(durable->AddVideoSignatures(oid, records));
  }
  COBRA_RETURN_NOT_OK(durable->Flush());
  return durable;
}

}  // namespace

int RunLiveGrow(const RunConfig& config, Report* report) {
  // Ingest runs through the warm-up and the base rung, so the query
  // latencies are latencies beside writes.
  ServePlan plan;
  plan.base_rate = 500.0;
  plan.base_seconds = std::max(config.seconds * 0.75, 8.0);
  // Inputs: the seed corpus and the live deltas (not timed, not set-up).
  const int bursts = static_cast<int>(
      (plan.warmup_seconds + plan.base_seconds) / kBurstPeriodS);
  const int live_videos = bursts * kBurstVideos;
  const webspace::SynthesizedSite site =
      MakeSite(config.seed, 48, kSeedVideos + live_videos);
  const engine::serving::CorpusParts all =
      MakeCorpus(config.seed, site, site.video_oids.size(), kEventsPerVideo,
                 kShotsPerVideo, kClusters);
  engine::serving::CorpusParts seed;
  seed.store = all.store;
  seed.interviews = all.interviews;
  seed.videos.assign(all.videos.begin(), all.videos.begin() + kSeedVideos);
  seed.signatures.assign(all.signatures.begin(),
                         all.signatures.begin() + kSeedVideos);
  std::vector<std::shared_ptr<const IngestDelta>> live;
  for (size_t v = kSeedVideos; v < all.videos.size(); ++v) {
    live.push_back(std::make_shared<const IngestDelta>(
        IngestDelta::Video(all.videos[v], all.signatures[v].second)));
  }

  // Set-up: the seeded durable library and the seeded sharded deployment.
  const std::string dir = config.work_dir + "/library";
  std::vector<double> setup_s;
  std::unique_ptr<engine::DurableLibrary> durable;
  std::unique_ptr<engine::ingest::ShardedIngestSink> sharded;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    sharded.reset();
    durable.reset();
    if (!ResetDirectory(dir)) return 1;
    const double cpu = ProcessCpuS();
    auto created = CreateDurable(dir, seed);
    engine::ingest::ShardedIngestSink::Options options;
    options.num_shards = kShards;
    options.serving.replicas = 2;  // 4 shard workers on 4 cores
    options.serving.queue_depth = 4096;
    auto sink = engine::ingest::ShardedIngestSink::Create(seed, options);
    if (!created.ok() || !sink.ok()) {
      std::fprintf(stderr, "live_grow setup: %s %s\n",
                   created.status().ToString().c_str(),
                   sink.status().ToString().c_str());
      return 1;
    }
    durable = created.TakeValue();
    sharded = sink.TakeValue();
    setup_s.push_back(ProcessCpuS() - cpu);
  }

  StreamVocabulary vocabulary;
  vocabulary.words = InterviewWords(site);
  for (const auto& [oid, records] : seed.signatures) {
    for (const vision::SignatureRecord& rec : records) {
      vocabulary.probes.emplace_back(oid, (rec.begin + rec.end) / 2);
    }
  }
  vocabulary.first_year = 1996;
  vocabulary.last_year = 2003;
  const std::vector<std::string> stream = MakeQueryStream(
      vocabulary, config.seed, StreamLength(plan), kPopularShare,
      kPopularPool);

  // ---- timed region ----
  BeginTimed(report);
  util::ThreadPool pool(config.threads);
  util::ThreadPool compact_pool(1);
  engine::ingest::DurableLibrarySink durable_sink(durable.get());
  TracedSink sink({{&durable_sink, "wal"}, {sharded.get(), "serving"}});
  std::vector<double> flush_ms;
  int64_t flushed_at = 0;
  int flushes = 0;
  // WAL telemetry restarts at every rotation; sum it across flushes.
  int64_t wal_syncs = 0, wal_records = 0;
  sink.after_barrier = [&](int64_t videos) -> Status {
    if (videos - flushed_at < kFlushEveryVideos) return Status::OK();
    flushed_at = videos;
    wal_syncs += durable->wal_sync_calls();
    wal_records += durable->wal_records_committed();
    const double t = NowS();
    {
      Span span("segment");
      COBRA_RETURN_NOT_OK(durable->Flush());
    }
    flush_ms.push_back((NowS() - t) * 1e3);
    if (++flushes % kCompactEveryFlushes == 0) {
      Span span("segment");
      COBRA_RETURN_NOT_OK(durable->WaitForCompaction());
      COBRA_RETURN_NOT_OK(durable->CompactAsync(&compact_pool));
    }
    return Status::OK();
  };

  // The writer: one burst per period, each submitted flat out and drained.
  // Busy time (burst submit -> drained) is what ingest throughput divides by.
  std::vector<double> submitted_at(live.size()), submit_blocked_ms,
      burst_rate;
  size_t ingested = 0;
  Status ingest_status;
  std::thread writer([&] {
    engine::ingest::CorpusIngestPipeline::Options options;
    options.pool = &pool;
    engine::ingest::CorpusIngestPipeline pipeline(&sink, options);
    const double t0 = NowS();
    for (int b = 0; b < bursts && ingest_status.ok(); ++b) {
      std::this_thread::sleep_until(
          std::chrono::steady_clock::now() +
          std::chrono::duration<double>(t0 + b * kBurstPeriodS - NowS()));
      const double burst_start = NowS();
      for (int k = 0; k < kBurstVideos && ingest_status.ok(); ++k) {
        const size_t v = ingested++;
        submitted_at[v] = NowS();
        std::shared_ptr<const IngestDelta> delta = live[v];
        Span span("ingest");
        ingest_status = pipeline.SubmitVideo(
            [delta]() -> Result<IngestDelta> { return *delta; });
        submit_blocked_ms.push_back((NowS() - submitted_at[v]) * 1e3);
      }
      Span span("ingest");
      const Status finished = pipeline.Finish();
      if (ingest_status.ok()) ingest_status = finished;
      burst_rate.push_back(kBurstVideos / (NowS() - burst_start));
    }
  });

  const std::string serve =
      ServeOpenLoop(sharded->frontend(), stream, plan, report,
                    [&writer] { writer.join(); });
  Status status = ingest_status;
  if (status.ok()) status = durable->WaitForCompaction();
  report->attempted += static_cast<int64_t>(ingested);
  EndTimed(report);
  // ---- end of timed region ----
  if (!status.ok()) {
    std::fprintf(stderr, "live_grow ingest: %s\n", status.ToString().c_str());
    report->failed += static_cast<int64_t>(ingested);
    return 1;
  }
  wal_syncs += durable->wal_sync_calls();
  wal_records += durable->wal_records_committed();

  // Store size after a final flush and compaction.
  const double t = NowS();
  status = durable->Flush();
  if (status.ok()) status = durable->Compact();
  const double compact_ms = (NowS() - t) * 1e3;
  const int64_t store_bytes = DirectoryBytes(dir);
  if (!status.ok()) {
    std::fprintf(stderr, "live_grow compact: %s\n", status.ToString().c_str());
    return 1;
  }

  // Cold open of the grown store.
  std::vector<double> open_ms;
  for (int rep = 0; rep < kOpenRepeats && status.ok(); ++rep) {
    durable.reset();
    const double cpu = ProcessCpuS();
    auto opened = [&] {
      Span span("segment");
      return engine::DurableLibrary::Open(dir);
    }();
    open_ms.push_back((ProcessCpuS() - cpu) * 1e3);
    if (!opened.ok()) {
      std::fprintf(stderr, "live_grow open: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    durable = opened.TakeValue();
  }

  // Gates, once ingest has quiesced: the reopened durable library and the
  // frontend match the in-memory oracle grown from the same deltas, and
  // each served shard matches its own oracle shard grown by the router.
  engine::serving::CorpusParts grown = seed;
  for (size_t v = 0; v < ingested; ++v) {
    grown.videos.push_back(live[v]->video);
    grown.signatures.emplace_back(live[v]->video.video_id(),
                                  live[v]->signatures);
  }
  auto oracle = engine::serving::BuildLibrary(grown).TakeValue();
  auto oracle_shards =
      engine::serving::BuildShardLibraries(seed, kShards).TakeValue();
  bool shards_fed = true;
  for (size_t v = 0; v < ingested; ++v) {
    const size_t shard = sharded->router().ShardOf(live[v]->video.video_id());
    engine::ingest::LibrarySink shard_sink(oracle_shards[shard].get());
    shards_fed = shards_fed && shard_sink.Commit(*live[v]).ok();
  }
  const std::vector<engine::CombinedQuery> sweep =
      SweepQueries(vocabulary.probes);
  bool durable_ok = true, shards_ok = shards_fed, frontend_ok = true;
  bool flipped = !config.flip_oracle;
  for (const engine::CombinedQuery& query : sweep) {
    auto expected = oracle->Search(query);
    if (!flipped && expected.ok() && !expected->empty()) {
      (*expected)[0].video_oid += 1;
      flipped = true;
    }
    durable_ok = durable_ok &&
                 SameAnswer(expected, durable->library().Search(query), 0);
    frontend_ok = frontend_ok &&
                  SameAnswer(expected, sharded->frontend().Search(query, 0), 0);
    for (size_t s = 0; s < kShards; ++s) {
      shards_ok = shards_ok &&
                  SameAnswer(oracle_shards[s]->Search(query),
                             sharded->shard_library(s).Search(query), 0);
    }
  }
  for (size_t i = 0; i < 2000; i += 7) {
    auto query = engine::ParseQuery(stream[i]);
    frontend_ok = frontend_ok && query.ok() &&
                  SameAnswer(oracle->Search(*query),
                             sharded->frontend().Search(*query, 10), 10);
  }
  report->Gate("live_grow: reopened durable library == grown oracle",
               durable_ok && flipped);
  report->Gate("live_grow: each served shard == its grown oracle shard",
               shards_ok);
  report->Gate("live_grow: frontend == grown oracle (sweep + sampled top-10)",
               frontend_ok);

  std::vector<double> freshness_ms;
  for (size_t v = 0; v < ingested && v < sink.visible_at.size(); ++v) {
    freshness_ms.push_back((sink.visible_at[v] - submitted_at[v]) * 1e3);
  }
  JsonObject& f = report->fields;
  f.Int("seed_videos", kSeedVideos)
      .Int("videos", static_cast<int64_t>(ingested))
      .Int("shards", kShards)
      .Num("burst_period_s", kBurstPeriodS)
      .Int("burst_videos", kBurstVideos)
      .Nums("setup_s", setup_s)
      .Nums("burst_videos_per_s", burst_rate)
      .Nums("cold_open_ms", open_ms)
      .Int("store_bytes", store_bytes)
      .Int("store_videos", static_cast<int64_t>(kSeedVideos + ingested))
      .Raw("serve", serve)
      .Nums("freshness_ms", freshness_ms)
      .Nums("submit_blocked_ms", submit_blocked_ms)
      .Int("wal_sync_calls", wal_syncs)
      .Int("wal_records", wal_records)
      .Nums("barrier_ms", sink.barrier_ms[0])
      .Nums("publish_ms", sink.barrier_ms[1])
      .Nums("flush_ms", flush_ms)
      .Nums("compact_ms", {compact_ms})
      .Int("compactions_async", flushes / kCompactEveryFlushes)
      .Int("publishes", sharded->publishes());
  if (config.trace) {
    std::vector<const engine::DigitalLibrary*> views;
    for (size_t s = 0; s < kShards; ++s) views.push_back(&sharded->shard_library(s));
    std::vector<std::string> sample(stream.begin(), stream.begin() + 400);
    f.Raw("replay", QueryReplay(views, sample));
  }
  return 0;
}

}  // namespace perfbench
