/// \file workload_query.cc
/// query_mix and query_unique — the search job. A synthetic corpus (dense
/// event layers, interviews, signature records with planted near-duplicate
/// clusters) is built into a 2-shard durable deployment with
/// BuildDurableShards, cold opened from its segments, and served a stream
/// of query-language strings by closed-loop clients at saturation. No
/// pixel work happens anywhere in these workloads. query_mix
/// draws a popular share of its stream from a small pool (see
/// MakeQueryStream); query_unique serves the same kind of event queries
/// with no pool, so every string is distinct and no cache can answer it.

#include <algorithm>
#include <memory>

#include "corpus.h"
#include "engine/durable_library.h"
#include "engine/query_language.h"
#include "engine/serving/partition.h"
#include "workload.h"

namespace perfbench {

using namespace cobra;  // NOLINT

namespace {

constexpr int kSetupRepeats = 5;
constexpr int kOpenRepeats = 12;  ///< extra cold opens after the set-ups
constexpr size_t kShards = 2;
constexpr int kReplicas = 2;  ///< per shard: 4 shard workers on 4 cores
// Deep enough that no query is shed.
constexpr size_t kQueueDepth = 4096;
constexpr int kVideos = 240;
constexpr int kEventsPerVideo = 384;
constexpr int kShotsPerVideo = 24;
// About eight near-duplicate shots per planted cluster.
constexpr int kClusters = kVideos * kShotsPerVideo / 8;
// Closed-loop clients: enough to keep the 4 shard workers busy.
constexpr int kClients = 4;
// Query strings generated per second of the run: about twice the closed
// loop's throughput on an idle 4-core VM, so no string is served twice.
constexpr double kStreamPerSecond = 6000.0;

std::string ShardDir(const std::string& base, size_t shard) {
  char name[32];
  std::snprintf(name, sizeof(name), "/shard-%04zu", shard);
  return base + name;
}

std::unique_ptr<engine::serving::ServingFrontend> StartFrontend(
    const std::vector<std::unique_ptr<engine::DurableLibrary>>& shards) {
  std::vector<const engine::DigitalLibrary*> views;
  for (const auto& shard : shards) views.push_back(&shard->library());
  engine::serving::ServingConfig serving;
  serving.replicas = kReplicas;
  serving.queue_depth = kQueueDepth;
  return engine::serving::ServingFrontend::Create(views, serving).TakeValue();
}

}  // namespace

int RunQueryMix(const RunConfig& config, Report* report) {
  // The distinct part of either stream is a working set beyond the
  // frontend seed cache (128 entries) and the per-shard result caches
  // (8 x 128 entries).
  const bool unique = config.workload == "query_unique";
  const double repeat_share = unique ? 0.0 : kPopularShare;
  // Inputs (not timed, not set-up).
  const webspace::SynthesizedSite site = MakeSite(config.seed, 48, kVideos);
  const engine::serving::CorpusParts parts =
      MakeCorpus(config.seed, site, kVideos, kEventsPerVideo,
                 kShotsPerVideo, kClusters);

  // Set-up: build the durable shards, then cold-open them (full verify)
  // and start the frontend; repeated, the last deployment serves. The
  // stores are then reopened kOpenRepeats more times for cold_open_ms.
  // Set-ups and opens are timed in process CPU seconds (build_s, the
  // bulk build rate's base, in wall seconds): see README.md, "Noise".
  // (Set-ups and opens after the timed region run measurably slower in
  // the serving process, so all of them come first.)
  const std::string dir = config.work_dir + "/shards";
  std::vector<double> setup_s, build_s, open_ms;
  std::vector<std::unique_ptr<engine::DurableLibrary>> shards;
  std::unique_ptr<engine::serving::ServingFrontend> frontend;
  // Cold-opens every shard under `at` into `shards`; one open_ms sample.
  auto open_shards = [&](const std::string& at) {
    shards.clear();
    double open = 0.0;
    for (size_t s = 0; s < kShards; ++s) {
      const double cpu = ProcessCpuS();
      auto opened = [&] {
        Span span("segment");
        return engine::DurableLibrary::Open(ShardDir(at, s));
      }();
      open += (ProcessCpuS() - cpu) * 1e3;
      if (!opened.ok()) {
        std::fprintf(stderr, "%s open: %s\n", config.workload.c_str(),
                     opened.status().ToString().c_str());
        return false;
      }
      shards.push_back(opened.TakeValue());
    }
    open_ms.push_back(open);
    return true;
  };
  auto set_up = [&](const std::string& at) {
    frontend.reset();
    shards.clear();
    if (!ResetDirectory(at)) return false;
    const double t = NowS();
    const double cpu = ProcessCpuS();
    {
      auto built = [&] {
        Span span("segment");
        return engine::serving::BuildDurableShards(parts, kShards, at);
      }();
      if (!built.ok()) {
        std::fprintf(stderr, "%s build: %s\n", config.workload.c_str(),
                     built.status().ToString().c_str());
        return false;
      }
    }
    build_s.push_back(NowS() - t);
    if (!open_shards(at)) return false;
    frontend = StartFrontend(shards);
    setup_s.push_back(ProcessCpuS() - cpu);
    return true;
  };
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (!set_up(dir)) return 1;
  }
  frontend.reset();
  for (int rep = 0; rep < kOpenRepeats; ++rep) {
    if (!open_shards(dir)) return 1;
  }
  frontend = StartFrontend(shards);
  std::vector<const engine::DigitalLibrary*> views;
  for (const auto& shard : shards) views.push_back(&shard->library());

  StreamVocabulary vocabulary;
  vocabulary.words = InterviewWords(site);
  for (const auto& [oid, records] : parts.signatures) {
    for (const vision::SignatureRecord& rec : records) {
      vocabulary.probes.emplace_back(oid, (rec.begin + rec.end) / 2);
    }
  }
  vocabulary.first_year = 1996;
  vocabulary.last_year = 2003;
  const double warmup_s = 1.0;
  const double measured_s = std::max(config.seconds - warmup_s, 4.0);
  const std::vector<std::string> stream = MakeQueryStream(
      vocabulary, config.seed,
      static_cast<size_t>(kStreamPerSecond * (warmup_s + measured_s)),
      repeat_share, kPopularPool);

  // ---- timed region ----
  BeginTimed(report);
  const std::string serve = ServeClosedLoop(*frontend, stream, kClients,
                                            warmup_s, measured_s, report);
  EndTimed(report);
  // ---- end of timed region ----
  const StreamShape shape =
      MeasureStream(stream, static_cast<size_t>(report->attempted));

  // Gate: sampled frontend top-10 answers equal the unsharded oracle.
  {
    auto oracle = engine::serving::BuildLibrary(parts).TakeValue();
    bool served_ok = true;
    bool flipped = !config.flip_oracle;
    for (size_t i = 0; i < 3000; i += 5) {
      auto query = engine::ParseQuery(stream[i]);
      if (!query.ok()) {
        served_ok = false;
        continue;
      }
      auto expected = oracle->Search(*query);
      if (!flipped && expected.ok() && !expected->empty()) {
        (*expected)[0].video_oid += 1;
        flipped = true;
      }
      served_ok = served_ok &&
                  SameAnswer(expected, frontend->Search(*query, 10), 10);
    }
    report->Gate(config.workload +
                     ": frontend top-10 == unsharded oracle (sampled)",
                 served_ok && flipped);
  }
  std::string replay;
  if (config.trace) {
    std::vector<std::string> sample(stream.begin(), stream.begin() + 600);
    replay = QueryReplay(views, sample);
  }


  JsonObject& f = report->fields;
  f.Int("videos", kVideos)
      .Int("shards", kShards)
      .Nums("setup_s", setup_s)
      .Nums("build_s", build_s)
      .Nums("cold_open_ms", open_ms)
      .Int("store_bytes", DirectoryBytes(dir))
      .Num("repeat_share", repeat_share)
      .Int("stream_queries", static_cast<int64_t>(shape.queries))
      .Int("stream_distinct", static_cast<int64_t>(shape.distinct))
      .Int("stream_repeats", static_cast<int64_t>(shape.repeats))
      .Raw("serve", serve);
  if (config.trace) f.Raw("replay", replay);
  return 0;
}

}  // namespace perfbench
