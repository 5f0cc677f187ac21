#include <sys/resource.h>

#include <algorithm>
#include <filesystem>

#include "engine/query_language.h"
#include "workload.h"

namespace perfbench {

using namespace cobra;  // NOLINT
using engine::serving::ServingFrontend;

namespace {

constexpr size_t kTopN = 10;

bool ServeOne(ServingFrontend& frontend, const std::string& text) {
  Result<engine::CombinedQuery> query = [&] {
    Span span("query_language");
    return engine::ParseQuery(text);
  }();
  if (!query.ok()) return false;
  Span span("serving");
  return frontend.Search(*query, kTopN).ok();
}

void Count(const std::vector<Request>& requests, Report* report) {
  for (const Request& r : requests) {
    ++report->attempted;
    if (!r.ok) ++report->failed;
  }
}

std::vector<Request> ServeFixedRate(ServingFrontend& frontend,
                                    const std::vector<std::string>& stream,
                                    double rate, double seconds, int clients,
                                    size_t offset) {
  OpenLoopOptions options;
  options.rate = rate;
  options.seconds = seconds;
  options.clients = clients;
  return RunOpenLoop(options, [&](size_t i) {
    return ServeOne(frontend, stream[(offset + i) % stream.size()]);
  });
}

}  // namespace

size_t StreamLength(const ServePlan& plan) {
  return static_cast<size_t>(plan.base_rate *
                             (plan.warmup_seconds + plan.base_seconds)) +
         1;
}

std::string ServeOpenLoop(ServingFrontend& frontend,
                          const std::vector<std::string>& stream,
                          const ServePlan& plan, Report* report,
                          const std::function<void()>& after_base) {
  size_t offset = 0;
  auto serve = [&](double seconds) {
    std::vector<Request> requests = ServeFixedRate(
        frontend, stream, plan.base_rate, seconds, plan.clients, offset);
    offset += requests.size();
    Count(requests, report);
    return requests;
  };
  // Warm-up: mapped segment pages and lazily built per-shard state are
  // faulted in here rather than charged to the first measured requests.
  serve(plan.warmup_seconds);
  const std::vector<Request> base = serve(plan.base_seconds);
  if (after_base) after_base();
  return JsonObject()
      .Num("base_rate", plan.base_rate)
      .Int("clients", plan.clients)
      .Raw("base", RequestsJson(base))
      .Done();
}

std::string ServeClosedLoop(ServingFrontend& frontend,
                            const std::vector<std::string>& stream,
                            int clients, double warmup_seconds,
                            double seconds, Report* report) {
  size_t offset = 0;
  auto serve = [&](double length) {
    std::vector<Request> requests = RunClosedLoop(
        clients, length, stream.size() - offset, [&, offset](size_t i) {
          return ServeOne(frontend, stream[offset + i]);
        });
    offset += requests.size();
    Count(requests, report);
    return requests;
  };
  serve(warmup_seconds);
  const double begin = NowS();
  const double cpu_begin = ProcessCpuS();
  const std::vector<Request> measured = serve(seconds);
  return JsonObject()
      .Int("clients", clients)
      .Num("seconds", NowS() - begin)
      .Num("cpu_s", ProcessCpuS() - cpu_begin)
      .Bool("exhausted", offset == stream.size())
      .Raw("requests", RequestsJson(measured))
      .Done();
}

std::string QueryReplay(const std::vector<const engine::DigitalLibrary*>& shards,
                        const std::vector<std::string>& sample) {
  engine::serving::ServingConfig serving_config;
  auto frontend = ServingFrontend::Create(shards, serving_config).TakeValue();
  std::vector<double> parse_us, frontend_ms, engine_ms, overhead_ms, plan_ms,
      text_ms, similarity_ms;
  int64_t queries = 0, text_queries = 0, similar_queries = 0, postings = 0,
          blocks_skipped = 0, candidates = 0, probes = 0, fallbacks = 0,
          shards_searched = 0, shards_pruned = 0, shards_total = 0, rows = 0,
          hits = 0, explains = 0, short_circuits = 0, errors = 0;
  // The replay is a region of its own: its spans split the query path
  // into parse, frontend, text, similarity, bare engine and planner time.
  const double begin = NowS();
  for (const std::string& text : sample) {
    double t = NowS();
    Result<engine::CombinedQuery> parsed = [&] {
      Span span("query_language");
      return engine::ParseQuery(text);
    }();
    parse_us.push_back((NowS() - t) * 1e6);
    if (!parsed.ok()) {
      ++errors;
      continue;
    }
    const engine::CombinedQuery& query = *parsed;
    ++queries;

    engine::serving::QueryStats qstats;
    t = NowS();
    {
      Span span("serving");
      if (!frontend->Search(query, kTopN, &qstats).ok()) ++errors;
    }
    const double front = (NowS() - t) * 1e3;
    frontend_ms.push_back(front);
    shards_searched += static_cast<int64_t>(qstats.shards_searched);
    shards_pruned += static_cast<int64_t>(qstats.shards_pruned_upfront +
                                          qstats.shards_pruned_by_bound);
    shards_total += static_cast<int64_t>(qstats.shards_total);

    // The text modality is replicated: one stage evaluation seeds every
    // shard, as the frontend does.
    std::map<int64_t, double> text_seed;
    const std::map<int64_t, double>* seed = nullptr;
    if (!query.text.empty()) {
      ++text_queries;
      text::SearchStats stats;
      t = NowS();
      auto stage = [&] {
        Span span("text");
        return shards[0]->TextStage(query.text, query.text_top_k, &stats);
      }();
      text_ms.push_back((NowS() - t) * 1e3);
      postings += stats.postings_scanned;
      blocks_skipped += stats.blocks_skipped;
      if (stage.ok()) {
        text_seed = stage.TakeValue();
        seed = &text_seed;
      }
    }
    if (query.similar_video >= 0) {
      ++similar_queries;
      t = NowS();
      for (const engine::DigitalLibrary* shard : shards) {
        engine::similarity::SimilaritySearchStats stats;
        Span span("similarity");
        (void)engine::SimilarStage(shard->signatures(), query, &stats);
        candidates += static_cast<int64_t>(stats.candidates);
        probes += static_cast<int64_t>(stats.probes);
        if (stats.exhaustive_fallback) ++fallbacks;
      }
      similarity_ms.push_back((NowS() - t) * 1e3);
    }
    double bare = 0.0;
    for (const engine::DigitalLibrary* shard : shards) {
      t = NowS();
      Result<std::vector<engine::SceneHit>> result = [&] {
        Span span("engine");
        return shard->Search(query, nullptr, nullptr, seed);
      }();
      bare += (NowS() - t) * 1e3;
      if (result.ok()) hits += static_cast<int64_t>(result->size());
      t = NowS();
      Result<engine::planner::PlanExplain> explain = [&] {
        Span span("planner");
        return shard->ExplainSearch(query);
      }();
      plan_ms.push_back((NowS() - t) * 1e3);
      if (explain.ok()) {
        ++explains;
        if (explain->short_circuited) ++short_circuits;
        for (const auto& step : explain->steps) {
          if (step.actual_rows > 0) rows += step.actual_rows;
        }
      }
    }
    engine_ms.push_back(bare);
    overhead_ms.push_back(front - bare);
  }
  const double end = NowS();
  const engine::serving::ServingStats stats = frontend->stats();
  return JsonObject()
      .Num("begin", begin)
      .Num("end", end)
      .Int("queries", queries)
      .Int("errors", errors)
      .Int("text_queries", text_queries)
      .Int("similar_queries", similar_queries)
      .Int("postings", postings)
      .Int("blocks_skipped", blocks_skipped)
      .Int("candidates", candidates)
      .Int("probes", probes)
      .Int("fallbacks", fallbacks)
      .Int("shards_searched", shards_searched)
      .Int("shards_pruned", shards_pruned)
      .Int("shards_total", shards_total)
      .Int("rows", rows)
      .Int("hits", hits)
      .Int("explains", explains)
      .Int("short_circuits", short_circuits)
      .Int("seed_cache_hits", stats.text_seed_cache_hits)
      .Int("seed_cache_misses", stats.text_seed_cache_misses)
      .Nums("parse_us", parse_us)
      .Nums("frontend_ms", frontend_ms)
      .Nums("engine_ms", engine_ms)
      .Nums("overhead_ms", overhead_ms)
      .Nums("plan_ms", plan_ms)
      .Nums("text_ms", text_ms)
      .Nums("similarity_ms", similarity_ms)
      .Done();
}

TracedSink::TracedSink(std::vector<Target> targets)
    : barrier_ms(targets.size()), targets_(std::move(targets)) {}

Status TracedSink::Commit(const engine::ingest::IngestDelta& delta) {
  Span span("ingest");
  for (const Target& target : targets_) {
    COBRA_RETURN_NOT_OK(target.sink->Commit(delta));
  }
  if (delta.kind == engine::ingest::IngestDelta::Kind::kVideo) {
    ++committed_videos_;
  }
  return Status::OK();
}

Status TracedSink::Barrier() {
  for (size_t i = 0; i < targets_.size(); ++i) {
    const double t = NowS();
    Span span(targets_[i].barrier_layer);
    COBRA_RETURN_NOT_OK(targets_[i].sink->Barrier());
    barrier_ms[i].push_back((NowS() - t) * 1e3);
  }
  const double now = NowS();
  visible_at.resize(static_cast<size_t>(committed_videos_), now);
  if (after_barrier) return after_barrier(committed_videos_);
  return Status::OK();
}

double ProcessCpuS() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

void BeginTimed(Report* report) {
  report->timed_begin = NowS();
  report->cpu_at_begin = ProcessCpuS();
}

void EndTimed(Report* report) {
  report->timed_end = NowS();
  report->timed_cpu_s = ProcessCpuS() - report->cpu_at_begin;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  report->peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
}

int64_t DirectoryBytes(const std::string& dir) {
  std::error_code ec;
  int64_t total = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) {
      total += static_cast<int64_t>(entry.file_size(ec));
    }
  }
  return total;
}

bool ResetDirectory(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return std::filesystem::create_directories(dir, ec) || !ec;
}

}  // namespace perfbench
