#pragma once

/// \file workload.h
/// What the workloads share: their run configuration, the report each
/// fills, the serving stages (open loop at a fixed rate, closed loop at
/// saturation), the single-client traced replay that yields the per-layer
/// query counts, and the bench-side ingest sink.

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "engine/digital_library.h"
#include "engine/ingest/ingest.h"
#include "engine/serving/serving.h"
#include "trace.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch directory of this run (emptied first)
  std::string inputs;    ///< index_backlog: the backlog file
  int threads = 4;       ///< analysis / ingest pool size (<= nproc)
  bool flip_oracle = false;  ///< self-check: corrupt one oracle answer
};

/// What a workload run produced. `fields` is the workload's section of
/// the result file; gates are hard correctness checks.
struct Report {
  JsonObject fields;
  std::vector<std::pair<std::string, bool>> gates;
  int64_t attempted = 0;
  int64_t failed = 0;
  double timed_begin = 0.0;  ///< NowS() bounds of the timed region
  double timed_end = 0.0;
  double timed_cpu_s = 0.0;  ///< process CPU seconds within the region
  double peak_rss_mb = 0.0;  ///< process peak resident set at timed_end
  double cpu_at_begin = 0.0;

  void Gate(const std::string& name, bool ok) { gates.emplace_back(name, ok); }
};

/// User + system CPU seconds of the whole process so far. Time the host
/// gives other guests (steal) is not in it.
double ProcessCpuS();

/// Begins the timed region: stamps timed_begin and the CPU time so far.
void BeginTimed(Report* report);
/// Ends the timed region: stamps timed_end, the region's CPU time and the
/// peak resident memory so far (the correctness gates after it build
/// oracles that are not counted).
void EndTimed(Report* report);

int RunIndexBacklog(const RunConfig& config, Report* report);
int RunQueryMix(const RunConfig& config, Report* report);
int RunLiveGrow(const RunConfig& config, Report* report);

/// The open-loop serving stage's schedule: a warm-up, then the base rung
/// at a fixed rate (query p50/p99 come from it).
struct ServePlan {
  double warmup_seconds = 1.0;  ///< at base_rate, before the base rung
  double base_rate = 200.0;
  double base_seconds = 5.0;
  int clients = 32;
};

/// Requests `plan` offers, so a stream of this length is never reused
/// within a run.
size_t StreamLength(const ServePlan& plan);

/// Serves `stream` (query-language strings, consumed in order and wrapping
/// around) open-loop against `frontend`, global top-10. Returns the JSON
/// of the base rung's request records and adds each request to the
/// report's attempted/failed counts. `after_base` runs after the base
/// rung.
std::string ServeOpenLoop(cobra::engine::serving::ServingFrontend& frontend,
                          const std::vector<std::string>& stream,
                          const ServePlan& plan, Report* report,
                          const std::function<void()>& after_base = {});

/// Serves `stream` in order to `frontend` from `clients` closed-loop
/// clients, global top-10: `warmup_seconds`, then `seconds` whose request
/// records are returned as JSON with the measured length. Stops early,
/// and says so (`exhausted`), if the stream runs out; no string is served
/// twice. Adds each request to the report's attempted/failed counts.
std::string ServeClosedLoop(cobra::engine::serving::ServingFrontend& frontend,
                            const std::vector<std::string>& stream,
                            int clients, double warmup_seconds,
                            double seconds, Report* report);

/// Replays `sample` single-client through the public stage calls of each
/// shard and a fresh frontend over `shards`, and returns the per-layer
/// query counters and times as a JSON object, with the NowS() bounds of
/// the replay (`begin`, `end`) for its span attribution.
std::string QueryReplay(
    const std::vector<const cobra::engine::DigitalLibrary*>& shards,
    const std::vector<std::string>& sample);

/// The bench-side ingest sink: forwards every commit and barrier to its
/// targets in order, with a span around each call, and records when each
/// committed video became visible (the end of the barrier after its
/// commit) and how long each target's barriers took.
class TracedSink : public cobra::engine::ingest::IngestSink {
 public:
  struct Target {
    cobra::engine::ingest::IngestSink* sink;
    const char* barrier_layer;  ///< span name of this target's Barrier
  };
  explicit TracedSink(std::vector<Target> targets);

  cobra::Status Commit(const cobra::engine::ingest::IngestDelta& delta) override;
  cobra::Status Barrier() override;

  /// Runs after every barrier with the number of videos committed so far
  /// (the live workload's periodic Flush / CompactAsync hook).
  std::function<cobra::Status(int64_t)> after_barrier;
  /// Per committed video, in commit (= submission) order: NowS() when its
  /// barrier ended.
  std::vector<double> visible_at;
  /// Per target: each barrier's duration in ms.
  std::vector<std::vector<double>> barrier_ms;

 private:
  std::vector<Target> targets_;
  int64_t committed_videos_ = 0;
};

/// Bytes of every regular file under `dir` (recursive).
int64_t DirectoryBytes(const std::string& dir);
/// Removes `dir` and everything below it, then recreates it empty.
bool ResetDirectory(const std::string& dir);

}  // namespace perfbench
