/// \file main.cc
/// cobra_e2e — the end-to-end benchmark binary. Three subcommands:
///
///   gen      --seed S --videos N --threads T --out FILE
///            synthesize + encode the index_backlog broadcasts
///   run      --workload W --seed S --seconds T --trace 0|1 --work DIR
///            --out FILE [--inputs FILE] [--threads N] [--flip-oracle]
///            run one workload; writes the raw result file (samples,
///            counters, gates) that perfbench/run.py turns into metrics
///   selftest check the open- and closed-loop generators' accounting on a
///            stalled server and the query stream's repeat share
///
/// Exit codes: 0 = ran and every gate held, 2 = a correctness gate failed,
/// 1 = usage or setup error.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "corpus.h"
#include "util/simd.h"
#include "util/thread_pool.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace cobra;  // NOLINT

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) continue;
    key = key.substr(2);
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      flags[key] = argv[++i];
    } else {
      flags[key] = "1";
    }
  }
  return flags;
}

std::string Flag(const std::map<std::string, std::string>& flags,
                 const std::string& key, const std::string& fallback) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

bool WriteText(const std::string& path, const std::string& text) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), file) == text.size();
  return std::fclose(file) == 0 && ok;
}

int Gen(const std::map<std::string, std::string>& flags) {
  const uint64_t seed = std::stoull(Flag(flags, "seed", "1"));
  const size_t videos = std::stoul(Flag(flags, "videos", "8"));
  const int threads = std::stoi(Flag(flags, "threads", "1"));
  const std::string out = Flag(flags, "out", "");
  if (out.empty()) return 1;
  const webspace::SynthesizedSite site =
      MakeSite(seed, 32, static_cast<int>(videos));
  std::vector<CodedInput> inputs(videos);
  std::vector<Status> errors(videos);
  util::ThreadPool pool(threads);
  pool.ParallelFor(0, static_cast<int64_t>(videos), 1, [&](int64_t i) {
    const size_t v = static_cast<size_t>(i);
    auto broadcast =
        media::TennisBroadcastSynthesizer(BacklogBroadcast(seed, v))
            .Synthesize();
    if (!broadcast.ok()) {
      errors[v] = broadcast.status();
      return;
    }
    auto encoded =
        media::BlockVideoEncoder::Encode(*broadcast->video, BacklogCodec());
    if (!encoded.ok()) {
      errors[v] = encoded.status();
      return;
    }
    inputs[v].oid = site.video_oids[v];
    inputs[v].frames = encoded->num_frames();
    inputs[v].bytes = encoded->Serialize();
  });
  for (const Status& status : errors) {
    if (!status.ok()) {
      std::fprintf(stderr, "gen: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  return WriteBacklog(out, inputs) ? 0 : 1;
}

int Run(const std::map<std::string, std::string>& flags) {
  RunConfig config;
  config.workload = Flag(flags, "workload", "");
  config.seed = std::stoull(Flag(flags, "seed", "1"));
  config.seconds = std::stod(Flag(flags, "seconds", "10"));
  config.trace = Flag(flags, "trace", "0") == "1";
  config.work_dir = Flag(flags, "work", "");
  config.inputs = Flag(flags, "inputs", "");
  config.flip_oracle = flags.count("flip-oracle") > 0;
  const int cores = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  config.threads =
      std::min(std::stoi(Flag(flags, "threads", "4")), std::max(cores, 1));
  const std::string out = Flag(flags, "out", "");
  if (out.empty() || config.work_dir.empty() ||
      !ResetDirectory(config.work_dir)) {
    std::fprintf(stderr, "run: --out and a writable --work are required\n");
    return 1;
  }
  EnableTracing(config.trace);

  Report report;
  int status = 1;
  if (config.workload == "index_backlog") {
    status = RunIndexBacklog(config, &report);
  } else if (config.workload == "query_mix" ||
             config.workload == "query_unique") {
    status = RunQueryMix(config, &report);
  } else if (config.workload == "live_grow") {
    status = RunLiveGrow(config, &report);
  } else {
    std::fprintf(stderr, "run: unknown workload '%s'\n",
                 config.workload.c_str());
    return 1;
  }
  if (status != 0) return status;

  std::string gates = "[";
  bool all_ok = true;
  for (size_t i = 0; i < report.gates.size(); ++i) {
    gates += (i == 0 ? "" : ", ") + JsonObject()
                                        .Str("name", report.gates[i].first)
                                        .Bool("ok", report.gates[i].second)
                                        .Done();
    all_ok = all_ok && report.gates[i].second;
    if (!report.gates[i].second) {
      std::fprintf(stderr, "gate failed: %s\n", report.gates[i].first.c_str());
    }
  }
  gates += "]";
  const std::string context =
      JsonObject()
          .Int("cores", cores)
          .Str("simd", util::simd::SimdLevelName(util::simd::CpuBestLevel()))
          .Str("build_type", COBRA_BUILD_TYPE)
          .Int("threads", config.threads)
          .Int("seed", static_cast<int64_t>(config.seed))
          .Num("seconds", config.seconds)
          .Done();
  const std::string result =
      JsonObject()
          .Str("workload", config.workload)
          .Bool("trace", config.trace)
          .Raw("context", context)
          .Int("attempted", report.attempted)
          .Int("failed", report.failed)
          .Raw("gates", gates)
          .Num("timed_begin", report.timed_begin)
          .Num("timed_end", report.timed_end)
          .Num("timed_cpu_s", report.timed_cpu_s)
          .Num("peak_rss_mb", report.peak_rss_mb)
          .Raw("run", report.fields.Done())
          .Done();
  if (!WriteText(out, result + "\n")) return 1;
  if (config.trace && !WriteSpans(config.work_dir + "/spans.tsv")) return 1;
  return all_ok ? 0 : 2;
}

/// One server thread-equivalent (one client) and a request that stalls
/// for 200 ms: every request queued behind it must carry that wait in its
/// latency, and none may be dropped.
int SelfTest() {
  OpenLoopOptions options;
  options.rate = 100.0;
  options.seconds = 1.0;
  options.clients = 1;
  const std::vector<Request> requests = RunOpenLoop(options, [](size_t i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(i == 10 ? 200 : 1));
    return true;
  });
  bool ok = requests.size() == 100;
  for (size_t i = 0; ok && i < requests.size(); ++i) {
    const Request& r = requests[i];
    ok = r.ok && r.dispatch >= r.due && r.start >= r.dispatch &&
         r.end >= r.start;
    // Requests 11..29 were due within the stall and had to wait for it.
    if (i > 10 && i < 30) ok = ok && r.end - r.due > 0.2 - (r.due - 0.1);
  }
  // Closed loop: a stall holds up only its own client, which sends nothing
  // meanwhile; the other client keeps going. An exhausted stream stops
  // the loop early.
  const std::vector<Request> closed =
      RunClosedLoop(2, 0.3, 1000, [](size_t i) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(i == 0 ? 200 : 2));
        return true;
      });
  ok = ok && closed.size() > 60 && closed.size() < 200 &&
       closed[0].end - closed[0].start > 0.2;
  for (size_t i = 1; ok && i < closed.size(); ++i) {
    ok = closed[i].ok && closed[i].end - closed[i].start < 0.1;
  }
  ok = ok &&
       RunClosedLoop(2, 10.0, 20, [](size_t) { return true; }).size() == 20;
  // The query stream's stated shape: with no popular share every string is
  // distinct, and the popular share is what repeats.
  StreamVocabulary vocabulary;
  for (int w = 0; w < 400; ++w) {
    vocabulary.words.push_back(std::string("w").append(std::to_string(w)));
  }
  for (int64_t v = 0; v < 240; ++v) {
    for (int64_t f = 0; f < 24; ++f) vocabulary.probes.emplace_back(v, f * 40);
  }
  vocabulary.first_year = 1996;
  vocabulary.last_year = 2003;
  const size_t count = 30000;
  const StreamShape unique =
      MeasureStream(MakeQueryStream(vocabulary, 5, count, 0.0, kPopularPool),
                    count);
  const StreamShape mix = MeasureStream(
      MakeQueryStream(vocabulary, 5, count, kPopularShare, kPopularPool),
      count);
  const double mix_share =
      static_cast<double>(mix.repeats) / static_cast<double>(count);
  ok = ok && unique.repeats == 0 && unique.distinct == count &&
       std::abs(mix_share - kPopularShare) < 0.01;
  std::printf("%s\n", JsonObject()
                          .Bool("ok", ok)
                          .Num("mix_repeat_share", mix_share)
                          .Raw("requests", RequestsJson(requests))
                          .Done()
                          .c_str());
  return ok ? 0 : 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: cobra_e2e gen|run|selftest [flags]\n");
    return 1;
  }
  const auto flags = perfbench::ParseFlags(argc, argv);
  const std::string command = argv[1];
  if (command == "gen") return perfbench::Gen(flags);
  if (command == "run") return perfbench::Run(flags);
  if (command == "selftest") return perfbench::SelfTest();
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return 1;
}
