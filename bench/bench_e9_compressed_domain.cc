/// \file bench_e9_compressed_domain.cc
/// E9 (extension) — compressed-domain vs pixel-domain shot detection.
/// The demo's raw layer is MPEG video; an encoder's macroblock statistics
/// (intra-coded ratio) give shot boundaries for free, without decoding
/// pixels or computing histograms. The table compares detection quality and
/// cost, plus the codec's rate/distortion behaviour.

#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <chrono>
#include <cstring>

#include "bench_util.h"
#include "detectors/compressed_shot_boundary.h"
#include "detectors/shot_boundary.h"
#include "media/block_codec.h"
#include "util/simd.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace {

using namespace cobra;  // NOLINT

/// Process CPU time (user + system, all threads) in milliseconds. Time the
/// host steals from the VM does not count, so CPU / wall of a parallel arm
/// shows how many threads actually ran at once.
double ProcessCpuMillis() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

void RunComparison() {
  bench::PrintHeader("E9", "compressed-domain vs pixel-domain shot detection");
  std::printf("%-8s %-22s %8s %8s %8s %12s\n", "noise", "method", "P", "R",
              "F1", "ms");
  for (double noise : {0.0, 4.0, 8.0}) {
    auto broadcast = media::TennisBroadcastSynthesizer(
                         bench::DefaultBroadcast(42, noise))
                         .Synthesize()
                         .TakeValue();
    auto cuts = broadcast.truth.CutPositions();
    auto encoded =
        media::BlockVideoEncoder::Encode(*broadcast.video).TakeValue();

    // Pixel domain: decode + histogram differencing.
    media::CodedVideoSource decoded(encoded);
    detectors::ShotBoundaryDetector pixel_detector;
    auto t0 = std::chrono::steady_clock::now();
    auto pixel = pixel_detector.Detect(decoded).TakeValue();
    auto t1 = std::chrono::steady_clock::now();
    double pixel_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    PrecisionRecall pixel_pr = MatchWithTolerance(cuts, pixel.boundaries, 2);

    // Compressed domain: threshold the encoder statistics.
    detectors::CompressedShotBoundaryDetector compressed_detector;
    t0 = std::chrono::steady_clock::now();
    auto compressed = compressed_detector.Detect(encoded);
    t1 = std::chrono::steady_clock::now();
    double compressed_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    PrecisionRecall compressed_pr = MatchWithTolerance(cuts, compressed, 2);

    std::printf("%-8.0f %-22s %8.3f %8.3f %8.3f %12.3f\n", noise,
                "pixel (decode+hist)", pixel_pr.Precision(), pixel_pr.Recall(),
                pixel_pr.F1(), pixel_ms);
    std::printf("%-8.0f %-22s %8.3f %8.3f %8.3f %12.3f\n", noise,
                "compressed (MB stats)", compressed_pr.Precision(),
                compressed_pr.Recall(), compressed_pr.F1(), compressed_ms);
  }

  // --- rate / distortion of the codec itself ---
  std::printf("\ncodec rate/distortion (%d frames):\n",
              static_cast<int>(bench::DefaultBroadcast().num_points));
  std::printf("%-10s %14s %12s %12s\n", "quality", "bytes/frame", "ratio",
              "mean PSNR");
  auto broadcast =
      media::TennisBroadcastSynthesizer(bench::DefaultBroadcast()).Synthesize()
          .TakeValue();
  for (int quality : {30, 50, 75, 90}) {
    media::CodecConfig config;
    config.quality = quality;
    auto encoded =
        media::BlockVideoEncoder::Encode(*broadcast.video, config).TakeValue();
    double ratio = encoded.CompressionRatio();
    double bytes_per_frame = static_cast<double>(encoded.TotalBytes()) /
                             static_cast<double>(encoded.num_frames());
    media::CodedVideoSource decoded(std::move(encoded));
    RunningStats psnr;
    for (int64_t f = 0; f < decoded.num_frames(); f += 25) {
      psnr.Add(media::ComputePsnr(broadcast.video->GetFrame(f).TakeValue(),
                                  decoded.GetFrame(f).TakeValue())
                   .TakeValue());
    }
    std::printf("%-10d %14.0f %11.1fx %12.2f\n", quality, bytes_per_frame,
                ratio, psnr.mean());
  }
  bench::PrintRule();
}

bool SameFrames(const media::MemoryVideo& a, const media::MemoryVideo& b) {
  if (a.num_frames() != b.num_frames()) return false;
  for (int64_t f = 0; f < a.num_frames(); ++f) {
    const media::Frame fa = a.GetFrame(f).TakeValue();
    const media::Frame fb = b.GetFrame(f).TakeValue();
    if (!fa.SameSizeAs(fb) ||
        std::memcmp(fa.pixels().data(), fb.pixels().data(),
                    fa.pixels().size() * sizeof(media::Rgb)) != 0) {
      return false;
    }
  }
  return true;
}

/// GOP-parallel full decode: every I-frame is a random-access point, so
/// independent GOPs decode concurrently on a thread pool. Frames are
/// bit-identical to the sequential scan (the tier-1 property tests assert
/// it); this table reports the wall-time side of that trade. Returns false
/// when the decoded frames differ between the scalar and the active tier.
bool RunGopParallelDecode() {
  bench::PrintHeader("E9", "GOP-parallel decode (DecodeAll)");
  auto broadcast =
      media::TennisBroadcastSynthesizer(bench::DefaultBroadcast()).Synthesize()
          .TakeValue();
  auto encoded = media::BlockVideoEncoder::Encode(*broadcast.video).TakeValue();
  media::CodedVideoSource source(std::move(encoded));
  std::printf("%lld frames, %lld GOPs, active SIMD tier: %s\n",
              static_cast<long long>(source.num_frames()),
              static_cast<long long>(source.encoded().NumGops()),
              util::simd::SimdLevelName(util::simd::CpuBestLevel()));
  std::printf("%-24s %12s\n", "configuration", "wall ms");

  util::simd::SetForcedLevel(0);  // the scalar decode kernels
  const media::MemoryVideo scalar_frames = source.DecodeAll().TakeValue();
  bench::WallTimer scalar_timer;
  source.DecodeAll().TakeValue();
  double scalar_ms = scalar_timer.Millis();
  util::simd::SetForcedLevel(-1);
  std::printf("%-24s %12.1f\n", "sequential, scalar DCT", scalar_ms);
  bench::PrintJsonMetric("e9_compressed_domain",
                         "decode_all_wall_ms_seq_scalar", scalar_ms);

  const bool identical =
      SameFrames(scalar_frames, source.DecodeAll().TakeValue());  // + warm-up
  std::printf("frames identical across tiers: %s\n", identical ? "yes" : "NO");
  bench::WallTimer timer;
  source.DecodeAll().TakeValue();
  double seq_ms = timer.Millis();
  std::printf("%-24s %12.1f\n", "sequential", seq_ms);
  bench::PrintJsonMetric("e9_compressed_domain", "decode_all_wall_ms_seq",
                         seq_ms);
  bench::PrintJsonMetric("e9_compressed_domain", "decode_simd_speedup",
                         scalar_ms / seq_ms);

  util::ThreadPool pool(4);
  source.DecodeAll(&pool).TakeValue();  // warm-up
  const double cpu_before = ProcessCpuMillis();
  timer = bench::WallTimer();
  source.DecodeAll(&pool).TakeValue();
  double par_ms = timer.Millis();
  const double par_cpu_ms = ProcessCpuMillis() - cpu_before;
  std::printf("%-24s %12.1f\n", "gop-parallel, 4 threads", par_ms);
  // CPU / wall near 1 means one decode task at a time (the host gave the
  // process about one core); near 4, all four workers ran.
  std::printf("%-24s %12.1f  (CPU / wall %.2f)\n", "  process CPU ms",
              par_cpu_ms, par_cpu_ms / par_ms);
  bench::PrintJsonMetric("e9_compressed_domain", "decode_all_wall_ms_4t",
                         par_ms);
  bench::PrintJsonMetric("e9_compressed_domain", "decode_all_cpu_ms_4t",
                         par_cpu_ms);
  bench::PrintJsonMetric("e9_compressed_domain", "decode_all_cpu_per_wall_4t",
                         par_cpu_ms / par_ms);

  double speedup = seq_ms / par_ms;
  std::printf("speedup: %.2fx\n", speedup);
  bench::PrintJsonMetric("e9_compressed_domain", "decode_all_speedup_4t",
                         speedup);
  bench::PrintRule();
  return identical;
}

void BM_Encode(benchmark::State& state) {
  auto config = bench::DefaultBroadcast();
  config.num_points = 1;
  config.include_cutaways = false;
  auto broadcast =
      media::TennisBroadcastSynthesizer(config).Synthesize().TakeValue();
  for (auto _ : state) {
    auto encoded = media::BlockVideoEncoder::Encode(*broadcast.video);
    benchmark::DoNotOptimize(encoded);
  }
  state.counters["frames/s"] = benchmark::Counter(
      static_cast<double>(broadcast.video->num_frames()) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Encode)->Unit(benchmark::kMillisecond);

void BM_DecodeSequential(benchmark::State& state) {
  auto config = bench::DefaultBroadcast();
  config.num_points = 1;
  config.include_cutaways = false;
  auto broadcast =
      media::TennisBroadcastSynthesizer(config).Synthesize().TakeValue();
  auto encoded = media::BlockVideoEncoder::Encode(*broadcast.video).TakeValue();
  media::CodedVideoSource decoded(std::move(encoded));
  for (auto _ : state) {
    for (int64_t f = 0; f < decoded.num_frames(); ++f) {
      auto frame = decoded.GetFrame(f);
      benchmark::DoNotOptimize(frame);
    }
  }
  state.counters["frames/s"] = benchmark::Counter(
      static_cast<double>(decoded.num_frames()) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DecodeSequential)->Unit(benchmark::kMillisecond);

void BM_DecodeGopParallel(benchmark::State& state) {
  auto config = bench::DefaultBroadcast();
  config.num_points = 1;
  config.include_cutaways = false;
  auto broadcast =
      media::TennisBroadcastSynthesizer(config).Synthesize().TakeValue();
  auto encoded = media::BlockVideoEncoder::Encode(*broadcast.video).TakeValue();
  media::CodedVideoSource decoded(std::move(encoded));
  util::ThreadPool pool(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto video = decoded.DecodeAll(&pool);
    if (!video.ok()) state.SkipWithError(video.status().ToString().c_str());
    benchmark::DoNotOptimize(video);
  }
  state.counters["frames/s"] = benchmark::Counter(
      static_cast<double>(decoded.num_frames()) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DecodeGopParallel)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_CompressedDetect(benchmark::State& state) {
  auto broadcast =
      media::TennisBroadcastSynthesizer(bench::DefaultBroadcast()).Synthesize()
          .TakeValue();
  auto encoded = media::BlockVideoEncoder::Encode(*broadcast.video).TakeValue();
  detectors::CompressedShotBoundaryDetector detector;
  for (auto _ : state) {
    auto cuts = detector.Detect(encoded);
    benchmark::DoNotOptimize(cuts);
  }
}
BENCHMARK(BM_CompressedDetect)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  bench::OpenJsonArtifact("BENCH_E9.json");
  RunComparison();
  const bool identical = RunGopParallelDecode();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return identical ? 0 : 1;
}
