#!/usr/bin/env python3
"""The end-to-end COBRA benchmark (see perfbench/README.md).

    python3 perfbench/run.py
        --workload <index_backlog|query_mix|query_unique|live_grow>
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the library and the benchmark binary from
source into .bench_build/, generates (or reuses) the workload's inputs,
runs one workload, checks its correctness gates and prints one JSON
result object as the last line of standard output. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run.
Every run's full record (context stamp, samples, gates) is also written
under .bench_results/ for perfbench/compare.py.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import zlib

sys.dont_write_bytecode = True
import metrics  # noqa: E402  (after disabling bytecode caches)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
CACHE_DIR = os.path.join(ROOT, ".bench_cache")
RESULTS_DIR = os.path.join(ROOT, ".bench_results")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
BINARY = os.path.join(BUILD_DIR, "cobra_e2e")

WORKLOADS = ("index_backlog", "query_mix", "query_unique", "live_grow")
# Latency percentiles are taken per window of this many requests (1000:
# ten beyond p99) and the median window is reported.
LATENCY_WINDOW = 1000
# Query throughput is taken per window of this many completions (about a
# second) and the median window is reported.
RATE_WINDOW = 1000


def backlog_videos(seconds):
    """Coded broadcasts in the index_backlog backlog, all distinct: a
    warm-up round of 8, then one measured round of 16 (about 0.7 s on 4
    cores) per two seconds of the run, at least 4."""
    return 8 + 16 * max(4, int(round(seconds / 2)))


RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def log(message):
    print(message, file=sys.stderr, flush=True)


def fail(message, code=2):
    log("perfbench: " + message)
    sys.exit(code)


# ---------------------------------------------------------------------------
# Build.


def build():
    """Configures once and builds incrementally; serialized by a lock so
    concurrent runs in one checkout never build over each other."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under %s/src" % ROOT)
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        started = time.monotonic()
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                       "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(os.cpu_count() or 1, 8)))
        run_quiet(["cmake", "--build", BUILD_DIR, "-j", jobs])
        return time.monotonic() - started


def run_quiet(command):
    # The compiler's temporary files stay inside the build tree too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT,
                              timeout=BUILD_TIMEOUT_S, check=False,
                              env=dict(os.environ, TMPDIR=tmp))
    except subprocess.TimeoutExpired:
        fail("build timed out: " + " ".join(command))
    if proc.returncode != 0:
        log(proc.stdout.decode(errors="replace")[-4000:])
        fail("build failed: " + " ".join(command))


# ---------------------------------------------------------------------------
# Inputs.


def file_digest(paths):
    digest = hashlib.sha256()
    for rel in paths:
        path = os.path.join(ROOT, rel)
        digest.update(rel.encode())
        if os.path.isfile(path):
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def crc32_file(path):
    crc = 0
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            crc = zlib.crc32(chunk, crc)
    return crc


def backlog(seed, videos, threads):
    """The backlog file for `seed`, generated once per seed and generator
    configuration and reused behind a checksum. The key covers every
    source of the library and the benchmark, so a change to any of them
    makes a cached backlog stale; a missing, stale or corrupt entry is
    regenerated. Returns (path, generation seconds, hit)."""
    key = hashlib.sha256(json.dumps(
        {"seed": seed, "videos": videos,
         "sources": file_digest(source_files())},
        sort_keys=True).encode()).hexdigest()[:24]
    os.makedirs(CACHE_DIR, exist_ok=True)
    path = os.path.join(CACHE_DIR, "backlog-%s.bin" % key)
    manifest_path = path + ".json"
    with open(os.path.join(CACHE_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        try:
            with open(manifest_path) as f:
                manifest = json.load(f)
            if (manifest.get("key") == key and os.path.isfile(path)
                    and os.path.getsize(path) == manifest.get("bytes")
                    and crc32_file(path) == manifest.get("crc32")):
                return path, manifest.get("generation_s", 0.0), True
        except (OSError, ValueError):
            pass
        started = time.monotonic()
        tmp = path + ".tmp"
        code = subprocess.run(
            [BINARY, "gen", "--seed", str(seed), "--videos",
             str(videos), "--threads", str(threads), "--out", tmp],
            timeout=RUN_TIMEOUT_S, check=False).returncode
        if code != 0:
            fail("input generation failed (exit %d)" % code)
        os.replace(tmp, path)
        generation_s = time.monotonic() - started
        with open(manifest_path, "w") as f:
            json.dump({"key": key, "bytes": os.path.getsize(path),
                       "crc32": crc32_file(path),
                       "generation_s": generation_s}, f)
        return path, generation_s, False


# ---------------------------------------------------------------------------
# Metrics.


def served_requests(workload, run):
    """The measured query requests: the closed loop's (query_mix,
    query_unique) or the open loop's fixed-rate rung (live_grow)."""
    serve = run["serve"]
    return metrics.requests_list(
        serve["requests"] if workload in QUERY_WORKLOADS else serve["base"])


def operation_latencies(workload, run):
    """Latency samples of the workload's operation: a broadcast's submit ->
    durable commit (index_backlog), a query's service time in the closed
    loop (query_mix, query_unique) or a query of the fixed-rate rung timed
    from its due time (live_grow)."""
    if workload == "index_backlog":
        return run["freshness_ms"]
    return metrics.latencies_ms(served_requests(workload, run))


def generator_lateness(workload, run):
    """p99 of how late the open-loop generator dispatched the fixed-rate
    rung's requests (None where there is no open-loop generator)."""
    if workload != "live_grow":
        return None
    return metrics.percentile(
        metrics.lateness_ms(metrics.requests_list(run["serve"]["base"])), 99.0)


def latency_tail(samples, wanted):
    """The tail percentile reported: `wanted`, or the highest below it that
    has ten samples beyond it within one latency window."""
    return metrics.tail_percentile(min(len(samples), LATENCY_WINDOW),
                                   wanted=wanted) or 50.0


def latency_at(samples, p):
    """The p-th percentile per window of LATENCY_WINDOW requests in
    schedule order, median over the windows."""
    return metrics.windowed_percentile(samples, p, LATENCY_WINDOW)


def throughput(workload, result):
    """Wall-clock operations per second: coded frames analyzed and
    committed (index_backlog, median round), queries served (query_mix,
    query_unique, median window) or video deltas made durable and
    searchable (live_grow)."""
    run = result["run"]
    if workload == "index_backlog":
        return metrics.median(
            [f / s for f, s in zip(run["round_frames"], run["round_s"])])
    if workload in QUERY_WORKLOADS:
        return metrics.windowed_rate(
            [r[3] for r in served_requests(workload, run)], RATE_WINDOW)
    # All bursts' videos over their summed busy time (equal bursts: the
    # harmonic mean of the burst rates).
    return statistics.harmonic_mean(run["burst_videos_per_s"])


def end_to_end(workload, result):
    """The end-to-end metrics; every workload reports all of them. The
    operation behind cpu_ms_per_op is the workload's own (see README.md):
    a coded frame analyzed and committed (index_backlog), a query served
    (query_mix, query_unique) or a video delta made durable and searchable
    beside a query stream (live_grow). Wall-clock throughput and latency
    are per-layer metrics: on a shared host they move with the CPU time
    the host takes from the guest (README.md, "Noise")."""
    run = result["run"]
    if workload == "index_backlog":
        videos = run["videos"]
        cpu_ms = metrics.median(
            [c * 1e3 / f for c, f in zip(run["round_cpu_s"],
                                         run["round_frames"])])
    elif workload in QUERY_WORKLOADS:
        videos = run["videos"]
        cpu_ms = (run["serve"]["cpu_s"] * 1e3
                  / len(served_requests(workload, run)))
    else:
        videos = run["store_videos"]
        cpu_ms = result["timed_cpu_s"] * 1e3 / run["videos"]
    return {
        "setup_s": (metrics.median(run["setup_s"]), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "cold_open_ms": (metrics.median(run["cold_open_ms"]), "ms"),
        "store_bytes_per_video": (run["store_bytes"] / videos, "bytes"),
        "cpu_ms_per_op": (cpu_ms, "ms"),
    }


def ratio(num, den):
    return num / den if den else 0.0


def med(values):
    return metrics.median(values) if values else 0.0


def per_layer(workload, result, spans_path):
    run = result["run"]
    replay = run.get("replay", {})
    e2e = end_to_end(workload, result)
    out = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    # Wall-clock figures under the workload-specific names, from this
    # traced run (0 where the workload has no such operation), and the
    # traced run's CPU cost: its difference from cpu_ms_per_op of an
    # untraced run of the same seed is the tracing overhead.
    put("traced.cpu_ms_per_op", e2e["cpu_ms_per_op"][0], "ms")
    rate = throughput(workload, result)
    is_index = workload == "index_backlog"
    is_query = workload in QUERY_WORKLOADS
    put("index_frames_per_s", rate if is_index else 0.0, "frames/s")
    if is_index:
        ingest = med([v / s for v, s in zip(run["round_videos"],
                                            run["round_s"])])
    elif is_query:
        ingest = run["videos"] / metrics.median(run["build_s"])
    else:
        ingest = rate
    put("ingest_videos_per_s", ingest, "videos/s")
    latency = operation_latencies(workload, run)
    put("query_p50_ms", 0.0 if is_index else latency_at(latency, 50.0), "ms")
    put("query_p99_ms",
        0.0 if is_index else latency_at(latency, latency_tail(latency, 99.0)),
        "ms")
    put("query_max_qps", rate if is_query else 0.0, "q/s")
    fresh = run.get("freshness_ms", [])
    put("freshness_p50_ms", latency_at(fresh, 50.0) if fresh else 0.0, "ms")
    # p99 when the sample supports it, else its highest supported tail.
    put("freshness_p99_ms",
        latency_at(fresh, latency_tail(fresh, 99.0)) if fresh else 0.0, "ms")
    put("media.deserialize_ms", med(run.get("deserialize_ms", [])), "ms")
    put("media.decode_us_per_frame", med(run.get("decode_us_per_frame", [])),
        "us")
    for layer in ("segment", "player", "features", "events", "wave"):
        put("fde.%s_ms" % layer, med(run.get("fde_%s_ms" % layer, [])), "ms")
    put("fde.cache_hit_ratio",
        ratio(run.get("fde_cache_hits", 0), run.get("fde_cache_lookups", 0)),
        "ratio")
    put("vision.signature_ms", med(run.get("signature_ms", [])), "ms")
    put("vision.signature_cache_hit_ratio",
        ratio(run.get("signature_cache_hits", 0),
              run.get("signature_cache_lookups", 0)), "ratio")
    put("ingest.submit_blocked_ms", sum(run.get("submit_blocked_ms", [])),
        "ms")
    put("ingest.records_per_sync",
        ratio(run.get("wal_records", 0), run.get("wal_sync_calls", 0)),
        "count")
    put("wal.barrier_ms", med(run.get("barrier_ms", [])), "ms")
    put("segment.flush_ms", med(run.get("flush_ms", [])), "ms")
    opens = run.get("cold_open_ms", [])
    put("segment.open_ms", med(opens) / max(1, run.get("shards", 1)), "ms")
    if workload == "live_grow":
        # Only live_grow compacts and publishes; it is not in BENCHMARK.json
        # (see README.md), so these stay out of the declared metric set.
        put("segment.compact_ms", med(run.get("compact_ms", [])), "ms")
        put("serving.publish_ms", med(run.get("publish_ms", [])), "ms")
    queries = replay.get("queries", 0)
    put("serving.shards_searched_per_query",
        ratio(replay.get("shards_searched", 0), queries), "count")
    put("serving.pruned_share",
        ratio(replay.get("shards_pruned", 0), replay.get("shards_total", 0)),
        "ratio")
    put("serving.seed_cache_hit_ratio",
        ratio(replay.get("seed_cache_hits", 0),
              replay.get("seed_cache_hits", 0)
              + replay.get("seed_cache_misses", 0)), "ratio")
    put("serving.frontend_overhead_ms", med(replay.get("overhead_ms", [])),
        "ms")
    put("planner.plan_ms", med(replay.get("plan_ms", [])), "ms")
    put("planner.rows_per_hit",
        ratio(replay.get("rows", 0), replay.get("hits", 0)), "count")
    put("planner.short_circuit_share",
        ratio(replay.get("short_circuits", 0), replay.get("explains", 0)),
        "ratio")
    put("text.stage_ms", med(replay.get("text_ms", [])), "ms")
    put("text.postings_per_query",
        ratio(replay.get("postings", 0), replay.get("text_queries", 0)),
        "count")
    put("text.blocks_skipped_per_query",
        ratio(replay.get("blocks_skipped", 0), replay.get("text_queries", 0)),
        "count")
    put("similarity.stage_ms", med(replay.get("similarity_ms", [])), "ms")
    put("similarity.candidates_per_query",
        ratio(replay.get("candidates", 0), replay.get("similar_queries", 0)),
        "count")
    put("similarity.probes_per_query",
        ratio(replay.get("probes", 0), replay.get("similar_queries", 0)),
        "count")
    put("similarity.fallback_share",
        ratio(replay.get("fallbacks", 0), replay.get("similar_queries", 0)),
        "ratio")
    put("engine.search_ms", med(replay.get("engine_ms", [])), "ms")
    put("query_language.parse_us", med(replay.get("parse_us", [])), "us")

    # Wall-clock attribution of the timed region, and of the traced query
    # replay after it, to the layers' spans.
    with open(spans_path) as f:
        spans = metrics.parse_spans(f)
    regions = (("timed", "attributed", result["timed_begin"],
                result["timed_end"], TIMED_LAYERS),
               ("replay", "replay", replay.get("begin", 0.0),
                replay.get("end", 0.0), REPLAY_LAYERS))
    for wall, prefix, begin, end, layers in regions:
        shares = metrics.attribute(spans, begin, end)
        put("%s.wall_ms" % wall, (end - begin) * 1e3, "ms")
        for layer in layers:
            put("%s.%s_ms" % (prefix, layer), shares.get(layer, 0.0), "ms")
        put("%s.unattributed_ms" % prefix, shares.get("unattributed", 0.0),
            "ms")

    return out


QUERY_WORKLOADS = ("query_mix", "query_unique")
# The span names cobra_e2e (perfbench/src) records in the timed region,
# where a query is one frontend Search, and in the traced replay, where
# each stage of a query is called on its own.
TIMED_LAYERS = ("media", "fde", "vision", "ingest", "wal", "segment",
                "serving", "query_language")
REPLAY_LAYERS = ("query_language", "serving", "text", "similarity", "engine",
                 "planner")


# ---------------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--flip-oracle", action="store_true",
                        help="self-check: corrupt one oracle answer; the "
                             "run must then fail its gate")
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in [1, 120]")

    build_s = build()
    threads = max(1, min(os.cpu_count() or 1, 4))
    inputs, generation_s, cache_hit = "", 0.0, False
    if args.workload == "index_backlog":
        inputs, generation_s, cache_hit = backlog(
            args.seed, backlog_videos(args.seconds), threads)

    work = os.path.join(WORK_ROOT, "%s-%d-%d" % (args.workload, args.seed,
                                                os.getpid()))
    out = work + ".json"
    command = [BINARY, "run", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work", work, "--out", out,
               "--threads", str(threads)]
    if inputs:
        command += ["--inputs", inputs]
    if args.flip_oracle:
        command.append("--flip-oracle")
    try:
        code = subprocess.run(command, timeout=RUN_TIMEOUT_S,
                              check=False).returncode
        if code not in (0, 2) or not os.path.isfile(out):
            fail("workload run failed (exit %d)" % code)
        with open(out) as f:
            result = json.load(f)
        spans = os.path.join(work, "spans.tsv")
        if args.trace:
            values = per_layer(args.workload, result, spans)
        else:
            values = end_to_end(args.workload, result)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.exists(out):
            os.remove(out)

    correct = code == 0 and all(g["ok"] for g in result["gates"])
    latency = operation_latencies(args.workload, result["run"])
    context = dict(result["context"])
    context.update({
        "workload": args.workload, "trace": args.trace,
        "source_digest": file_digest(source_files()),
        "commit": commit(),
        "input_generation_s": generation_s, "input_cache_hit": cache_hit,
        "corpus_videos": result["run"].get("store_videos",
                                           result["run"]["videos"]),
        "offered_qps": result["run"].get("serve", {}).get("base_rate"),
        "popular_share": result["run"].get("repeat_share"),
        "stream_queries": result["run"].get("stream_queries"),
        "stream_distinct": result["run"].get("stream_distinct"),
        "stream_repeat_share": (
            ratio(result["run"]["stream_repeats"],
                  result["run"]["stream_queries"])
            if "stream_queries" in result["run"] else None),
        "clients": result["run"].get("serve", {}).get("clients"),
        "burst_videos": result["run"].get("burst_videos"),
        "burst_period_s": result["run"].get("burst_period_s"),
        "latency_samples": len(latency),
        "generator_late_p99_ms": generator_lateness(args.workload,
                                                    result["run"]),
        "build_s": build_s,
    })
    record = {"context": context, "correct": correct,
              "attempted": result["attempted"], "failed": result["failed"],
              "gates": result["gates"],
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in values.items()}}
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump(record, f, indent=1)
    print("context " + json.dumps(context, sort_keys=True))
    for gate in result["gates"]:
        print("gate %s: %s" % ("ok" if gate["ok"] else "FAILED", gate["name"]))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": record["metrics"]}))
    if not correct:
        sys.exit(1)


def source_files():
    files = []
    for top in ("src", "perfbench"):
        for dirpath, _dirs, names in os.walk(os.path.join(ROOT, top)):
            for name in names:
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    files.append(os.path.relpath(os.path.join(dirpath, name),
                                                 ROOT))
    return sorted(files)


def commit():
    """HEAD of the checkout's own git repository; "unknown" outside git
    (git is not asked to search the directories above the checkout)."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=10,
                              check=False)
        return proc.stdout.decode().strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


if __name__ == "__main__":
    main()
