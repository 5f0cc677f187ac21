#!/usr/bin/env python3
"""Compares two sets of benchmark runs, metric by metric and workload by
workload (python3 standard library only).

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR [--benchmark FILE]

Each directory holds run records as perfbench/run.py writes them under
.bench_results/ (copy that directory aside after each set of runs). For
every workload and metric it prints both sides' median and quartiles, the
change of the median and a verdict against the metric's better direction
and the bound recorded in BENCHMARK.json:

  regression  the change's median is worse than the base's by more than
              the bound
  better      the change wins at least 9 of 10 run pairs (paired by seed
              when both sides ran the same seeds) and the medians differ
              by more than the base's own quartile spread
  unchanged   neither
  unresolved  a side's run-to-run spread (quartile distance over median)
              exceeds the bound, unless every change run reads better than
              every base run
  info        per-layer metrics, which have no bound

A gain does not count when it costs correctness: records with wrong
answers (correct = false) are left out of the statistics and listed, and
any such record on the change side is a regression. The failed share of
operations (failed / attempted, summed over a workload's runs) is
compared too, and a higher share on the change side is a regression.

Exits 1 when anything regressed, else 0. Records whose context (cores,
SIMD tier, build type, threads) differs between the sides are reported,
since only runs on the same machine configuration are comparable.
"""

import argparse
import glob
import json
import os
import statistics
import sys

CONTEXT_KEYS = ("cores", "simd", "build_type", "threads", "seconds")


def quartiles(values):
    """(first quartile, median, third quartile), as
    statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def is_better(a, b, better):
    """True when value b reads better than value a."""
    return b < a if better == "lower" else b > a


def pairs(base, change):
    """Run pairs: by seed when both sides share seeds, else every pair."""
    shared = sorted(set(base) & set(change))
    if shared:
        return [(base[s], change[s]) for s in shared]
    return [(a, b) for a in base.values() for b in change.values()]


def verdict(base, change, better, bound):
    """Verdict for one metric. `base` and `change` map seed -> value."""
    a, b = list(base.values()), list(change.values())
    if bound is None:
        return "info"
    med_a, med_b = quartiles(a)[1], quartiles(b)[1]
    all_better = all(is_better(x, y, better) for x in a for y in b)
    if spread(a) > bound or spread(b) > bound:
        return "better" if all_better else "unresolved"
    worse_by = (med_b - med_a) if better == "lower" else (med_a - med_b)
    if med_a and worse_by / abs(med_a) > bound:
        return "regression"
    run_pairs = pairs(base, change)
    wins = sum(1 for x, y in run_pairs if is_better(x, y, better))
    q1, _, q3 = quartiles(a)
    if (wins >= 0.9 * len(run_pairs)
            and abs(med_b - med_a) > (q3 - q1)):
        return "better"
    return "unchanged"


def failed_share(counts):
    """Failed operations over attempted ones, from (attempted, failed)
    pairs."""
    attempted = sum(a for a, _f in counts)
    return sum(f for _a, f in counts) / attempted if attempted else 0.0


def failure_verdict(base, change):
    """'regression' when the change fails a larger share of its operations
    than the base, else 'unchanged'. Each side is a list of (attempted,
    failed) pairs."""
    return ("regression" if failed_share(change) > failed_share(base)
            else "unchanged")


def load_runs(directory):
    """{(workload, metric): {seed: value}}, units, contexts, per workload
    the (attempted, failed) pair of each run, and the paths of the records
    skipped for wrong answers."""
    values, units, contexts, counts, skipped = {}, {}, [], {}, []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            record = json.load(f)
        context = record["context"]
        if not record.get("correct", False):
            skipped.append(path)
            continue
        contexts.append(context)
        counts.setdefault(context["workload"], []).append(
            (record["attempted"], record["failed"]))
        for name, metric in record["metrics"].items():
            key = (context["workload"], name)
            values.setdefault(key, {})[context["seed"]] = metric["value"]
            units[name] = metric["unit"]
    return values, units, contexts, counts, skipped


def load_spec(path):
    with open(path) as f:
        spec = json.load(f)
    out = {}
    for metric in spec["end_to_end"]:
        out[metric["name"]] = (metric["better"], metric["bound"])
    for metric in spec["per_layer"]:
        out[metric["name"]] = (metric["better"], None)
    return out


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--benchmark",
                        default=os.path.join(os.path.dirname(here),
                                             "BENCHMARK.json"))
    args = parser.parse_args()
    spec = load_spec(args.benchmark)
    base, units, base_ctx, base_counts, base_skipped = load_runs(args.base)
    change, _, change_ctx, change_counts, change_skipped = load_runs(
        args.change)
    regressions = len(change_skipped)
    for side, paths in (("base", base_skipped), ("change", change_skipped)):
        for path in paths:
            print("skipped (wrong answers) %s: %s" % (side, path))

    for key in CONTEXT_KEYS:
        seen_a = {str(c.get(key)) for c in base_ctx}
        seen_b = {str(c.get(key)) for c in change_ctx}
        if seen_a != seen_b:
            print("context differs: %s %s vs %s" % (key, sorted(seen_a),
                                                    sorted(seen_b)))

    header = "%-14s %-36s %-9s %-6s %5s  %-30s %-30s %8s  %s" % (
        "workload", "metric", "unit", "better", "bound", "base med [q1, q3]",
        "change med [q1, q3]", "delta", "verdict")
    print(header)
    for key in sorted(set(base) & set(change)):
        workload, name = key
        if name not in spec:
            continue
        better, bound = spec[name]
        a, b = base[key], change[key]
        qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
        delta = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else float("nan")
        result = verdict(a, b, better, bound)
        regressions += result == "regression"
        print("%-14s %-36s %-9s %-6s %5s  %-30s %-30s %+7.1f%%  %s" % (
            workload, name, units.get(name, ""), better,
            "-" if bound is None else "%.2f" % bound,
            "%.4g [%.4g, %.4g] n=%d" % (qa[1], qa[0], qa[2], len(a)),
            "%.4g [%.4g, %.4g] n=%d" % (qb[1], qb[0], qb[2], len(b)),
            100 * delta, result))
    for workload in sorted(set(base_counts) & set(change_counts)):
        a, b = base_counts[workload], change_counts[workload]
        result = failure_verdict(a, b)
        regressions += result == "regression"
        print("%-14s %-36s base %.6f change %.6f  %s" % (
            workload, "failed/attempted", failed_share(a), failed_share(b),
            result))
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
