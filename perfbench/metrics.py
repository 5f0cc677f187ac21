"""Statistics the benchmark reports: the percentile rule, open-loop
accounting, windowed throughput and the layer attribution of a trace.

Python standard library only; every function here is covered by
test_perfbench.py.
"""

import math

# Percentiles considered for a tail, highest first.
TAIL_CANDIDATES = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0)
# A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(samples, p):
    """Nearest-rank p-th percentile (0 < p <= 100) of a non-empty sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = max(1, math.ceil(round(p / 100.0 * len(ordered), 9)))
    return ordered[rank - 1]


def tail_percentile(n, wanted=99.9):
    """The highest percentile <= `wanted` with at least MIN_BEYOND of `n`
    samples beyond it, or None when the sample supports no tail."""
    for p in TAIL_CANDIDATES:
        # Samples ranked above the nearest-rank position of p.
        beyond = n - math.ceil(round(p / 100.0 * n, 9))
        if p <= wanted and beyond >= MIN_BEYOND:
            return p
    return None


def median(values):
    return percentile(values, 50.0) if values else None


def windowed_percentile(samples, p, window):
    """The p-th percentile of each consecutive window of `window` samples
    (a shorter remainder joins the last window), then the median of those:
    a noisy stretch of the run moves only the windows it covers."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    count = max(1, len(samples) // window)
    bounds = [i * window for i in range(count)] + [len(samples)]
    return median([percentile(samples[a:b], p)
                   for a, b in zip(bounds, bounds[1:])])


# ---------------------------------------------------------------------------
# Open-loop accounting.


def requests_list(columns):
    """Rows (due, dispatch, start, end, ok) from cobra_e2e's column form."""
    return list(zip(columns["due"], columns["dispatch"], columns["start"],
                    columns["end"], [bool(x) for x in columns["ok"]]))


def latencies_ms(requests):
    """Latency of each request timed from its due time, so a stall's wait
    is charged to every request queued behind it. A failed request counts
    as missing every limit: its latency is infinite."""
    return [(end - due) * 1e3 if ok else math.inf
            for due, _dispatch, _start, end, ok in requests]


def lateness_ms(requests):
    """How late the generator dispatched each request."""
    return [(dispatch - due) * 1e3 for due, dispatch, _s, _e, _ok in requests]


def windowed_rate(ends, window):
    """Completions per second over each run of `window` consecutive
    completions (`ends`: completion times), then the median of those: a
    stalled stretch moves only the windows it covers. Fewer than
    window + 1 completions make one window of all of them."""
    ordered = sorted(ends)
    if len(ordered) < 2:
        raise ValueError("rate of fewer than two completions")
    step = min(window, len(ordered) - 1)
    rates = []
    for first in range(0, len(ordered) - step, step):
        elapsed = ordered[first + step] - ordered[first]
        if elapsed > 0:
            rates.append(step / elapsed)
    return median(rates)


# ---------------------------------------------------------------------------
# Layer attribution of a trace.


def parse_spans(lines):
    """Spans (thread, layer, start, end, depth) from cobra_e2e's TSV."""
    spans = []
    for line in lines:
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 5:
            continue
        spans.append((int(parts[0]), parts[1], float(parts[2]),
                      float(parts[3]), int(parts[4])))
    return spans


def self_intervals(spans):
    """Per thread, the intervals during which each span is the innermost
    open one: (thread, layer, start, end). Spans of one thread nest."""
    by_thread = {}
    for span in spans:
        by_thread.setdefault(span[0], []).append(span)
    out = []
    for thread, items in by_thread.items():
        # Sweep the thread's open/close events with a stack; at equal times
        # closes come before opens, inner closes before outer ones and outer
        # opens before inner ones, so the stack top is the innermost span.
        events = []
        for _t, layer, start, end, depth in items:
            events.append((start, 1, depth, layer))
            events.append((end, 0, -depth, layer))
        events.sort()
        stack = []
        last = None
        for t, kind, _d, layer in events:
            if stack and t > last:
                out.append((thread, stack[-1], last, t))
            last = t
            if kind == 1:
                stack.append(layer)
            else:
                stack.pop()
    return out


def attribute(spans, begin, end):
    """Splits the wall time [begin, end] among layers: at each instant the
    threads inside a span share it equally, each charging its innermost
    span's layer; instants with no thread in a span are 'unattributed'.
    The returned milliseconds add up to (end - begin) exactly."""
    events = []
    for _thread, layer, a, b in self_intervals(spans):
        a, b = max(a, begin), min(b, end)
        if b > a:
            events.append((a, 1, layer))
            events.append((b, -1, layer))
    events.sort(key=lambda e: (e[0], e[1]))
    shares = {"unattributed": 0.0}
    active = {}
    last = begin
    for t, kind, layer in events + [(end, 0, None)]:
        if t > last:
            dt = (t - last) * 1e3
            count = sum(active.values())
            if count == 0:
                shares["unattributed"] += dt
            else:
                for name, c in active.items():
                    if c:
                        shares[name] = shares.get(name, 0.0) + dt * c / count
            last = t
        if layer is not None:
            active[layer] = active.get(layer, 0) + kind
    return shares
