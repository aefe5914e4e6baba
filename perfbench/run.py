"""Benchmark of slackmat: seeded workloads through the public API.

    python3 perfbench/run.py --workload families --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
`src/` there and nowhere else.  One process, one thread, closed loop with
one item in flight.  A run builds the workload's items from the seed, makes
whole passes over them (at least MIN_PASSES) until about `--seconds` have
passed, and then checks every output outside the timed region.  Set-up is
repeated after each pass; its median is `setup_s`.

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics:

  items_per_s      items over the sum of each item's median latency
  latency_p50_ms   median item latency over all samples
  latency_tail_ms  the workload's tail percentile (see `tail`)
  ok_ratio         share of attempted items with no failed operation and no
                   wrong output (1 - fail_ratio; fail_ratio is 0 on some
                   workloads, and a metric must never be 0)
  peak_rss_mb      peak resident set size of the process
  setup_s          median set-up time

With `--trace 1` the passes
alternate untraced and traced, and the JSON carries the per-layer metrics
of the traced passes, after a self-test: counters of the traced passes are
identical, and outputs are the same with tracing on and off.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
from collections import Counter
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUPS = 9
# Per-item medians need several passes, and so does the tail percentile of
# the workload with the fewest items.
MIN_PASSES = 3
TAIL_LADDER = (99.9, 99, 95, 90, 75, 50)

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)


def one_pass(workload, items, tracer=None):
    """Run every item once; returns (seconds, [(latency_s, output, error)]).
    The pass time is the sum of the item latencies."""
    gc.collect()
    rows = []
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.item = i
        t0 = perf_counter()
        try:
            out, err = workload.run(item), None
        except Exception as e:  # a raising item is a failed operation, not a crash
            out, err = None, "%s: %s" % (type(e).__name__, e)
        rows.append((perf_counter() - t0, out, err))
    return sum(row[0] for row in rows), rows


def more_time(t_start, durations, seconds):
    """Start another round if the run then ends nearer `seconds`."""
    return perf_counter() - t_start + statistics.median(durations) / 2 < seconds


SAME = object()  # stands for an output equal to the first pass's


def thin(rows, first):
    """Drop the outputs that equal the first pass's, so that the heap, and
    with it the garbage collector's work, does not grow from pass to pass."""
    return [(lat, SAME if out == first[k][1] else out, err)
            for k, (lat, out, err) in enumerate(rows)]


def check(workload, items, passes):
    """Classify every attempted item; outputs of later passes must equal
    the first pass's, which is checked in full."""
    first = passes[0][1]
    status = []
    for item, (_, out, err) in zip(items, first):
        if err is not None:
            status.append(("error", err))
            continue
        try:
            status.append(workload.check(item, out))
        except Exception as e:
            status.append(("error", "check raised %s: %s" % (type(e).__name__, e)))
    attempted, failures = 0, Counter()
    for _, rows in passes:
        for k, (_, out, err) in enumerate(rows):
            attempted += 1
            if err is not None:
                st = ("error", err)
            elif out is not SAME and out != first[k][1]:
                st = ("wrong", "output differs from the first pass")
            else:
                st = status[k]
            if st is not None:
                failures[(st[0], items[k].label, st[1])] += 1
    return attempted, failures


def tail(latencies, pct):
    """Nearest-rank percentile, stepping down the ladder until at least ten
    samples lie beyond it.  Returns (percentile, value, samples beyond)."""
    xs = sorted(latencies)
    n = len(xs)
    for p in (pct,) + tuple(q for q in TAIL_LADDER if q < pct):
        rank = max(1, math.ceil(p * n / 100))
        if n - rank >= 10 or p == TAIL_LADDER[-1]:
            return p, xs[rank - 1], n - rank
    raise AssertionError("unreachable")


class Setups:
    """Times repeated set-ups of one workload.

    Set-up takes milliseconds while the host's speed drifts over seconds,
    so the repeats are spread over the run, one after each pass, and
    `median()` reports their median.
    """

    def __init__(self, workload, seed, tmp):
        self.workload, self.seed, self.tmp = workload, seed, tmp
        self.times = []

    def once(self):
        sub = os.path.join(self.tmp, "setup%d" % len(self.times))
        os.mkdir(sub)
        gc.collect()
        t0 = perf_counter()
        items = self.workload.setup(self.seed)
        self.times.append(perf_counter() - t0)
        return self.workload.place(items, sub), sub

    def again(self):
        shutil.rmtree(self.once()[1])

    def median(self):
        while len(self.times) < SETUPS:
            self.again()
        return statistics.median(self.times)


def report_failures(failures):
    for (kind, label, msg), n in sorted(failures.items()):
        print("  %-5s x%-4d %-24s %s" % (kind, n, label, msg[:160]))


def run_plain(workload, seed, seconds, tmp):
    setups = Setups(workload, seed, tmp)
    items, _ = setups.once()
    passes = []
    t_start = perf_counter()
    while len(passes) < MIN_PASSES or more_time(t_start, [t for t, _ in passes], seconds):
        t, rows = one_pass(workload, items)
        passes.append((t, thin(rows, passes[0][1]) if passes else rows))
        setups.again()
    setup_s = setups.median()
    attempted, failures = check(workload, items, passes)
    failed = sum(failures.values())
    wrong = sum(n for (kind, _, _), n in failures.items() if kind == "wrong")
    lat_ms = [row[0] * 1e3 for _, rows in passes for row in rows]
    pct, tail_ms, beyond = tail(lat_ms, workload.tail_pct)
    metrics = {
        "setup_s": setup_s,
        # Each item's median latency over the passes, so that a slow spell
        # of the host in one pass does not count.
        "items_per_s": len(items) / sum(
            statistics.median(rows[k][0] for _, rows in passes) for k in range(len(items))),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": tail_ms,
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print("workload %s seed %d: %d passes of %d items in %.2f s (%s)"
          % (workload.name, seed, len(passes), len(items), sum(t for t, _ in passes),
             " ".join("%.3f" % t for t, _ in passes)))
    for name, unit in END_TO_END:
        print("  %-16s %14.6g %s" % (name, metrics[name], unit))
    print("  latency_tail_ms is p%g of %d samples, %d beyond it"
          % (pct, len(lat_ms), beyond))
    print("  fail_ratio %.4f (%d failed of %d attempted, %d wrong outputs)"
          % (failed / attempted, failed, attempted, wrong))
    report_failures(failures)
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END},
    }


def run_traced(workload, seed, seconds, tmp):
    import tracing

    items, _ = Setups(workload, seed, tmp).once()
    plain, traced, tracers = [], [], []
    t_start = perf_counter()
    while len(traced) < 2 or more_time(
            t_start, [p[0] + t[0] for p, t in zip(plain, traced)], seconds):
        t, rows = one_pass(workload, items)
        plain.append((t, thin(rows, plain[0][1]) if plain else rows))
        tracer = tracing.Tracer()
        with tracer:
            t, rows = one_pass(workload, items, tracer)
        traced.append((t, thin(rows, plain[0][1])))
        tracers.append(tracer)
    # Outputs with tracing on must equal those with tracing off: check()
    # compares every pass against the first, untraced one.
    attempted, failures = check(workload, items, plain + traced)
    failed = sum(failures.values())
    wrong = sum(n for (kind, _, _), n in failures.items() if kind == "wrong")

    per_pass, incl_share = [], []
    for tracer, (_, rows) in zip(tracers, traced):
        values, covered, incl_s = tracing.summarize(tracer.spans, len(items))
        item_s = sum(row[0] for row in rows)
        for layer in tracing.LAYERS:
            values["split." + layer] = 100 * values[layer + ".self_s"] / item_s
        values["split.untraced"] = 100 * (item_s - covered) / item_s
        per_pass.append(values)
        incl_share.append({layer: 100 * t / item_s for layer, t in incl_s.items()})
    counters = [{k: p[k] for k in tracing.COUNTERS} for p in per_pass]
    same_counters = all(c == counters[0] for c in counters)
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    metrics.update(counters[0])
    metrics["trace_overhead_ratio"] = (statistics.median(t for t, _ in traced)
                                       / statistics.median(t for t, _ in plain))

    print("workload %s seed %d traced: %d untraced and %d traced passes of %d items"
          % (workload.name, seed, len(plain), len(traced), len(items)))
    for name, unit, _ in tracing.PER_LAYER:
        print("  %-42s %14.6g %s" % (name, metrics[name], unit))
    top = max(tracing.LAYERS, key=lambda layer: metrics[layer + ".self_s"])
    print("  largest self time: %s (%.1f%%); predicted %s: %s"
          % (top, metrics["split." + top], "/".join(workload.dominant),
             "match" if top in workload.dominant else "MISMATCH"))
    for layer in workload.dominant:
        print("  predicted layer %s: self %.1f%%, with callees %.1f%% of item time"
              % (layer, metrics["split." + layer],
                 statistics.median(share[layer] for share in incl_share)))
    print("  self-test: counters identical across traced passes: %s" % same_counters)
    print("  fail_ratio %.4f (%d failed of %d attempted, %d wrong outputs)"
          % (failed / attempted, failed, attempted, wrong))
    report_failures(failures)
    return {
        "correct": wrong == 0 and same_counters,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in tracing.PER_LAYER},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "slackmat", "__init__.py")):
        print("error: no slackmat sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print("error: unknown workload %r (have %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_root)
    try:
        runner = run_traced if args.trace else run_plain
        result = runner(workload, args.seed, args.seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
