#!/usr/bin/env python3
"""Time recognition on plain and projectively scaled slack matrices.

    python3 scripts/scale_report.py [--quick] [--timeout SECONDS]

The items are the slack matrices of the cyclic polytopes C(12,5) and
C(16,6) and of the 7-cube, built in closed form by `perfbench/gen.py`
with every facet scaled to slack one at the vertex centroid, so that the
transpose is a polytope slack matrix too.  Each comes plain and with
positive row and column scalings (`gen.projective_scaling`, 16-bit), in
both orientations; `--quick` keeps the C(12,5) items.  Every item runs in
a child process of its own: `is_polytope_slack`, then `polar_realization`,
then `verify_yes_certificate` on the certificate.

One line per item: the time of each call, the child's peak RSS, and the
bit length of the largest integer in the recognition record.  The script
exits nonzero when a verdict is wrong (every item is a YES with a polar
realization and a certificate that verifies), or when an item fails or runs
past the timeout.
"""

import argparse
import dataclasses
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path[:0] = [os.path.join(_ROOT, "src"), os.path.join(_ROOT, "perfbench")]

import gen  # noqa: E402
from slackmat import (  # noqa: E402
    Matrix,
    is_polytope_slack,
    recognition,
    verify_yes_certificate,
)

FAMILIES = {
    "C(12,5)": lambda: gen.cyclic(12, 5),
    "C(16,6)": lambda: gen.cyclic(16, 6),
    "cube7": lambda: gen.cube(7),
}
QUICK = ("C(12,5)",)
SCALE_BITS = 16


def labels(families):
    return ["%s/%s%s" % (name, copy, side) for name in families
            for copy in ("plain", "scaled") for side in ("", "/T")]


def matrix(label: str) -> Matrix:
    name, copy, *transposed = label.split("/")
    rows = gen.slack(*gen.centred(*FAMILIES[name]()))
    if copy == "scaled":
        rows = gen.projective_scaling(gen.rng(1, "x" + name), rows, SCALE_BITS)
    return Matrix(gen.transpose(rows) if transposed else rows)


def max_bits(x) -> int:
    """The bit length of the largest integer in x, through tuples and
    Fractions."""
    if isinstance(x, int):
        return abs(x).bit_length()
    if isinstance(x, Fraction):
        return max(max_bits(x.numerator), max_bits(x.denominator))
    if isinstance(x, (tuple, list)):
        return max(map(max_bits, x), default=0)
    return 0


def child(label: str) -> None:
    """Run one item and print its measurements as one JSON line."""
    m = matrix(label)
    t0 = time.perf_counter()
    res = is_polytope_slack(m)
    t1 = time.perf_counter()
    try:
        recognition.polar_realization(m)
        polar = True
    except ValueError:
        polar = False
    t2 = time.perf_counter()
    verified = res.verdict and verify_yes_certificate(m, res.certificate)
    t3 = time.perf_counter()
    e = recognition._recognized(m)
    bits = max(max_bits(getattr(e, f.name)) for f in dataclasses.fields(e))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"shape": [m.rows, m.cols], "verdict": res.verdict,
                      "polar": polar, "verified": verified, "recognize_s": t1 - t0,
                      "polar_s": t2 - t1, "verify_s": t3 - t2,
                      "peak_rss_mb": rss, "max_int_bits": bits}))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--quick", action="store_true", help="the C(12,5) items only")
    ap.add_argument("--timeout", type=float, default=600.0,
                    help="seconds per item (default 600)")
    ap.add_argument("--item", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.item:
        child(args.item)
        return 0
    bad = 0
    print("%-18s %9s %8s %8s %8s %8s %9s" % ("item", "shape", "recog_s", "polar_s",
                                             "verify_s", "rss_mb", "max_bits"))
    for label in labels(QUICK if args.quick else FAMILIES):
        try:
            out = subprocess.run([sys.executable, os.path.abspath(__file__),
                                  "--item", label], capture_output=True,
                                 text=True, timeout=args.timeout)
        except subprocess.TimeoutExpired:
            print("%-18s timeout after %g s" % (label, args.timeout))
            bad += 1
            continue
        if out.returncode != 0:
            print("%-18s failed: %s" % (label, out.stderr.strip().splitlines()[-1:]))
            bad += 1
            continue
        r = json.loads(out.stdout)
        wrong = not (r["verdict"] and r["polar"] and r["verified"])
        bad += wrong
        print("%-18s %9s %8.3f %8.3f %8.3f %8.1f %9d%s" % (
            label, "%dx%d" % tuple(r["shape"]), r["recognize_s"], r["polar_s"],
            r["verify_s"], r["peak_rss_mb"], r["max_int_bits"],
            "  WRONG VERDICT" if wrong else ""))
    print("wrong or failed: %d" % bad)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
