"""Self-test of the benchmark: two traced runs of one workload and seed, in
separate processes, must report identical counters, and each must pass
its own checks (which include identical outputs with tracing on and off).

    python3 perfbench/selftest.py --workload random-cli --seed 7

Run from the root of a source checkout.  Exit 0 when both hold, 1 when not.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
import tracing  # noqa: E402


def traced_run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="random-cli")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1)
    args = ap.parse_args()
    runs = [traced_run(args.workload, args.seed, args.seconds) for _ in range(2)]
    ok = True
    for name in tracing.COUNTERS:
        a, b = (r["metrics"][name]["value"] for r in runs)
        if a != b:
            print("counter %s differs: %r vs %r" % (name, a, b))
            ok = False
    for i, r in enumerate(runs):
        if not r["correct"]:
            print("traced run %d failed its checks" % i)
            ok = False
    print("selftest %s: %s" % (args.workload, "ok" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
