#!/usr/bin/env python3
"""Digest of the program's outputs on seeded inputs.

    python3 scripts/output_digest.py --seed 0 --count 50

Runs `count` rounds of `tests/randgen.py` inputs and hashes, in order:
every matrix with its `ccgc_check` and `is_polytope_slack` certificates,
its `polar_realization` (points and scale, or the error message), and the
`verify_polytope_equality` result of equal, vertex-deleted and
facet-deleted V/H pairs with its witness.  Everything is written in the
canonical text format, so two versions of the program give the same
digest iff they give byte-identical outputs on these inputs.
"""

import argparse
import hashlib
import os
import sys

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path[:0] = [os.path.join(_ROOT, "src"), os.path.join(_ROOT, "tests")]

from slackmat import ccgc_check, is_polytope_slack, verify_polytope_equality
from slackmat.formats import document_for, serialize
from slackmat.recognition import polar_realization

from randgen import recognition_inputs, rng, verification_inputs


def _text(payload) -> str:
    return serialize(document_for(payload))


def outputs(seed: int, count: int):
    """The program's outputs on the seeded inputs, as text, in order."""
    r = rng(seed)
    for _ in range(count):
        for m in recognition_inputs(r):
            yield _text(m)
            yield _text(ccgc_check(m).certificate)
            yield _text(is_polytope_slack(m).certificate)
            try:
                p, scale = polar_realization(m)
                yield _text(p) + "SCALE %s\n" % scale
            except ValueError as e:
                yield "ERROR %s\n" % e
        for q, p in verification_inputs(r):
            res = verify_polytope_equality(q, p)
            yield "VERIFY %s %s %s\n" % (res.equal, res.reason, res.dims)
            if res.witness is not None:
                yield _text(res.witness)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--count", type=int, default=50)
    args = ap.parse_args()
    h = hashlib.sha256()
    for text in outputs(args.seed, args.count):
        h.update(text.encode("ascii"))
    print(h.hexdigest())


if __name__ == "__main__":
    main()
