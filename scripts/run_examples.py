#!/usr/bin/env python3
"""Walk the built-in example matrices through the whole pipeline.

Prints, for each example: the recognition verdicts, the reconstruction
f-vector when one exists, and certificate checks.  Everything is exact, so
the output is deterministic.
"""

import argparse
import os
import sys

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path[:0] = [os.path.join(_ROOT, "src"), os.path.join(_ROOT, "tests")]

from fractions import Fraction as F

from slackmat import (
    Matrix,
    dimension,
    incidence_matrix,
    is_cone_slack,
    is_polytope_slack,
    polar,
    polygon_slack_check,
    reconstruct_polytope,
    slack_of_polytope,
    verify_no_certificate,
    verify_yes_certificate,
)
from slackmat.combinatorial import NOT_APPLICABLE
from slackmat.recognition import polar_realization

from golden import (
    COUNTEREXAMPLE,
    PRISM,
    PRISM_SCALED,
    SQUARE_4GON,
    SQUARE_HOMOG,
)

EXAMPLES = [
    ("prism 6x5", PRISM),
    ("prism transpose", PRISM.transpose()),
    ("prism column-scaled", PRISM_SCALED),
    ("square homogenization 4x4", SQUARE_HOMOG),
    ("square 4-gon", SQUARE_4GON),
    ("non-pointed counterexample", COUNTEREXAMPLE),
    ("identity 3x3", Matrix.identity(3)),
    ("rank-one ray", Matrix([[1], [2]])),
]


def describe(name, m):
    print("== %s (%dx%d) ==" % (name, m.rows, m.cols))
    cone = is_cone_slack(m)
    poly = is_polytope_slack(m)
    print("  cone slack:     %s" % ("yes" if cone.verdict else
                                    "no (%s)" % cone.certificate.reason))
    print("  polytope slack: %s" % ("yes" if poly.verdict else
                                    "no (%s)" % poly.certificate.reason))
    for res in (cone, poly):
        check = verify_yes_certificate if res.verdict else verify_no_certificate
        assert check(m, res.certificate), "bad certificate"
    if poly.verdict:
        v, h = reconstruct_polytope(m)
        assert slack_of_polytope(v, h) == m
        print("  realization:    dim %d, %d vertices, %d facets" % (
            dimension(v), len(v.vectors), len(h.vectors)))
    try:
        gon = polygon_slack_check(m)
        print("  polygon test:   %s" % ("yes" if gon else "no"))
    except ValueError as e:
        if str(e) != NOT_APPLICABLE:
            raise
        print("  polygon test:   not applicable")
    zeros = sum(x for row in incidence_matrix(m).data for x in row)
    print("  zero entries:   %d" % zeros)
    if poly.verdict and is_polytope_slack(m.transpose()).verdict:
        p, scale = polar_realization(m)
        print("  polar pairing:  scale %s, polar has %d vertices" % (
            scale, len(polar(p).vectors)))
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--only", metavar="SUBSTR",
                    help="run only examples whose name contains SUBSTR")
    args = ap.parse_args()
    for name, m in EXAMPLES:
        if args.only and args.only not in name:
            continue
        describe(name, m)


if __name__ == "__main__":
    main()
