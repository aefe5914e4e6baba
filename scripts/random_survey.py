#!/usr/bin/env python3
"""Survey recognition behaviour on seeded random matrices.

Draws random nonnegative matrices (a mix of arbitrary ones and guaranteed
cone slack products), runs every recognition route on each, checks every
certificate they produce, and reports acceptance rates plus any cross-route
disagreement or invalid certificate.  It then verifies seeded V/H pairs
(equal, vertex-deleted, facet-deleted and one-facet) against the vertex
route and checks every rejection's witness.  Any disagreement or invalid
certificate would be a bug; the script exits nonzero in that case.
"""

import argparse
import os
import sys
import time
from dataclasses import dataclass

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path[:0] = [os.path.join(_ROOT, "src"), os.path.join(_ROOT, "tests")]

from slackmat import (
    affine_criterion_check,
    ccgc_check,
    cone_check_via_polytope,
    is_cone_slack,
    is_polytope_slack,
    rcgc_check,
    verify_no_certificate,
    verify_polytope_equality,
    verify_yes_certificate,
)
from slackmat.matrix import rank
from slackmat.polyhedra import slack_of_polytope, vertices_of_h_polytope

from randgen import (
    on_facet,
    random_nonneg_matrix,
    random_slack_like_matrix,
    rng,
    verification_inputs,
)


@dataclass(frozen=True)
class SurveyConfig:
    seed: int = 0
    count: int = 200
    max_rows: int = 6
    max_cols: int = 6


def survey(cfg: SurveyConfig) -> int:
    r = rng(cfg.seed)
    cone_yes = poly_yes = checked_poly = disagreements = invalid = 0
    t0 = time.time()
    for i in range(cfg.count):
        if i % 2:
            m = random_slack_like_matrix(r, max_dim=3, max_pts=6)
        else:
            m = random_nonneg_matrix(r, cfg.max_rows, cfg.max_cols)
        results = [ccgc_check(m), rcgc_check(m), is_cone_slack(m), is_polytope_slack(m)]
        for res in results:
            check = verify_yes_certificate if res.verdict else verify_no_certificate
            if not check(m, res.certificate):
                invalid += 1
                print("invalid %s certificate on %r" % (res.kind, m), file=sys.stderr)
        routes = [res.verdict for res in results[:3]] + [cone_check_via_polytope(m)]
        if len(set(routes)) != 1:
            disagreements += 1
            print("cone-route disagreement on %r" % m, file=sys.stderr)
        cone_yes += routes[0]
        if rank(m) >= 2:
            checked_poly += 1
            a = results[3].verdict
            b = affine_criterion_check(m)
            if a != b:
                disagreements += 1
                print("polytope-route disagreement on %r" % m, file=sys.stderr)
            poly_yes += a
    pairs, vh_disagreements = verification_survey(r, cfg.count // 4)
    dt = time.time() - t0
    print("matrices:            %d" % cfg.count)
    print("cone slack rate:     %.1f%%" % (100.0 * cone_yes / cfg.count))
    print("polytope slack rate: %.1f%% (of %d with rank >= 2)"
          % (100.0 * poly_yes / max(checked_poly, 1), checked_poly))
    print("disagreements:       %d" % disagreements)
    print("invalid certificates: %d" % invalid)
    print("verification pairs:  %d" % pairs)
    print("verification disagreements: %d" % vh_disagreements)
    print("elapsed:             %.2fs" % dt)
    return 1 if disagreements or invalid or vh_disagreements else 0


def _vertex_route(q, p) -> bool:
    """P = Q for Q's points all vertices: P is bounded and every vertex of
    P is a point of Q."""
    try:
        return set(vertices_of_h_polytope(p)) <= set(q.vectors)
    except ValueError:  # unbounded or not pointed
        return False


def verification_survey(r, rounds: int) -> tuple[int, int]:
    """(pairs, disagreements) over `rounds` rounds of verification_inputs
    and one one-facet pair each; a disagreement is a verdict the vertex
    route does not share or a witness verify_no_certificate rejects."""
    pairs = bad = 0
    for _ in range(rounds):
        cases = verification_inputs(r)
        v, h = cases[0]
        cases.append((on_facet(v, h, r.randrange(len(h.vectors))), h))
        for q, p in cases:
            res = verify_polytope_equality(q, p)
            ok = res.equal == _vertex_route(q, p)
            if res.witness is not None:
                ok &= verify_no_certificate(slack_of_polytope(q, p), res.witness)
            if not ok:
                bad += 1
                print("verification disagreement (%s) on %r, %r"
                      % (res.reason, q, p), file=sys.stderr)
            pairs += 1
    return pairs, bad


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--count", type=int, default=200)
    ap.add_argument("--max-rows", type=int, default=6)
    ap.add_argument("--max-cols", type=int, default=6)
    a = ap.parse_args()
    cfg = SurveyConfig(a.seed, a.count, a.max_rows, a.max_cols)
    sys.exit(survey(cfg))


if __name__ == "__main__":
    main()
