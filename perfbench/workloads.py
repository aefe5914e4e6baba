"""The benchmark's workloads.

Each workload builds its items from the seed (`setup`, timed as set-up),
writes any input files they need (`place`, not timed), runs one item
through the program's public API (`run`, the timed part) and checks one
item's outcome (`check`, never timed).  `check` returns None when the
outcome is right, or `(kind, message)` with kind "error" for an operation
that failed (an exception or an error exit) and "wrong" for an output that
contradicts what is known by construction or by an independent route.

The program is imported by module and every call goes through a module
attribute, so the tracer's patches on those attributes see the calls.
"""

from __future__ import annotations

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import gen
from slackmat import cli, formats, recognition, verification
from slackmat.matrix import Matrix
from slackmat.polyhedra import PolytopeRep


@dataclass(frozen=True)
class Item:
    label: str
    data: tuple
    expect: object = None


def _slack_matrix(points, facets) -> Matrix:
    return Matrix(gen.slack(points, facets))


def _polytope_round_trip(cert, m: Matrix):
    """A polytope YES certificate must carry V and H reproducing m."""
    if cert.polytope is None:
        return ("wrong", "YES certificate without a polytope")
    v, h = cert.polytope
    if Matrix(gen.slack(v.vectors, h.vectors), cols=m.cols) != m:
        return ("wrong", "slack(V, H) != M")
    return None


def _polar_reproduces(polar, m: Matrix, d: int):
    """polar_realization returns points P and alpha > 0 such that alpha m is
    the slack matrix of P against facets a_j . x <= 1: the points span R^d
    and each column 1 - alpha m_j is a linear image of the points."""
    points, alpha = polar
    pts = [list(v) for v in points.vectors]
    if not (alpha > 0 and len(pts) == m.rows and points.ambient_dim == d
            and gen.rank(pts) == d):
        return ("wrong", "polar realization has the wrong shape")
    for j in range(m.cols):
        col = [1 - alpha * m[i, j] for i in range(m.rows)]
        if gen.rank([row + [c] for row, c in zip(pts, col)]) != d:
            return ("wrong", "polar realization does not reproduce alpha M")
    return None


def _no_certificate_valid(cert, m: Matrix):
    if not recognition.verify_no_certificate(m, cert):
        return ("wrong", "NO certificate fails verify_no_certificate")
    return None


class Workload:
    def place(self, items, directory):
        """Write the items' input files into `directory`; none by default."""
        return items


class Families(Workload):
    """Known polytope slack matrices through is_polytope_slack, with
    polar_realization on every YES."""

    name = "families"
    why = ("slack matrices of cubes, the prism and cyclic polytopes, plain, "
           "projectively scaled (Fraction bit growth) and facet-deleted (NO, "
           "separator DD): double description dominates")
    tail_pct = 75
    dominant = ("polyhedra",)
    # (label, polytope, YES copies).  Each base also gets a facet-deleted
    # NO copy of its last YES copy.  The two largest run one YES copy each
    # to keep a pass short enough for several passes per run.
    BASES = (
        ("prism", gen.prism, ("plain", "scaled")),
        ("cube3", lambda: gen.cube(3), ("plain", "scaled")),
        ("cube4", lambda: gen.cube(4), ("scaled",)),
        ("C(6,4)", lambda: gen.cyclic(6, 4), ("plain", "scaled")),
        ("C(7,4)", lambda: gen.cyclic(7, 4), ("plain", "scaled")),
        ("C(8,5)", lambda: gen.cyclic(8, 5), ("plain",)),
    )
    SCALE_BITS = 16

    def setup(self, seed):
        items = []
        for label, make, copies in self.BASES:
            r = gen.rng(seed, "families/" + label)
            points, facets = gen.centred(*make())
            rk = len(points[0]) + 1
            s = gen.slack(points, facets)
            for copy in copies:
                if copy == "scaled":
                    s = gen.projective_scaling(r, s, self.SCALE_BITS)
                items.append(Item("%s/%s" % (label, copy), (Matrix(s),), (True, rk)))
            j = r.randrange(len(facets))
            deleted = [row[:j] + row[j + 1:] for row in s]
            items.append(Item(label + "/facet-deleted", (Matrix(deleted),), (False, rk)))
        return items

    def run(self, item):
        (m,) = item.data
        res = recognition.is_polytope_slack(m)
        polar = recognition.polar_realization(m) if res.verdict else None
        return res, polar

    def check(self, item, out):
        (m,) = item.data
        res, polar = out
        verdict, rk = item.expect
        if res.verdict != verdict:
            return ("wrong", "verdict %s, expected %s" % (res.verdict, verdict))
        if not verdict:
            return _no_certificate_valid(res.certificate, m)
        bad = _polytope_round_trip(res.certificate, m)
        if bad:
            return bad
        return _polar_reproduces(polar, m, rk - 1)


class RandomCli(Workload):
    """Small seeded nonnegative matrices through the in-process CLI:
    check-cone and check-polytope with --certificate, then verify-cert on
    both certificates."""

    name = "random-cli"
    why = ("small seeded random nonnegative matrices, about half YES, with "
           "all-zero and rank-1 cases, through in-process cli.run: puts cli, "
           "formats and the NO-certificate path under load")
    tail_pct = 95
    dominant = ("cli", "recognition")
    ITEMS = 64
    # One slot per item, cycled: a fixed mix keeps the YES/NO and
    # degenerate shares equal across seeds.
    SLOTS = ("product2", "random", "product3", "polygon", "rank1", "product2",
             "zero", "rank1", "product3", "random", "polygon-deleted",
             "product2", "polygon", "prism-scaled", "product3", "random")

    def _matrix(self, r, kind):
        p, q = r.randint(2, 5), r.randint(2, 5)
        if kind == "random":
            return gen.nonneg_matrix(r, p, q)
        if kind.startswith("product"):
            return gen.nonneg_product(r, p, q, int(kind[-1]))
        if kind == "rank1":
            return gen.rank_one(r, p, q)
        if kind == "zero":
            return [tuple([0] * q) for _ in range(p)]
        if kind == "prism-scaled":
            return gen.column_scaled(r, gen.slack(*gen.prism()))
        s = gen.column_scaled(r, gen.slack(*gen.polygon(r, vertices=5)))
        if kind == "polygon-deleted":
            j = r.randrange(len(s[0]))
            s = [row[:j] + row[j + 1:] for row in s]
        return s

    def setup(self, seed):
        r = gen.rng(seed, "random-cli")
        items = []
        for i in range(self.ITEMS):
            kind = self.SLOTS[i % len(self.SLOTS)]
            rows = self._matrix(r, kind)
            # All-zero matrices come from their own slot only, so that their
            # share, and that of the rank-0 certificate failure, is the same
            # for every seed.
            while kind != "zero" and not any(x for row in rows for x in row):
                rows = self._matrix(r, kind)
            m = Matrix(rows)
            items.append(Item(kind, (m, formats.serialize(formats.document_for(m)))))
        return items

    def place(self, items, directory):
        # File creation on a VM's disk slowed run after run (31 ms to 88 ms
        # over ten runs), which is not the program's work, so writing the
        # documents is left out of set-up; serializing them is in.
        placed = []
        for i, item in enumerate(items):
            m, text = item.data
            base = os.path.join(directory, "m%03d" % i)
            with open(base + ".matrix", "w", encoding="utf-8") as fh:
                fh.write(text)
            placed.append(Item(item.label, (m, base + ".matrix", base + ".cone.cert",
                                            base + ".poly.cert")))
        return placed

    def run(self, item):
        _, path, cone_cert, poly_cert = item.data
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            codes = (
                cli.run(["check-cone", path, "--certificate", cone_cert]),
                cli.run(["check-polytope", path, "--certificate", poly_cert]),
                cli.run(["verify-cert", path, cone_cert]),
                cli.run(["verify-cert", path, poly_cert]),
            )
        return codes, out.getvalue(), err.getvalue()

    def check(self, item, out):
        m, _, cone_cert, poly_cert = item.data
        (cone, poly, vcone, vpoly), stdout, stderr = out
        if cone not in (0, 1) or poly not in (0, 1):
            return ("error", "check exit codes %d, %d: %s" % (cone, poly, stderr.strip()))
        # Independent routes, kept apart from the production path.
        if (cone == 0) != recognition.cone_check_via_polytope(m):
            return ("wrong", "check-cone disagrees with cone_check_via_polytope")
        want_poly = gen.rank(m.data) >= 2 and recognition.affine_criterion_check(m)
        if (poly == 0) != want_poly:
            return ("wrong", "check-polytope disagrees with affine_criterion_check")
        # verify-cert on the program's own certificates must accept them.
        # Exit 2 here is an operation failure (the rank-0 certificate that
        # cannot be read back is one); exit 1 would be a wrong rejection.
        if vcone == 2 or vpoly == 2:
            return ("error", "verify-cert exit 2: %s" % stderr.strip())
        if vcone != 0 or vpoly != 0:
            return ("wrong", "verify-cert rejects the program's own certificate")
        for path in (cone_cert, poly_cert):
            with open(path, encoding="utf-8") as fh:
                cert = formats.parse(fh.read()).payload
            if isinstance(cert, recognition.NoCertificate):
                bad = _no_certificate_valid(cert, m)
            elif path == poly_cert:
                bad = _polytope_round_trip(cert, m)
            else:
                bad = None  # a cone YES has no independent check beyond the oracle
            if bad:
                return bad
        return None


class VerifyVH(Workload):
    """verify_polytope_equality on V/H pairs with known answers."""

    name = "verify-vh"
    why = ("V/H pairs of cyclic polytopes, the 3-cube, the prism and seeded "
           "random polygons and affine images: equal, vertex-deleted, "
           "facet-deleted and one-facet pairs; the LP in dimension dominates")
    # p90 would fall between the four C(7,4) items and the next cluster of
    # item costs, so it would flip between them from run to run; p75 lies
    # inside the cluster of the eight C(7,3) items.
    tail_pct = 75
    dominant = ("lp",)

    def _bases(self, r):
        yield "prism", gen.prism()
        yield "cube3", gen.cube(3)
        yield "C(6,4)", gen.cyclic(6, 4)
        yield "C(7,4)", gen.cyclic(7, 4)
        yield "C(7,3)", gen.cyclic(7, 3)
        yield "polygon", gen.polygon(r)
        yield "polygon", gen.polygon(r)
        yield "affine-cube3", gen.affine_image(r, *gen.cube(3))
        yield "affine-C(7,3)", gen.affine_image(r, *gen.cyclic(7, 3))

    def setup(self, seed):
        r = gen.rng(seed, "verify-vh")
        items = []
        for label, (points, facets) in self._bases(r):
            n = len(points[0])
            s = gen.slack(points, facets)
            f, v = r.randrange(len(facets)), r.randrange(len(points))
            on_facet = [pt for pt, row in zip(points, s) if row[f] == 0]
            cases = (
                ("equal", points, facets, (True, "equal")),
                ("vertex-deleted", points[:v] + points[v + 1:], facets, (False, "slack_reject")),
                ("facet-deleted", points, facets[:f] + facets[f + 1:], (False, "slack_reject")),
                ("one-facet", on_facet, facets, (False, "dim_mismatch")),
            )
            for case, pts, fac, expect in cases:
                q = PolytopeRep("V", n, tuple(pts))
                p = PolytopeRep("H", n, tuple(fac))
                items.append(Item(label + "/" + case, (q, p), expect))
        return items

    def run(self, item):
        q, p = item.data
        return verification.verify_polytope_equality(q, p)

    def check(self, item, out):
        q, p = item.data
        if (out.equal, out.reason) != item.expect:
            return ("wrong", "got %s/%s, expected %s/%s" % ((out.equal, out.reason) + item.expect))
        if out.witness is not None:
            return _no_certificate_valid(out.witness, _slack_matrix(q.vectors, p.vectors))
        return None


WORKLOADS = {w.name: w for w in (Families(), RandomCli(), VerifyVH())}
