"""Seeded input generators for the benchmark.

Everything here is the benchmark's own code, independent of the tests and of
the program under measurement: polytopes are built from closed formulas
(cubes, prism, cyclic polytopes through Gale's evenness condition) so their
vertex and facet lists, and hence their slack matrices, are known exactly
without running the program.  Every function takes a `random.Random`, so the
same seed always yields the same inputs.

Points are tuples of Fractions.  Facet rows are `(beta, a1, ..., an)`
meaning `a . x <= beta`, the layout of the program's H-form polytopes.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction as F


def slack(points, facets):
    """Slack matrix rows: S[i][j] = beta_j - a_j . v_i."""
    return [
        tuple(h[0] - sum(a * x for a, x in zip(h[1:], v)) for h in facets)
        for v in points
    ]


def transpose(rows):
    return [tuple(c) for c in zip(*rows)]


def rank(rows):
    """Exact rank by Gaussian elimination over the rationals."""
    a = [list(map(F, r)) for r in rows]
    rk = 0
    ncols = len(a[0]) if a else 0
    for c in range(ncols):
        piv = next((i for i in range(rk, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[rk], a[piv] = a[piv], a[rk]
        for i in range(rk + 1, len(a)):
            if a[i][c] != 0:
                f = a[i][c] / a[rk][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[rk])]
        rk += 1
    return rk


# --- polytopes with known vertices and facets --------------------------------

def cube(k):
    points = [tuple(F(b) for b in bits) for bits in itertools.product((0, 1), repeat=k)]
    facets = []
    for i in range(k):
        e = [F(0)] * k
        e[i] = F(1)
        facets.append((F(1),) + tuple(e))                  # x_i <= 1
        facets.append((F(0),) + tuple(-x for x in e))      # -x_i <= 0
    return points, facets


def prism():
    """Triangle x, y >= 0, x + y <= 1 times the segment 0 <= z <= 1."""
    tri = [(0, 0), (1, 0), (0, 1)]
    points = [tuple(F(c) for c in p + (z,)) for z in (0, 1) for p in tri]
    facets = [
        (F(0), F(-1), F(0), F(0)),
        (F(0), F(0), F(-1), F(0)),
        (F(1), F(1), F(1), F(0)),
        (F(0), F(0), F(0), F(-1)),
        (F(1), F(0), F(0), F(1)),
    ]
    return points, facets


def _poly_from_roots(roots):
    """Coefficients c_0..c_d of prod (t - r), lowest degree first."""
    c = [F(1)]
    for r in roots:
        nxt = [F(0)] * (len(c) + 1)
        for k, ck in enumerate(c):
            nxt[k + 1] += ck
            nxt[k] -= r * ck
        c = nxt
    return c


def _gale_facets(n, d):
    """d-subsets of range(n) satisfying Gale's evenness condition."""
    out = []
    for s in itertools.combinations(range(n), d):
        ss = set(s)
        outside = [i for i in range(n) if i not in ss]
        if all(
            sum(1 for x in s if i < x < j) % 2 == 0
            for i, j in zip(outside, outside[1:])
        ):
            out.append(s)
    return out


def cyclic(n, d):
    """Cyclic polytope C(n, d): points (t, t^2, .., t^d) at t = 1..n.

    The facet through the points at the roots r is the polynomial
    prod (t - r_i) read as an affine function of (t, .., t^d), with the sign
    that makes it nonnegative on the other points, so each slack entry is
    |prod (t_j - r_i)|.
    """
    ts = [F(t) for t in range(1, n + 1)]
    points = [tuple(t ** k for k in range(1, d + 1)) for t in ts]
    facets = []
    for s in _gale_facets(n, d):
        c = _poly_from_roots([ts[i] for i in s])
        other = next(ts[i] for i in range(n) if i not in s)
        sign = 1 if sum(ck * other ** k for k, ck in enumerate(c)) > 0 else -1
        # sign * (c_0 + sum c_k x_k) >= 0  <=>  -sign * sum c_k x_k <= sign * c_0
        facets.append((sign * c[0],) + tuple(-sign * ck for ck in c[1:]))
    return points, facets


def polygon(r, vertices=6):
    """Random convex lattice polygon with the given number of vertices
    (monotone-chain hull of random points, redrawn until it fits)."""
    while True:
        pts = sorted({(r.randint(-12, 12), r.randint(-12, 12)) for _ in range(12)})

        def half(seq):
            h = []
            for p in seq:
                while len(h) >= 2 and (
                    (h[-1][0] - h[-2][0]) * (p[1] - h[-2][1])
                    - (h[-1][1] - h[-2][1]) * (p[0] - h[-2][0])
                ) <= 0:
                    h.pop()
                h.append(p)
            return h

        lower, upper = half(pts), half(reversed(pts))
        hull = lower[:-1] + upper[:-1]  # counter-clockwise, no collinear points
        if len(hull) == vertices:
            break
    points = [(F(x), F(y)) for x, y in hull]
    facets = []
    for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1]):
        # Interior lies to the left of each counter-clockwise edge.
        a = (F(y1 - y0), F(x0 - x1))
        facets.append((a[0] * x0 + a[1] * y0,) + a)
    return points, facets


def centred(points, facets):
    """Facets rescaled to slack one at the vertex centroid.

    Then the rows of the slack matrix average to the all-ones vector, so
    its transpose is a polytope slack matrix too (the polar exists).
    """
    c = [sum(x) / len(points) for x in zip(*points)]
    out = []
    for h in facets:
        s = h[0] - sum(a * x for a, x in zip(h[1:], c))
        out.append(tuple(x / s for x in h))
    return points, out


def _random_fraction(r, bits):
    return F(r.randint(1, 2 ** bits), r.randint(1, 2 ** bits))


def affine_image(r, points, facets):
    """Image under a random invertible map x -> T x + t (T unit lower
    triangular times a permutation, so T^-1 is exact and cheap)."""
    n = len(points[0])
    perm = list(range(n))
    r.shuffle(perm)
    low = [[F(1) if i == j else (F(r.randint(-8, 8)) if j < i else F(0))
            for j in range(n)] for i in range(n)]
    t = [F(r.randint(-8, 8)) for _ in range(n)]
    # y = L (P x) + t, with (P x)_i = x_perm[i].
    def fwd(x):
        px = [x[perm[i]] for i in range(n)]
        return tuple(sum(low[i][j] * px[j] for j in range(n)) + t[i] for i in range(n))
    # Inverse of L by forward substitution, column by column.
    linv = [[F(0)] * n for _ in range(n)]
    for c in range(n):
        for i in range(n):
            linv[i][c] = (F(1) if i == c else F(0)) - sum(low[i][j] * linv[j][c] for j in range(i))
    new_facets = []
    for h in facets:
        beta, a = h[0], h[1:]
        # a . x = a . P^-1 L^-1 (y - t): coefficients on y are (P^T a)^T L^-1.
        pa = [a[perm[i]] for i in range(n)]
        b = tuple(sum(pa[i] * linv[i][c] for i in range(n)) for c in range(n))
        new_facets.append((beta + sum(bc * tc for bc, tc in zip(b, t)),) + b)
    return [fwd(v) for v in points], new_facets


def projective_scaling(r, rows, bits):
    """Positive row and column scalings D1 S D2 that keep a polytope slack
    matrix (and its transpose) a polytope slack matrix.

    D1 = diag(S y)^-1 and D2 = diag(S^T z)^-1 for random positive y, z: the
    all-ones vector stays in the column span of D1 S D2 (it equals
    D1 S D2 D2^-1 y) and of its transpose, and positive scalings never
    change the cone condition.  Every row and column of a slack matrix has a
    positive entry, so both diagonals are positive.
    """
    p, q = len(rows), len(rows[0])
    y = [_random_fraction(r, bits) for _ in range(q)]
    z = [_random_fraction(r, bits) for _ in range(p)]
    d1 = [1 / sum(s * w for s, w in zip(row, y)) for row in rows]
    cols = transpose(rows)
    d2 = [1 / sum(s * w for s, w in zip(col, z)) for col in cols]
    return [tuple(d1[i] * x * d2[j] for j, x in enumerate(row)) for i, row in enumerate(rows)]


# --- small random nonnegative matrices ----------------------------------------

def _entry(r, zero_share=0.35):
    if r.random() < zero_share:
        return F(0)
    return F(r.randint(1, 6), r.choice((1, 1, 2, 3)))


def nonneg_matrix(r, p, q):
    return [tuple(_entry(r) for _ in range(q)) for _ in range(p)]


def nonneg_product(r, p, q, k):
    """G H with G (p x k), H (k x q) nonnegative: often, not always, a cone
    slack matrix."""
    g = nonneg_matrix(r, p, k)
    h = nonneg_matrix(r, k, q)
    return [tuple(sum(g[i][t] * h[t][j] for t in range(k)) for j in range(q)) for i in range(p)]


def rank_one(r, p, q):
    u = [_entry(r, 0.2) for _ in range(p)]
    v = [_entry(r, 0.2) for _ in range(q)]
    return [tuple(a * b for b in v) for a in u]


def column_scaled(r, rows):
    """Slack matrix with random positive column scalings (stays a cone and a
    polytope slack matrix of the same polytope)."""
    scale = [F(r.randint(1, 5), r.randint(1, 5)) for _ in rows[0]]
    return [tuple(x * c for x, c in zip(row, scale)) for row in rows]


def rng(seed, stream):
    """Independent stream per workload part, so adding one part leaves the
    inputs of the others unchanged."""
    return random.Random("%s/%s" % (seed, stream))
