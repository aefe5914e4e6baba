"""Seeded random generators shared by the property and acceptance tests."""

import itertools
import random
from fractions import Fraction as F

from slackmat import Matrix, PolytopeRep, dimension
from slackmat.matrix import rank
from slackmat.polyhedra import facet_inequalities, slack_of_polytope


def rng(seed):
    return random.Random(seed)


def random_fraction(r, lo=-4, hi=4, denominators=(1, 1, 1, 2, 3)):
    return F(r.randint(lo, hi), r.choice(denominators))


def random_nonneg_matrix(r, max_rows=6, max_cols=6):
    """Small nonnegative rational matrix; zeros are common on purpose."""
    p = r.randint(1, max_rows)
    q = r.randint(1, max_cols)
    rows = []
    for _ in range(p):
        rows.append(tuple(
            F(0) if r.random() < 0.4 else random_fraction(r, 0, 4)
            for _ in range(q)
        ))
    return Matrix(rows, cols=q)


def random_slack_like_matrix(r, max_dim=3, max_pts=5):
    """Products G * H with G, H nonnegative, of inner dimension at most max_dim.

    Not always cone slack matrices: the columns can miss an extreme ray of
    the nonnegative part of their span.  About three draws in four are cone
    slack with the default sizes.
    """
    k = r.randint(1, max_dim)
    p = r.randint(1, max_pts)
    q = r.randint(1, max_pts)
    g = Matrix([
        tuple(F(0) if r.random() < 0.3 else random_fraction(r, 0, 3)
              for _ in range(k))
        for _ in range(p)
    ], cols=k)
    h = Matrix([
        tuple(F(0) if r.random() < 0.3 else random_fraction(r, 0, 3)
              for _ in range(q))
        for _ in range(k)
    ], cols=q)
    return g * h


def random_polytope(r, max_dim=4, max_vertices=8):
    """Full-dimensional polytope as a (V-rep, H-rep) pair.

    Samples candidate points until their affine hull fills the ambient
    space, then prunes to vertices and facets with the double description
    machinery (which the recognition tests exercise independently).
    """
    n = r.randint(1, max_dim)
    while True:
        count = r.randint(n + 1, max_vertices)
        pts = [tuple(random_fraction(r) for _ in range(n)) for _ in range(count)]
        diffs = [tuple(p[j] - pts[0][j] for j in range(n)) for p in pts[1:]]
        if rank(Matrix(diffs, cols=n) if diffs else Matrix.zero(1, n)) != n:
            continue
        v = PolytopeRep("V", n, tuple(dict.fromkeys(pts)))
        h = facet_inequalities(v)
        # prune non-vertices: keep points with a facet row of all-positive slack elsewhere
        s = slack_of_polytope(v, h)
        keep = []
        for i, p in enumerate(v.vectors):
            tight = [j for j in range(s.cols) if s.data[i][j] == 0]
            others = [k for k in range(len(v.vectors)) if k != i]
            # p is a vertex iff no other point set covers its tight facets;
            # equivalently the tight normals have rank n
            normals = Matrix([tuple(h.vectors[j][1:]) for j in tight] or [(0,) * n], cols=n)
            if rank(normals) == n:
                keep.append(p)
        v = PolytopeRep("V", n, tuple(keep))
        if dimension(v) == n:
            return v, h


def random_v_polytope_about_origin(r, max_dim=3, max_pts=6):
    """Points in R^n, n <= max_dim, on a coordinate hyperplane three times
    in ten (so lower-dimensional), shifted so that 0 is their
    centroid, a point, the midpoint of two points or left where it falls:
    0 lands inside, on the boundary and outside."""
    n, k = r.randint(1, max_dim), r.randint(1, max_pts)
    pts = [[random_fraction(r, -3, 3) for _ in range(n)] for _ in range(k)]
    if r.random() < 0.3:
        for pt in pts:
            pt[-1] = F(0)
    a, b = r.choice(pts), r.choice(pts)
    c = r.choice([
        [sum(col) / k for col in zip(*pts)],
        a,
        [(x + y) / 2 for x, y in zip(a, b)],
        [F(0)] * n,
    ])
    return PolytopeRep("V", n, tuple(tuple(x - y for x, y in zip(pt, c)) for pt in pts))


def random_lattice_polygon(r, min_vertices=3, max_vertices=9, box=6):
    """Convex lattice polygon in the plane with between 3 and 9 vertices."""
    from slackmat import minimal_vrep
    from slackmat.polyhedra import ConeRep

    while True:
        pts = {(r.randint(-box, box), r.randint(-box, box)) for _ in range(15)}
        pts = [(F(x), F(y)) for x, y in pts]
        if len(pts) < 3:
            continue
        diffs = [tuple(p[j] - pts[0][j] for j in range(2)) for p in pts[1:]]
        if rank(Matrix(diffs, cols=2)) != 2:
            continue
        # hull vertices via the homogenization trick
        cone = minimal_vrep(ConeRep("V", 3, tuple((F(1),) + p for p in pts)))
        verts = [tuple(x / ray[0] for x in ray[1:]) for ray in cone.vectors]
        if min_vertices <= len(verts) <= max_vertices:
            v = PolytopeRep("V", 2, tuple(verts))
            return v, facet_inequalities(v)


def centred_slack(v, h):
    """Slack matrix of (v, h) with every facet scaled to slack one at the
    vertex centroid: its rows average to the all-ones vector, so its
    transpose is a polytope slack matrix too."""
    n = v.ambient_dim
    c = [sum(p[j] for p in v.vectors) / len(v.vectors) for j in range(n)]
    rows = []
    for row in h.vectors:
        s = row[0] - sum(a * x for a, x in zip(row[1:], c))
        rows.append(tuple(x / s for x in row))
    return slack_of_polytope(v, PolytopeRep("H", n, tuple(rows)))


def projectively_scaled(r, m, bits=12):
    """D1 m D2 with D1 = diag(m y)^-1 and D2 = diag(m^T z)^-1 for random
    positive y, z: a polytope slack matrix and its transpose stay polytope
    slack matrices, with larger numerators.  Needs a positive entry in
    every row and column."""
    y = [F(r.randint(1, 2**bits), r.randint(1, 2**bits)) for _ in range(m.cols)]
    z = [F(r.randint(1, 2**bits), r.randint(1, 2**bits)) for _ in range(m.rows)]
    d1 = [1 / sum(x * w for x, w in zip(row, y)) for row in m.data]
    d2 = [1 / sum(x * w for x, w in zip(col, z)) for col in m.columns()]
    return Matrix([[d1[i] * x * d2[j] for j, x in enumerate(row)]
                   for i, row in enumerate(m.data)], cols=m.cols)


def recognition_inputs(r):
    """One round of recognition inputs: arbitrary, product and rank-one
    matrices, and a random polytope's slack matrix plain, centred,
    projectively scaled, facet-deleted and transposed.  Together they reach
    every verdict: YES, an unmatched ray, ones not in the span and rank
    below two."""
    v, h = random_polytope(r, max_dim=3, max_vertices=7)
    s = slack_of_polytope(v, h)
    u = [random_fraction(r, 0, 3) for _ in range(r.randint(1, 4))]
    w = [random_fraction(r, 0, 3) for _ in range(r.randint(1, 4))]
    j = r.randrange(s.cols)
    return [
        random_nonneg_matrix(r),
        random_slack_like_matrix(r),
        Matrix([[a * b for b in w] for a in u], cols=len(w)),
        s,
        centred_slack(v, h),
        projectively_scaled(r, s),
        s.submatrix(range(s.rows), [k for k in range(s.cols) if k != j]),
        s.transpose(),
    ]


def verification_inputs(r):
    """(V-polytope, H-polytope) pairs of one random polytope: equal, with a
    vertex deleted, and with a facet deleted."""
    v, h = random_polytope(r, max_dim=3, max_vertices=7)
    i, j = r.randrange(len(v.vectors)), r.randrange(len(h.vectors))
    n = v.ambient_dim
    fewer_v = PolytopeRep("V", n, v.vectors[:i] + v.vectors[i + 1:])
    fewer_h = PolytopeRep("H", n, h.vectors[:j] + h.vectors[j + 1:])
    return [(v, h), (fewer_v, h), (v, fewer_h)]


def embed(q, p):
    """Q and P in R^(n+1) at z = 0, with P stating z = 0 as z <= 0, -z <= 0."""
    n = q.ambient_dim
    q1 = PolytopeRep("V", n + 1, tuple(tuple(v) + (0,) for v in q.vectors))
    rows = tuple(tuple(h) + (0,) for h in p.vectors)
    z = (0,) * (n + 1)
    p1 = PolytopeRep("H", n + 1, rows + (z + (1,), z + (-1,)))
    return q1, p1


def on_facet(q, p, j):
    """The points of Q on the j-th inequality of P."""
    s = slack_of_polytope(q, p)
    return PolytopeRep("V", q.ambient_dim,
                       tuple(v for v, row in zip(q.vectors, s.data) if row[j] == 0))


def edge(q, p):
    """Two vertices of Q joined by an edge of P = conv(Q)."""
    s = slack_of_polytope(q, p)
    n = q.ambient_dim
    for i, k in itertools.combinations(range(len(q.vectors)), 2):
        tight = [p.vectors[j][1:] for j in range(s.cols)
                 if s.data[i][j] == 0 and s.data[k][j] == 0]
        if rank(Matrix(tight, cols=n)) == n - 1:
            return PolytopeRep("V", n, (q.vectors[i], q.vectors[k]))
    raise AssertionError("no edge found")


def verification_variants(r):
    """(V-polytope, H-polyhedron) pairs of one random polytope beyond
    `verification_inputs`: Q on one facet, in P and embedded in R^(n+1);
    Q one vertex, in P and in P cut down to it by equality pairs;
    P with a free direction; P's rows rescaled by random positive
    rationals, with a duplicate and a redundant row, against Q with a
    duplicate point, its centroid and an edge midpoint added, and with a
    vertex or a facet deleted."""
    v, h = random_polytope(r, max_dim=3, max_vertices=7)
    n, pts, rows = v.ambient_dim, v.vectors, h.vectors
    s = slack_of_polytope(v, h)
    i, j, k = (r.randrange(len(pts)), r.randrange(len(rows)),
               r.randrange(len(rows)))
    facet = on_facet(v, h, j)
    vertex = PolytopeRep("V", n, pts[i:i + 1])
    pinned = PolytopeRep("H", n, tuple(
        row for row, x in zip(rows, s.data[i]) if x == 0
        for row in (row, tuple(-y for y in row))))
    free = PolytopeRep("H", n + 1, tuple(row + (0,) for row in rows))
    scales = [F(r.randint(1, 9), r.randint(1, 9)) for _ in rows]
    scaled = tuple(tuple(c * y for y in row) for c, row in zip(scales, rows))
    messy_h = scaled + (scaled[k], (scaled[k][0] + 1,) + scaled[k][1:])
    a, b = edge(v, h).vectors
    extra = (tuple(sum(col) / len(pts) for col in zip(*pts)),
             tuple((x + y) / 2 for x, y in zip(a, b)), pts[i])
    return [
        (facet, h), embed(facet, h), (vertex, h), (vertex, pinned),
        (PolytopeRep("V", n + 1, tuple(x + (0,) for x in pts)), free),
        (PolytopeRep("V", n, pts + extra), PolytopeRep("H", n, messy_h)),
        (PolytopeRep("V", n, pts[:i] + pts[i + 1:]), PolytopeRep("H", n, messy_h)),
        (v, PolytopeRep("H", n, scaled[:j] + scaled[j + 1:])),
    ]


def verification_edge_cases(r):
    """(V-polytope, H-polyhedron) pairs at the edges of the rank of the
    slack matrix S: P with the rows 0.x <= 0 and 0.x <= 1 added; P a simplex
    with one facet deleted, so rank [beta -A] = n; P a box with one facet
    deleted, unbounded but with rank S = n + 1; P the facets through one
    vertex of Q.  Q is a polytope inside P, whole, less a point or on one
    of its own facets, at random."""
    v, h = random_polytope(r, max_dim=3, max_vertices=7)
    n = v.ambient_dim
    zero = (F(0),) * (n + 1)
    padded = h.vectors + (zero, (F(1),) + zero[1:])
    while True:
        simplex = PolytopeRep("V", n, tuple(
            tuple(random_fraction(r) for _ in range(n)) for _ in range(n + 1)))
        if dimension(simplex) == n:
            break
    facets = facet_inequalities(simplex).vectors
    lows = [random_fraction(r) for _ in range(n)]
    highs = [lo + F(r.randint(1, 4), r.choice((1, 2, 3))) for lo in lows]
    box = PolytopeRep("V", n, tuple(itertools.product(*zip(lows, highs))))
    walls = tuple((sign * b,) + tuple(F(sign * (k == i)) for k in range(n))
                  for i in range(n) for sign, b in ((1, highs[i]), (-1, lows[i])))
    s = slack_of_polytope(v, h)
    i = r.randrange(len(v.vectors))
    corner = tuple(row for row, x in zip(h.vectors, s.data[i]) if x == 0)

    def pair(q, q_facets, rows):
        q = r.choice([q, PolytopeRep("V", n, q.vectors[1:]),
                      on_facet(q, PolytopeRep("H", n, q_facets),
                               r.randrange(len(q_facets)))])
        return q, PolytopeRep("H", n, rows)

    j, k = r.randrange(n + 1), r.randrange(2 * n)
    return [pair(v, h.vectors, padded),
            pair(simplex, facets, facets[:j] + facets[j + 1:]),
            pair(box, walls, walls[:k] + walls[k + 1:]),
            pair(v, h.vectors, corner)]
