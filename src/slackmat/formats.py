"""Deterministic text formats for matrices, representations and certificates.

Header-first plain text: a kind line with dimensions, then whitespace
separated rows of rationals written as ``a`` or ``a/b`` in ASCII digits,
with an optional sign on ``a`` only.  Serialization is canonical (reduced
fractions, single spaces, LF, newline-terminated), so files are diff-able
and parse/serialize round-trips are exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .matrix import Matrix, Vec, vec
from .polyhedra import ConeRep, PolytopeRep
from .recognition import NoCertificate, YesCertificate

MATRIX = "MATRIX"
CONE_V = "CONE_V"
CONE_H = "CONE_H"
POLY_V = "POLY_V"
POLY_H = "POLY_H"
CERT = "CERT"

KINDS = (MATRIX, CONE_V, CONE_H, POLY_V, POLY_H, CERT)

# ASCII digits only: int() alone would also take "1_0" and non-ASCII digits.
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
_COUNT = re.compile(r"[0-9]+")


class FormatError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__("line %d: %s" % (line, message))
        self.line = line


@dataclass(frozen=True)
class Document:
    kind: str
    payload: object


def _fmt_row(row: Sequence[Fraction]) -> str:
    return " ".join(str(x) for x in row)  # Fraction prints reduced, "a" or "a/b"


def _shown(tok: str) -> str:
    """A token quoted for an error message, cut short when it is long."""
    return repr(tok) if len(tok) <= 40 else repr(tok[:40]) + "..."


def _parse_rational(tok: str, lineno: int) -> Fraction:
    m = _RATIONAL.fullmatch(tok)
    if m is None:
        raise FormatError("bad rational %s" % _shown(tok), lineno)
    try:
        n, d = int(m[1]), int(m[2] or 1)
    except ValueError:  # past the interpreter's limit on integer digits
        raise FormatError("bad rational %s" % _shown(tok), lineno)
    if d == 0:
        raise FormatError("zero denominator in %s" % _shown(tok), lineno)
    return Fraction(n, d)


class _Reader:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def next_line(self, what: str) -> tuple[str, int]:
        while self.pos < len(self.lines):
            raw = self.lines[self.pos]
            self.pos += 1
            if raw.strip():
                return raw.strip(), self.pos
        raise FormatError("unexpected end of input, wanted %s" % what,
                          len(self.lines) + 1)

    def peek(self) -> str | None:
        p = self.pos
        while p < len(self.lines):
            if self.lines[p].strip():
                return self.lines[p].strip()
            p += 1
        return None

    def read_rows(self, count: int, width: int, what: str) -> list[Vec]:
        if width == 0:  # empty rows serialize as blank lines, which are skipped
            if count > len(self.lines) - self.pos:
                raise FormatError("unexpected end of input, wanted %d empty %s rows"
                                  % (count, what), len(self.lines) + 1)
            return [()] * count
        rows = []
        for _ in range(count):
            line, no = self.next_line(what)
            toks = line.split()
            if len(toks) != width:
                raise FormatError(
                    "%s row has %d entries, expected %d" % (what, len(toks), width),
                    no,
                )
            rows.append(tuple(_parse_rational(t, no) for t in toks))
        return rows


def _counts(tokens: list[str], n: int, lineno: int) -> list[int]:
    if len(tokens) != n:
        raise FormatError("expected %d header numbers" % n, lineno)
    if not all(_COUNT.fullmatch(t) for t in tokens):
        raise FormatError("bad header number", lineno)
    try:
        return [int(t) for t in tokens]
    except ValueError:  # past the interpreter's limit on integer digits
        raise FormatError("bad header number", lineno)


def parse(text: str) -> Document:
    r = _Reader(text)
    doc = _parse_document(r)
    if r.peek() is not None:
        _, no = r.next_line("trailing data")
        raise FormatError("unexpected data after the %s document" % doc.kind, no)
    return doc


def _parse_document(r: _Reader) -> Document:
    header, no = r.next_line("header")
    toks = header.split()
    kind = toks[0]
    if kind not in KINDS:
        raise FormatError("unknown document kind %s" % _shown(kind), no)
    if kind == MATRIX:
        p, q = _counts(toks[1:], 2, no)
        rows = r.read_rows(p, q, "matrix")
        return Document(MATRIX, Matrix(rows, cols=q))
    if kind in (CONE_V, CONE_H):
        count, n = _counts(toks[1:], 2, no)
        rows = r.read_rows(count, n, "cone")
        lineality: list[Vec] = []
        if kind == CONE_V and r.peek() and r.peek().split()[0] == "LINEALITY":
            line, no2 = r.next_line("lineality header")
            (k,) = _counts(line.split()[1:], 1, no2)
            lineality = r.read_rows(k, n, "lineality")
        form = "V" if kind == CONE_V else "H"
        return Document(kind, ConeRep(form, n, tuple(rows), tuple(lineality)))
    if kind == POLY_V:
        count, n = _counts(toks[1:], 2, no)
        rows = r.read_rows(count, n, "points")
        return Document(POLY_V, PolytopeRep("V", n, tuple(rows)))
    if kind == POLY_H:
        count, n = _counts(toks[1:], 2, no)
        rows = r.read_rows(count, n + 1, "inequalities")
        return Document(POLY_H, PolytopeRep("H", n, tuple(rows)))
    return Document(CERT, _parse_cert(r, toks, no))


def _parse_cert(r: _Reader, toks: list[str], no: int):
    if len(toks) < 2 or toks[1] not in ("YES", "NO"):
        raise FormatError("CERT needs YES or NO", no)
    if toks[1] == "NO":
        if len(toks) != 4:
            raise FormatError("CERT NO needs reason and convention", no)
        reason, convention = toks[2], toks[3]
        witness = separator = None
        while r.peek() is not None:
            line, no2 = r.next_line("certificate row")
            parts = line.split()
            label = parts[0]
            values = tuple(_parse_rational(t, no2) for t in parts[1:])
            if label == "WITNESS":
                witness = values
            elif label == "SEPARATOR":
                separator = values
            else:
                raise FormatError("unknown certificate row %s" % _shown(label), no2)
        return NoCertificate(reason, convention, witness, separator)
    if len(toks) != 2:
        raise FormatError("CERT YES takes no extra header fields", no)
    line, no2 = r.next_line("A header")
    a_toks = line.split()
    if a_toks[0] != "A":
        raise FormatError("expected A block", no2)
    p, k = _counts(a_toks[1:], 2, no2)
    a = Matrix(r.read_rows(p, k, "A"), cols=k)
    line, no3 = r.next_line("B header")
    b_toks = line.split()
    if b_toks[0] != "B":
        raise FormatError("expected B block", no3)
    k2, q = _counts(b_toks[1:], 2, no3)
    b = Matrix(r.read_rows(k2, q, "B"), cols=q)
    mu = None
    polytope = None
    if r.peek() is not None and r.peek().split()[0] == "MU":
        line, no4 = r.next_line("MU row")
        parts = line.split()
        mu = tuple(_parse_rational(t, no4) for t in parts[1:])
    if r.peek() is not None:
        line, no5 = r.next_line("V header")
        v_toks = line.split()
        if v_toks[0] != "V":
            raise FormatError("expected V block", no5)
        pcount, n = _counts(v_toks[1:], 2, no5)
        v = PolytopeRep("V", n, tuple(r.read_rows(pcount, n, "V")))
        line, no6 = r.next_line("H header")
        h_toks = line.split()
        if h_toks[0] != "H":
            raise FormatError("expected H block", no6)
        hcount, n2 = _counts(h_toks[1:], 2, no6)
        h = PolytopeRep("H", n2, tuple(r.read_rows(hcount, n2 + 1, "H")))
        polytope = (v, h)
    return YesCertificate(a=a, b=b, mu=mu, polytope=polytope)


def serialize(doc: Document) -> str:
    kind, payload = doc.kind, doc.payload
    out: list[str] = []
    if kind == MATRIX:
        m: Matrix = payload
        out.append("MATRIX %d %d" % (m.rows, m.cols))
        out.extend(_fmt_row(row) for row in m.data)
    elif kind in (CONE_V, CONE_H):
        c: ConeRep = payload
        out.append("%s %d %d" % (kind, len(c.vectors), c.ambient_dim))
        out.extend(_fmt_row(v) for v in c.vectors)
        if c.lineality:
            out.append("LINEALITY %d" % len(c.lineality))
            out.extend(_fmt_row(v) for v in c.lineality)
    elif kind == POLY_V:
        pv: PolytopeRep = payload
        out.append("POLY_V %d %d" % (len(pv.vectors), pv.ambient_dim))
        out.extend(_fmt_row(v) for v in pv.vectors)
    elif kind == POLY_H:
        ph: PolytopeRep = payload
        out.append("POLY_H %d %d" % (len(ph.vectors), ph.ambient_dim))
        out.extend(_fmt_row(v) for v in ph.vectors)
    elif kind == CERT:
        if isinstance(payload, NoCertificate):
            out.append("CERT NO %s %s" % (payload.reason, payload.convention))
            if payload.witness is not None:
                out.append("WITNESS " + _fmt_row(payload.witness))
            if payload.separator is not None:
                out.append("SEPARATOR " + _fmt_row(payload.separator))
        elif isinstance(payload, YesCertificate):
            out.append("CERT YES")
            out.append("A %d %d" % (payload.a.rows, payload.a.cols))
            out.extend(_fmt_row(row) for row in payload.a.data)
            out.append("B %d %d" % (payload.b.rows, payload.b.cols))
            out.extend(_fmt_row(row) for row in payload.b.data)
            if payload.mu is not None:
                out.append("MU " + _fmt_row(payload.mu))
            if payload.polytope is not None:
                v, h = payload.polytope
                out.append("V %d %d" % (len(v.vectors), v.ambient_dim))
                out.extend(_fmt_row(row) for row in v.vectors)
                out.append("H %d %d" % (len(h.vectors), h.ambient_dim))
                out.extend(_fmt_row(row) for row in h.vectors)
        else:
            raise ValueError("not a certificate payload")
    else:
        raise ValueError("unknown document kind %r" % kind)
    return "\n".join(out) + "\n"


def document_for(obj) -> Document:
    """Wrap a library value in the matching Document kind."""
    if isinstance(obj, Matrix):
        return Document(MATRIX, obj)
    if isinstance(obj, ConeRep):
        return Document(CONE_V if obj.form == "V" else CONE_H, obj)
    if isinstance(obj, PolytopeRep):
        return Document(POLY_V if obj.form == "V" else POLY_H, obj)
    if isinstance(obj, (NoCertificate, YesCertificate)):
        return Document(CERT, obj)
    raise TypeError("no document kind for %r" % type(obj))
