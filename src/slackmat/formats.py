"""Deterministic text formats for matrices, representations and certificates.

Every document is built from one block: a header ``LABEL count width`` and
then `count` rows of `width` rationals, or width + 1 for the inequality rows
of ``POLY_H`` and ``H``, which lead with beta.  MATRIX, CONE_V, CONE_H,
POLY_V and POLY_H documents are one block each; a CONE_V block may be
followed by ``LINEALITY k`` and k rows of the same width.  ``CERT YES`` is
followed by blocks ``A`` and ``B``, an optional ``MU`` row and an optional
``V`` and ``H`` pair; ``CERT NO reason convention`` by at most one
``WITNESS`` and one ``SEPARATOR`` row.  Rationals are written as ``a`` or
``a/b`` in ASCII digits, with an optional sign on ``a`` only.  Serialization
is canonical (reduced fractions, single spaces, LF, newline-terminated), so
files are diff-able and parse/serialize round-trips are exact.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .matrix import Matrix, Vec
from .polyhedra import ConeRep, PolytopeRep
from .recognition import NoCertificate, YesCertificate

MATRIX = "MATRIX"
CONE_V = "CONE_V"
CONE_H = "CONE_H"
POLY_V = "POLY_V"
POLY_H = "POLY_H"
CERT = "CERT"

KINDS = (MATRIX, CONE_V, CONE_H, POLY_V, POLY_H, CERT)
_ROW_NAMES = {MATRIX: "matrix", CONE_V: "cone", CONE_H: "cone",
              POLY_V: "points", POLY_H: "inequalities"}

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
    try:
        return " ".join(str(x) for x in row)  # Fraction prints reduced, "a" or "a/b"
    except ValueError:  # past the interpreter's limit on integer digits
        raise ValueError("a number has more than %d digits"
                         % sys.get_int_max_str_digits()) from None


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

    def read_block(self, toks: list[str], no: int, what: str) -> tuple[int, list[Vec]]:
        """Width and rows of the block whose header ``LABEL count width`` was
        read at line `no`; rows of inequalities carry beta, one more entry."""
        count, width = _counts(toks[1:], 2, no)
        return width, self.read_rows(count, width + (toks[0] in (POLY_H, "H")), what)

    def expect_block(self, label: str) -> tuple[int, list[Vec]]:
        line, no = self.next_line("%s header" % label)
        toks = line.split()
        if toks[0] != label:
            raise FormatError("expected %s block" % label, no)
        return self.read_block(toks, no, label)


def _counts(tokens: list[str], n: int, lineno: int) -> list[int]:
    if len(tokens) != n:
        raise FormatError("expected %d header numbers" % n, lineno)
    if not all(_COUNT.fullmatch(t) for t in tokens):
        raise FormatError("bad header number", lineno)
    try:
        return [int(t) for t in tokens]
    except ValueError:  # past the interpreter's limit on integer digits
        raise FormatError("bad header number", lineno)


def _block(label: str, rows: Sequence[Sequence[Fraction]], width: int) -> list[str]:
    return ["%s %d %d" % (label, len(rows), width)] + [_fmt_row(row) for row in rows]


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
    if kind == CERT:
        return Document(CERT, _parse_cert(r, toks, no))
    n, rows = r.read_block(toks, no, _ROW_NAMES[kind])
    if kind == MATRIX:
        return Document(MATRIX, Matrix(rows, cols=n))
    if kind in (POLY_V, POLY_H):
        return Document(kind, PolytopeRep(kind[-1], n, tuple(rows)))
    lineality: list[Vec] = []
    if kind == CONE_V and r.peek() and r.peek().split()[0] == "LINEALITY":
        line, no2 = r.next_line("lineality header")
        (k,) = _counts(line.split()[1:], 1, no2)
        lineality = r.read_rows(k, n, "lineality")
    return Document(kind, ConeRep(kind[-1], n, tuple(rows), tuple(lineality)))


def _parse_cert(r: _Reader, toks: list[str], no: int):
    if len(toks) < 2 or toks[1] not in ("YES", "NO"):
        raise FormatError("CERT needs YES or NO", no)
    if toks[1] == "NO":
        if len(toks) != 4:
            raise FormatError("CERT NO needs reason and convention", no)
        found: dict[str, Vec] = {}
        while r.peek() is not None:
            line, no2 = r.next_line("certificate row")
            label, *parts = line.split()
            values = tuple(_parse_rational(t, no2) for t in parts)
            if label not in ("WITNESS", "SEPARATOR"):
                raise FormatError("unknown certificate row %s" % _shown(label), no2)
            if label in found:
                raise FormatError("repeated %s row" % label, no2)
            found[label] = values
        return NoCertificate(toks[2], toks[3], found.get("WITNESS"), found.get("SEPARATOR"))
    if len(toks) != 2:
        raise FormatError("CERT YES takes no extra header fields", no)
    k, a_rows = r.expect_block("A")
    q, b_rows = r.expect_block("B")
    mu = polytope = None
    if r.peek() is not None and r.peek().split()[0] == "MU":
        line, no2 = r.next_line("MU row")
        mu = tuple(_parse_rational(t, no2) for t in line.split()[1:])
    if r.peek() is not None:
        n, v = r.expect_block("V")
        n2, h = r.expect_block("H")
        polytope = (PolytopeRep("V", n, tuple(v)), PolytopeRep("H", n2, tuple(h)))
    return YesCertificate(Matrix(a_rows, cols=k), Matrix(b_rows, cols=q), mu, polytope)


def serialize(doc: Document) -> str:
    kind, payload = doc.kind, doc.payload
    if kind == MATRIX:
        out = _block(MATRIX, payload.data, payload.cols)
    elif kind in (CONE_V, CONE_H, POLY_V, POLY_H):
        out = _block(kind, payload.vectors, payload.ambient_dim)
        if kind == CONE_V and payload.lineality:  # only V-form cones have one
            out.append("LINEALITY %d" % len(payload.lineality))
            out.extend(_fmt_row(v) for v in payload.lineality)
    elif kind == CERT and isinstance(payload, NoCertificate):
        out = ["CERT NO %s %s" % (payload.reason, payload.convention)]
        if payload.witness is not None:
            out.append("WITNESS " + _fmt_row(payload.witness))
        if payload.separator is not None:
            out.append("SEPARATOR " + _fmt_row(payload.separator))
    elif kind == CERT and isinstance(payload, YesCertificate):
        a, b = payload.a, payload.b
        out = ["CERT YES"] + _block("A", a.data, a.cols) + _block("B", b.data, b.cols)
        if payload.mu is not None:
            out.append("MU " + _fmt_row(payload.mu))
        for label, rep in zip("VH", payload.polytope or ()):
            out += _block(label, rep.vectors, rep.ambient_dim)
    elif kind == CERT:
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
