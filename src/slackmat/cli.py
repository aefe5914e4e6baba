"""Command-line front end.

One verdict per line on stdout, diagnostics on stderr.  Exit codes: 0 when
the queried property holds (or the polyhedra are equal), 1 when it fails,
2 for usage or input errors; verdicts never use 2 and malformed input never
uses 0/1.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import combinatorial, formats, recognition, verification
from .formats import Document, FormatError, document_for
from .matrix import Matrix, rank
from .polyhedra import (
    ConeRep,
    PolytopeRep,
    slack_of_cone,
    slack_of_polytope,
)
from .recognition import NoCertificate


class CliError(Exception):
    pass


def _load(path: str, kinds: tuple[str, ...]) -> Document:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise CliError("cannot read %s: %s" % (path, e))
    try:
        doc = formats.parse(text)
    except FormatError as e:
        raise CliError("%s: %s" % (path, e))
    if doc.kind not in kinds:
        raise CliError(
            "%s: expected %s document, got %s" % (path, "/".join(kinds), doc.kind)
        )
    return doc


def _write(*outputs) -> None:
    """Write a document per (path, payload) pair, each serialized before
    any file is opened: a document that cannot be written leaves no file."""
    texts, path = [], None
    try:
        for path, payload in outputs:
            texts.append((path, formats.serialize(document_for(payload))))
        for path, text in texts:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    except (OSError, ValueError) as e:  # ValueError: a number too long to print
        raise CliError("cannot write %s: %s" % (path, e))


def _emit(args, line: str) -> None:
    if not args.quiet:
        print(line)


def _save_certificate(args, cert, *outputs) -> None:
    """Write the certificate, when asked for, ahead of the other outputs."""
    if args.certificate:
        outputs = ((args.certificate, cert),) + outputs
    _write(*outputs)


def _cmd_check_cone(args) -> int:
    m: Matrix = _load(args.file, (formats.MATRIX,)).payload
    res = recognition.is_cone_slack(m)
    _save_certificate(args, res.certificate)
    if args.oracle:
        other = recognition.cone_check_via_polytope(m)
        if other != res.verdict:
            raise CliError("oracle disagreement on cone-slack verdict")
    if res.verdict:
        _emit(args, "CONE-SLACK yes rank=%d" % res.certificate.a.cols)
        return 0
    _emit(args, "CONE-SLACK no reason=%s" % res.certificate.reason)
    return 1


def _cmd_check_polytope(args) -> int:
    m: Matrix = _load(args.file, (formats.MATRIX,)).payload
    res = recognition.is_polytope_slack(m)
    _save_certificate(args, res.certificate)
    if args.oracle:
        if rank(m) >= 2:
            other = recognition.affine_criterion_check(m)
            if other != res.verdict:
                raise CliError("oracle disagreement on polytope-slack verdict")
    if res.verdict:
        rk = res.certificate.a.cols
        _emit(args, "POLYTOPE-SLACK yes rank=%d dim=%d" % (rk, rk - 1))
        return 0
    _emit(args, "POLYTOPE-SLACK no reason=%s" % res.certificate.reason)
    return 1


def _cmd_reconstruct(args) -> int:
    m: Matrix = _load(args.file, (formats.MATRIX,)).payload
    res = recognition.is_polytope_slack(m)
    if not res.verdict:
        _save_certificate(args, res.certificate)
        _emit(args, "POLYTOPE-SLACK no reason=%s" % res.certificate.reason)
        return 1
    v, h = res.certificate.polytope
    _save_certificate(args, res.certificate, (args.out_v, v), (args.out_h, h))
    _emit(
        args,
        "RECONSTRUCTED vertices=%d facets=%d dim=%d"
        % (len(v.vectors), len(h.vectors), v.ambient_dim),
    )
    return 0


def _cmd_slack(args) -> int:
    vdoc = _load(args.vrep, (formats.CONE_V, formats.POLY_V))
    hdoc = _load(args.hrep, (formats.CONE_H, formats.POLY_H))
    if vdoc.kind == formats.CONE_V:
        if hdoc.kind != formats.CONE_H:
            raise CliError("cone V-rep needs a cone H-rep")
        v: ConeRep = vdoc.payload
        h: ConeRep = hdoc.payload
        a = Matrix(v.vectors, cols=v.ambient_dim)
        b = Matrix(h.vectors, cols=h.ambient_dim).transpose()
        s = slack_of_cone(a, b)
    else:
        if hdoc.kind != formats.POLY_H:
            raise CliError("polytope V-rep needs a polytope H-rep")
        s = slack_of_polytope(vdoc.payload, hdoc.payload)
    sys.stdout.write(formats.serialize(document_for(s)))
    return 0


def _cmd_verify(args) -> int:
    q: PolytopeRep = _load(args.vrep, (formats.POLY_V,)).payload
    p: PolytopeRep = _load(args.hrep, (formats.POLY_H,)).payload
    res = verification.verify_polytope_equality(q, p)
    if res.witness is not None:
        _save_certificate(args, res.witness)
    if res.equal:
        _emit(args, "VERIFY equal")
        return 0
    _emit(args, "VERIFY not-equal reason=%s" % res.reason)
    return 1


def _cmd_incidence(args) -> int:
    m: Matrix = _load(args.file, (formats.MATRIX,)).payload
    inc = combinatorial.incidence_matrix(m)
    sys.stdout.write(formats.serialize(document_for(inc)))
    return 0


def _cmd_polygon_check(args) -> int:
    m: Matrix = _load(args.file, (formats.MATRIX,)).payload
    try:
        ok = combinatorial.polygon_slack_check(m)
    except ValueError as e:
        if str(e) != combinatorial.NOT_APPLICABLE:
            raise
        _emit(args, "POLYGON-SLACK not-applicable")
        return 1
    _emit(args, "POLYGON-SLACK yes" if ok else "POLYGON-SLACK no")
    return 0 if ok else 1


def _cmd_polar_realize(args) -> int:
    m: Matrix = _load(args.file, (formats.MATRIX,)).payload
    p, scale = recognition.polar_realization(m)
    if args.out_v:
        _write((args.out_v, p))
    _emit(
        args,
        "POLAR-REALIZED scale=%s vertices=%d dim=%d"
        % (scale, len(p.vectors), p.ambient_dim),
    )
    return 0


def _cmd_verify_cert(args) -> int:
    m: Matrix = _load(args.matrix, (formats.MATRIX,)).payload
    cert = _load(args.cert, (formats.CERT,)).payload
    if isinstance(cert, NoCertificate):
        ok = recognition.verify_no_certificate(m, cert)
    else:
        ok = recognition.verify_yes_certificate(m, cert)
    _emit(args, "CERT valid" if ok else "CERT invalid")
    return 0 if ok else 1


@functools.cache  # argparse setup costs more than a small recognition
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="slackmat",
        description="Recognize slack matrices of cones and polytopes, "
        "reconstruct realizations, and verify polyhedral descriptions.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        sp.add_argument("--quiet", action="store_true", help="suppress verdict line")
        return sp

    sp = add("check-cone", _cmd_check_cone, help="is FILE a cone slack matrix?")
    sp.add_argument("file")
    sp.add_argument("--certificate", metavar="FILE")
    sp.add_argument("--oracle", action="store_true",
                    help="cross-check against the polytope-route oracle")

    sp = add("check-polytope", _cmd_check_polytope,
             help="is FILE a polytope slack matrix?")
    sp.add_argument("file")
    sp.add_argument("--certificate", metavar="FILE")
    sp.add_argument("--oracle", action="store_true",
                    help="cross-check against the affine-hull criterion")

    sp = add("reconstruct", _cmd_reconstruct,
             help="realize a polytope from its slack matrix")
    sp.add_argument("file")
    sp.add_argument("--out-v", required=True, metavar="FILE")
    sp.add_argument("--out-h", required=True, metavar="FILE")
    sp.add_argument("--certificate", metavar="FILE")

    sp = add("slack", _cmd_slack, help="slack matrix of a (V, H) pair")
    sp.add_argument("--vrep", required=True, metavar="FILE")
    sp.add_argument("--hrep", required=True, metavar="FILE")

    sp = add("verify", _cmd_verify,
             help="does the H-polyhedron equal the V-polytope it contains?")
    sp.add_argument("--vrep", required=True, metavar="FILE")
    sp.add_argument("--hrep", required=True, metavar="FILE")
    sp.add_argument("--certificate", metavar="FILE")

    sp = add("incidence", _cmd_incidence, help="0/1 zero pattern of FILE")
    sp.add_argument("file")

    sp = add("polygon-check", _cmd_polygon_check,
             help="is FILE a vertex-facet slack matrix of a polygon?")
    sp.add_argument("file")

    sp = add("polar-realize", _cmd_polar_realize,
             help="realization with polar realizing the transpose")
    sp.add_argument("file")
    sp.add_argument("--out-v", metavar="FILE")

    sp = add("verify-cert", _cmd_verify_cert,
             help="check a certificate against a matrix")
    sp.add_argument("matrix")
    sp.add_argument("cert")

    return ap


def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (CliError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
