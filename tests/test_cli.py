import io
import itertools
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from slackmat import ConeRep, Matrix, PolytopeRep
from slackmat.matrix import rank, rank_factorization
from slackmat.recognition import (
    YesCertificate,
    affine_criterion_check,
    cone_check_via_polytope,
)
from slackmat.cli import build_parser, run
from slackmat.formats import document_for, parse, serialize

from randgen import projectively_scaled
from golden import (
    COUNTEREXAMPLE,
    PRISM,
    PRISM_FACETS,
    PRISM_SCALED,
    PRISM_VERTICES,
    SQUARE_4GON,
    SQUARE_FACETS,
    SQUARE_VERTICES,
)


def write_doc(path, payload):
    path.write_text(serialize(document_for(payload)))
    return str(path)


@pytest.fixture
def prism_file(tmp_path):
    return write_doc(tmp_path / "prism.matrix", PRISM)


class TestCheckCommands:
    def test_check_polytope_prism(self, prism_file, capsys):
        assert run(["check-polytope", prism_file]) == 0
        assert capsys.readouterr().out.strip() == "POLYTOPE-SLACK yes rank=4 dim=3"

    def test_check_polytope_oracle_agrees(self, prism_file):
        assert run(["check-polytope", prism_file, "--oracle"]) == 0

    def test_check_cone_oracle_agrees(self, prism_file, tmp_path, capsys):
        assert run(["check-cone", prism_file, "--oracle"]) == 0
        f = write_doc(tmp_path / "c.matrix", COUNTEREXAMPLE)
        assert run(["check-cone", f, "--oracle"]) == 1
        assert capsys.readouterr().err == ""

    def test_check_cone_counterexample(self, tmp_path, capsys):
        f = write_doc(tmp_path / "c.matrix", COUNTEREXAMPLE)
        cert = tmp_path / "c.cert"
        assert run(["check-cone", f, "--certificate", str(cert)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("CONE-SLACK no")
        assert run(["verify-cert", f, str(cert)]) == 0

    def test_row_convention_certificate_verifies(self, tmp_path, capsys):
        # The 3-cube less one facet: 5 columns of B against 8 rows of A, so
        # the refuting ray comes from B's side, in the row convention.
        m = Matrix([v[1:] + tuple(1 - x for x in v)
                    for v in itertools.product((0, 1), repeat=3)], cols=5)
        f = write_doc(tmp_path / "c.matrix", m)
        cert = tmp_path / "c.cert"
        assert run(["check-cone", f, "--quiet", "--certificate", str(cert)]) == 1
        assert cert.read_text().startswith("CERT NO unmatched_ray row\n")
        assert run(["verify-cert", f, str(cert)]) == 0
        assert capsys.readouterr().out == "CERT valid\n"

    def test_zero_matrix_certificate_verifies(self, tmp_path, capsys):
        f = write_doc(tmp_path / "z.matrix", Matrix.zero(2, 3))
        cert = tmp_path / "z.cert"
        assert run(["check-cone", f, "--quiet", "--certificate", str(cert)]) == 0
        assert run(["verify-cert", f, str(cert)]) == 0
        assert capsys.readouterr().out.strip() == "CERT valid"

    def test_oversized_zero_width_header_is_input_error(self, tmp_path, capsys):
        f = tmp_path / "huge.matrix"
        f.write_text("MATRIX 1000000000 0\n")
        assert run(["check-cone", str(f)]) == 2
        assert "end of input" in capsys.readouterr().err

    def test_rows_past_header_count_are_input_error(self, tmp_path, capsys):
        f = tmp_path / "long.matrix"
        f.write_text("MATRIX 1 2\n1 2\n3 4\n")
        assert run(["check-cone", str(f)]) == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["MATRIX 1 2\n1_0 \u0663\n", "MATRIX 1_0 1\n" + "1\n" * 10])
    def test_non_ascii_numbers_are_input_error(self, tmp_path, capsys, text):
        f = tmp_path / "odd.matrix"
        f.write_text(text, encoding="utf-8")
        assert run(["check-cone", str(f)]) == 2
        assert "bad " in capsys.readouterr().err

    def test_bad_block_label_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cone"
        path.write_text("CONE_V 1 2\n0 1\nLINEALITYX 1\n1 0\n")
        assert run(["check-cone", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_huge_numeral_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "huge.matrix"
        path.write_text("MATRIX 1 1\n%s\n" % ("7" * 5000))
        assert run(["check-cone", str(path)]) == 2
        err = capsys.readouterr().err
        assert "bad rational" in err and len(err) < 80 + len(str(path))

    def test_numeral_past_int_digit_limit_is_one_error_line(self, tmp_path):
        path = tmp_path / "long.matrix"
        path.write_text("MATRIX 1 2\n1 %s\n" % ("3" * 4301))
        code, out, err = _run(["check-polytope", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.count("error:") == 1

    def test_check_cone_transpose_of_prism(self, tmp_path):
        f = write_doc(tmp_path / "mt.matrix", PRISM.transpose())
        assert run(["check-cone", f, "--quiet"]) == 0
        assert run(["check-polytope", f, "--quiet"]) == 1

    def test_bad_file_is_usage_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.matrix")
        assert run(["check-cone", missing]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_document_is_usage_error(self, tmp_path, capsys):
        f = tmp_path / "bad.matrix"
        f.write_text("MATRIX 1 1\n1/0\n")
        assert run(["check-cone", str(f)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_wrong_kind_is_usage_error(self, tmp_path):
        f = write_doc(tmp_path / "v.ext", PRISM_VERTICES)
        assert run(["check-cone", str(f)]) == 2


NEGATIVE_3X3 = Matrix([[0, 1, 1], [1, 0, -1], [1, 1, 0]])


class TestWriteErrors:
    """A document with a number past the interpreter's limit on integer
    digits is not written: one error line, exit 2, and no file at all."""

    @pytest.fixture(scope="class")
    def big_file(self, tmp_path_factory):
        # The 3-cube's slack matrix, centred so that the polar exists, then
        # projectively scaled with 1500-bit factors: its own entries stay
        # under 4300 digits, those of B, H and the polar's points do not.
        cube = Matrix([[2 * x for x in v + tuple(1 - y for y in v)]
                       for v in itertools.product((0, 1), repeat=3)], cols=6)
        m = projectively_scaled(random.Random(3), cube, bits=1500)
        return write_doc(tmp_path_factory.mktemp("big") / "big.matrix", m)

    @pytest.mark.parametrize("args, failing", [
        (["check-polytope", "--certificate", "c.cert"], "c.cert"),
        (["reconstruct", "--certificate", "c.cert",
          "--out-v", "p.v", "--out-h", "p.h"], "c.cert"),
        (["reconstruct", "--out-v", "p.v", "--out-h", "p.h"], "p.h"),
        (["polar-realize", "--out-v", "p.v"], "p.v"),
    ], ids=["check-polytope", "reconstruct-certificate", "reconstruct",
            "polar-realize"])
    def test_no_partial_files(self, big_file, tmp_path, capsys, args, failing):
        argv = [args[0], big_file] + [
            str(tmp_path / a) if a.startswith(("c.", "p.")) else a
            for a in args[1:]]
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: cannot write %s: a number has more than "
                       "4300 digits\n" % (tmp_path / failing))
        assert list(tmp_path.iterdir()) == []


class TestInputErrors:
    @pytest.mark.parametrize("command, inputs, message", [
        ("slack", {"--vrep": ConeRep("V", 1, ((1,),)), "--hrep": ConeRep("H", 1, ((-1,),))},
         "not a representation pair: negative slack entry"),
        ("slack", {"--vrep": ConeRep("V", 2, ((1, 0),)), "--hrep": SQUARE_FACETS},
         "cone V-rep needs a cone H-rep"),
        ("slack", {"--vrep": SQUARE_VERTICES, "--hrep": ConeRep("H", 2, ((1, 0),))},
         "polytope V-rep needs a polytope H-rep"),
        ("verify", {"--vrep": PolytopeRep("V", 2, ((2, 0),)), "--hrep": SQUARE_FACETS},
         "points are not contained in the H-polytope"),
        ("verify", {"--vrep": PolytopeRep("V", 2, ()), "--hrep": SQUARE_FACETS},
         "empty V-polytope"),
        ("verify", {"--vrep": PolytopeRep("V", 2, ()), "--hrep": PolytopeRep("H", 2, ())},
         "empty V-polytope"),
        ("verify", {"--vrep": PolytopeRep("V", 3, ((0, 0, 0),)), "--hrep": SQUARE_FACETS},
         "ambient dimension mismatch"),
        ("incidence", {None: NEGATIVE_3X3}, "matrix has a negative entry"),
        ("polygon-check", {None: NEGATIVE_3X3}, "matrix has a negative entry"),
        ("polar-realize", {None: PRISM}, "transpose is not a polytope slack matrix"),
    ], ids=["slack", "slack-cone-v-poly-h", "slack-poly-v-cone-h", "verify",
            "verify-empty-q", "verify-empty-q-unpointed-p", "verify-dimensions",
            "incidence", "polygon-check", "polar-realize"])
    def test_library_error_is_one_error_line(self, tmp_path, capsys, command, inputs, message):
        argv = [command]
        for i, (flag, payload) in enumerate(inputs.items()):
            argv += [flag] if flag else []
            argv.append(write_doc(tmp_path / ("in%d" % i), payload))
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: %s\n" % message)


class TestParserReuse:
    def test_one_parser_serves_many_runs(self, prism_file, capsys):
        assert build_parser() is build_parser()
        assert run(["check-polytope", "--quiet", prism_file]) == 0
        assert capsys.readouterr().out == ""
        assert run(["check-polytope", prism_file]) == 0
        assert capsys.readouterr().out == "POLYTOPE-SLACK yes rank=4 dim=3\n"
        assert run(["check-polytope", "--no-such-flag", prism_file]) == 2
        assert "usage:" in capsys.readouterr().err
        assert run(["check-cone", prism_file]) == 0
        assert capsys.readouterr().out == "CONE-SLACK yes rank=4\n"


class TestReconstructAndSlack:
    def test_round_trip_through_files(self, prism_file, tmp_path, capsys):
        out_v = tmp_path / "prism.ext"
        out_h = tmp_path / "prism.ine"
        assert run([
            "reconstruct", prism_file,
            "--out-v", str(out_v), "--out-h", str(out_h),
        ]) == 0
        assert "RECONSTRUCTED vertices=6 facets=5 dim=3" in capsys.readouterr().out
        assert run(["slack", "--vrep", str(out_v), "--hrep", str(out_h)]) == 0
        m = parse(capsys.readouterr().out).payload
        assert m == PRISM

    def test_reconstruct_rejects_non_slack(self, tmp_path, capsys):
        f = write_doc(tmp_path / "c.matrix", COUNTEREXAMPLE)
        assert run([
            "reconstruct", f,
            "--out-v", str(tmp_path / "v"), "--out-h", str(tmp_path / "h"),
        ]) == 1
        assert "POLYTOPE-SLACK no" in capsys.readouterr().out

    def test_slack_of_given_pair(self, tmp_path, capsys):
        fv = write_doc(tmp_path / "p.ext", PRISM_VERTICES)
        fh = write_doc(tmp_path / "p.ine", PRISM_FACETS)
        assert run(["slack", "--vrep", fv, "--hrep", fh]) == 0
        assert parse(capsys.readouterr().out).payload == PRISM_SCALED


class TestVerify:
    def test_equal(self, tmp_path, capsys):
        fv = write_doc(tmp_path / "s.ext", SQUARE_VERTICES)
        fh = write_doc(tmp_path / "s.ine", SQUARE_FACETS)
        assert run(["verify", "--vrep", fv, "--hrep", fh]) == 0
        assert capsys.readouterr().out.strip() == "VERIFY equal"

    def test_single_point_equal(self, tmp_path, capsys):
        fv = write_doc(tmp_path / "p.ext", PolytopeRep("V", 1, ((0,),)))
        fh = write_doc(tmp_path / "p.ine",
                       PolytopeRep("H", 1, ((0, 1), (0, -1))))
        assert run(["verify", "--vrep", fv, "--hrep", fh]) == 0
        assert capsys.readouterr().out.strip() == "VERIFY equal"

    @pytest.mark.parametrize("q, p, code, out", [
        (PolytopeRep("V", 2, ((0, 0),)), PolytopeRep("H", 2, ()), 1,
         "VERIFY not-equal reason=not_pointed"),
        (PolytopeRep("V", 0, ((),)), PolytopeRep("H", 0, ()), 0, "VERIFY equal"),
    ], ids=["no-rows-R2", "point-R0"])
    def test_no_inequalities(self, tmp_path, capsys, q, p, code, out):
        fv = write_doc(tmp_path / "q.ext", q)
        fh = write_doc(tmp_path / "p.ine", p)
        assert run(["verify", "--vrep", fv, "--hrep", fh]) == code
        assert capsys.readouterr().out == out + "\n"

    def test_missing_vertex(self, tmp_path, capsys):
        from slackmat import PolytopeRep

        q = PolytopeRep("V", 2, SQUARE_VERTICES.vectors[:3])
        fv = write_doc(tmp_path / "s3.ext", q)
        fh = write_doc(tmp_path / "s.ine", SQUARE_FACETS)
        assert run(["verify", "--vrep", fv, "--hrep", fh]) == 1
        assert "not-equal" in capsys.readouterr().out

    def test_slack_reject_certificate_verifies(self, tmp_path, capsys):
        fv = write_doc(tmp_path / "s3.ext",
                       PolytopeRep("V", 2, SQUARE_VERTICES.vectors[:3]))
        fh = write_doc(tmp_path / "s.ine", SQUARE_FACETS)
        cert = tmp_path / "s.cert"
        assert run(["verify", "--vrep", fv, "--hrep", fh,
                    "--certificate", str(cert)]) == 1
        assert capsys.readouterr().out == "VERIFY not-equal reason=slack_reject\n"
        assert cert.read_text().startswith("CERT NO ")
        assert run(["slack", "--vrep", fv, "--hrep", fh]) == 0
        m = tmp_path / "s.matrix"
        m.write_text(capsys.readouterr().out)
        assert run(["verify-cert", str(m), str(cert)]) == 0
        assert capsys.readouterr().out == "CERT valid\n"

    def test_equal_pair_writes_no_certificate(self, tmp_path, capsys):
        fv = write_doc(tmp_path / "s.ext", SQUARE_VERTICES)
        fh = write_doc(tmp_path / "s.ine", SQUARE_FACETS)
        cert = tmp_path / "s.cert"
        assert run(["verify", "--vrep", fv, "--hrep", fh,
                    "--certificate", str(cert)]) == 0
        assert capsys.readouterr().out == "VERIFY equal\n"
        assert not cert.exists()

    def test_point_past_header_count_is_input_error(self, tmp_path, capsys):
        # The fourth vertex would make the pair equal if it were read.
        fv = tmp_path / "s.ext"
        fv.write_text(serialize(document_for(SQUARE_VERTICES))
                      .replace("POLY_V 4 2", "POLY_V 3 2"))
        fh = write_doc(tmp_path / "s.ine", SQUARE_FACETS)
        assert run(["verify", "--vrep", str(fv), "--hrep", fh]) == 2
        assert "error:" in capsys.readouterr().err


class TestOtherCommands:
    def test_incidence(self, prism_file, capsys):
        assert run(["incidence", prism_file]) == 0
        m = parse(capsys.readouterr().out).payload
        assert m.data[0] == tuple(map(int, (0, 0, 1, 1, 1)))

    def test_polygon_check(self, tmp_path, capsys):
        f = write_doc(tmp_path / "sq.matrix", SQUARE_4GON)
        assert run(["polygon-check", f]) == 0
        assert capsys.readouterr().out.strip() == "POLYGON-SLACK yes"

    def test_polygon_check_not_applicable(self, prism_file, capsys):
        assert run(["polygon-check", prism_file]) == 1
        assert capsys.readouterr().out.strip() == "POLYGON-SLACK not-applicable"

    def test_polygon_check_negative(self, tmp_path, capsys):
        f = write_doc(tmp_path / "id.matrix", Matrix.identity(4))
        assert run(["polygon-check", f]) == 1
        assert capsys.readouterr().out.strip() == "POLYGON-SLACK no"

    def test_polar_realize(self, tmp_path, capsys):
        f = write_doc(tmp_path / "mp.matrix", PRISM_SCALED)
        out_v = tmp_path / "polar.ext"
        assert run(["polar-realize", f, "--out-v", str(out_v)]) == 0
        assert "POLAR-REALIZED" in capsys.readouterr().out
        assert parse(out_v.read_text()).payload.form == "V"

    def test_polar_realize_hypothesis_failure(self, prism_file, capsys):
        assert run(["polar-realize", prism_file]) == 2
        assert "error:" in capsys.readouterr().err

    def test_verify_cert_yes(self, prism_file, tmp_path):
        cert = tmp_path / "p.cert"
        assert run(["check-polytope", prism_file, "--quiet",
                    "--certificate", str(cert)]) == 0
        assert run(["verify-cert", prism_file, str(cert)]) == 0

    def test_verify_cert_yes_mismatched_shapes(self, tmp_path, capsys):
        f = write_doc(tmp_path / "id.matrix", Matrix.identity(2))
        cert = tmp_path / "bad.cert"
        cert.write_text("CERT YES\nA 2 3\n1 0 0\n0 1 0\nB 2 2\n1 0\n0 1\n")
        assert run(["verify-cert", f, str(cert)]) == 1
        assert capsys.readouterr().out.strip() == "CERT invalid"

    def test_verify_cert_no_with_unknown_convention(self, tmp_path, capsys):
        f = write_doc(tmp_path / "c.matrix", COUNTEREXAMPLE)
        cert = tmp_path / "c.cert"
        assert run(["check-cone", f, "--quiet", "--certificate", str(cert)]) == 1
        text = cert.read_text()
        assert text.startswith("CERT NO unmatched_ray column\n")
        cert.write_text(text.replace(" column\n", " diagonal\n", 1))
        assert run(["verify-cert", f, str(cert)]) == 1
        assert capsys.readouterr().out.strip() == "CERT invalid"

    @pytest.mark.parametrize("row", ["WITNESS", "SEPARATOR"])
    @pytest.mark.parametrize("change", ["short", "long"])
    def test_verify_cert_no_with_wrong_length_row(self, tmp_path, capsys,
                                                  row, change):
        f = write_doc(tmp_path / "c.matrix", COUNTEREXAMPLE)
        cert = tmp_path / "c.cert"
        assert run(["check-cone", f, "--quiet", "--certificate", str(cert)]) == 1
        lines = cert.read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith(row + " "))
        tokens = lines[i].split()
        lines[i] = " ".join(tokens[:-1] if change == "short" else tokens + ["0"])
        cert.write_text("\n".join(lines) + "\n")
        assert run(["verify-cert", f, str(cert)]) == 1
        assert capsys.readouterr().out.strip() == "CERT invalid"

    @pytest.mark.parametrize("mu_row", ["MU 1", "MU", "MU 1 0 0"])
    def test_verify_cert_yes_checks_mu(self, tmp_path, capsys, mu_row):
        f = write_doc(tmp_path / "id.matrix", Matrix.identity(2))
        cert = tmp_path / "id.cert"
        cert.write_text("CERT YES\nA 2 2\n1 0\n0 1\nB 2 2\n1 0\n0 1\n%s\n" % mu_row)
        assert run(["verify-cert", f, str(cert)]) == 1
        assert capsys.readouterr().out.strip() == "CERT invalid"
        cert.write_text("CERT YES\nA 2 2\n1 0\n0 1\nB 2 2\n1 0\n0 1\nMU 1 1\n")
        assert run(["verify-cert", f, str(cert)]) == 0

    def test_verify_cert_yes_checks_realization(self, prism_file, tmp_path, capsys):
        cert = tmp_path / "p.cert"
        assert run(["check-polytope", prism_file, "--quiet",
                    "--certificate", str(cert)]) == 0
        lines = cert.read_text().splitlines()
        v = next(i for i, line in enumerate(lines) if line.startswith("V "))
        for altered in ("0 0 0", lines[v + 2], "9 9 9"):  # inside, duplicate, outside
            changed = lines[: v + 1] + [altered] + lines[v + 2:]
            cert.write_text("\n".join(changed) + "\n")
            assert run(["verify-cert", prism_file, str(cert)]) == 1
            assert capsys.readouterr().out.strip() == "CERT invalid"

    def test_verify_cert_yes_rejects_negative_matrix(self, tmp_path, capsys):
        f = write_doc(tmp_path / "neg.matrix", Matrix([[-1, 2]]))
        assert run(["check-cone", f]) == 2
        capsys.readouterr()
        cert = tmp_path / "neg.cert"
        cert.write_text("CERT YES\nA 1 1\n1\nB 1 2\n-1 2\n")
        assert run(["verify-cert", f, str(cert)]) == 1
        assert capsys.readouterr().out.strip() == "CERT invalid"

    def test_verify_cert_rejects_forged_yes(self, tmp_path, capsys):
        f = write_doc(tmp_path / "c.matrix", COUNTEREXAMPLE)
        a, b = rank_factorization(COUNTEREXAMPLE)
        cert = write_doc(tmp_path / "forged.cert", YesCertificate(a=a, b=b))
        assert Path(cert).read_text().startswith("CERT YES\n")
        assert run(["verify-cert", f, cert]) == 1
        assert capsys.readouterr().out.strip() == "CERT invalid"

    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 2


@st.composite
def small_matrices(draw):
    """Nonnegative matrices up to 4 x 4, empty ones included: arbitrary,
    all-zero, rank one, or with a column repeated or zeroed."""
    p, q = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    entry = st.sampled_from([F(0), F(0), F(1), F(2), F(1, 2), F(3, 2)])
    kind = draw(st.sampled_from(["random", "zero", "rank-one", "column"]))
    if kind == "rank-one":
        u = draw(st.lists(entry, min_size=p, max_size=p))
        v = draw(st.lists(entry, min_size=q, max_size=q))
        rows = [[a * b for b in v] for a in u]
    else:
        rows = [draw(st.lists(entry, min_size=q, max_size=q)) for _ in range(p)]
        if kind == "zero":
            rows = [[F(0)] * q for _ in range(p)]
        elif kind == "column" and q >= 2:
            i, j = draw(st.permutations(range(q)))[:2]
            zero = draw(st.booleans())
            for row in rows:
                row[j] = F(0) if zero else row[i]
    return Matrix(rows, cols=q)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


class TestExitContract:
    """On any small nonnegative matrix every command exits 0, 1 or 2, with
    exactly one `error:` line on exit 2; the check verdicts agree with the
    independent routes, and verify-cert accepts every certificate the
    program writes."""

    @given(small_matrices())
    @example(Matrix([], cols=3))
    @example(Matrix([[], []], cols=0))
    @example(Matrix([[F(2)]], cols=1))
    @example(Matrix.zero(3, 2))
    @example(Matrix([[1, 2], [2, 4], [0, 0]], cols=2))
    @example(Matrix([[1, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, 0]], cols=4))
    @settings(max_examples=150, deadline=None)
    def test_exit_codes_and_verdicts(self, m):
        with tempfile.TemporaryDirectory() as d:
            path = write_doc(Path(d, "m.matrix"), m)
            out = {name: str(Path(d, name))
                   for name in ("cone.cert", "poly.cert", "rec.cert", "v", "h", "pv")}
            codes = {}
            for name, argv in (
                ("check-cone", ["check-cone", path, "--certificate", out["cone.cert"]]),
                ("check-polytope", ["check-polytope", path,
                                    "--certificate", out["poly.cert"]]),
                ("reconstruct", ["reconstruct", path, "--certificate", out["rec.cert"],
                                 "--out-v", out["v"], "--out-h", out["h"]]),
                ("polar-realize", ["polar-realize", path, "--out-v", out["pv"]]),
            ):
                code, _, err = _run(argv)
                assert code in (0, 1, 2), name
                if code == 2:
                    assert err.startswith("error: ") and err.count("\n") == 1, err
                codes[name] = code
            assert codes["check-cone"] == (0 if cone_check_via_polytope(m) else 1)
            polytope = rank(m) >= 2 and affine_criterion_check(m)
            assert codes["check-polytope"] == (0 if polytope else 1)
            assert codes["reconstruct"] == codes["check-polytope"]
            assert codes["polar-realize"] in ((0, 2) if polytope else (2,))
            for cert in ("cone.cert", "poly.cert", "rec.cert"):
                assert _run(["verify-cert", path, out[cert]])[:2] == (0, "CERT valid\n")

