import pytest

from slackmat import ConeRep, Matrix, PolytopeRep
from slackmat.cli import build_parser, run
from slackmat.formats import document_for, parse, serialize

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

    def test_check_cone_counterexample(self, tmp_path, capsys):
        f = write_doc(tmp_path / "c.matrix", COUNTEREXAMPLE)
        cert = tmp_path / "c.cert"
        assert run(["check-cone", f, "--certificate", str(cert)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("CONE-SLACK no")
        assert run(["verify-cert", f, str(cert)]) == 0

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


class TestInputErrors:
    @pytest.mark.parametrize("command, inputs, message", [
        ("slack", {"--vrep": ConeRep("V", 1, ((1,),)), "--hrep": ConeRep("H", 1, ((-1,),))},
         "not a representation pair: negative slack entry"),
        ("verify", {"--vrep": PolytopeRep("V", 2, ((2, 0),)), "--hrep": SQUARE_FACETS},
         "points are not contained in the H-polytope"),
        ("incidence", {None: NEGATIVE_3X3}, "matrix has a negative entry"),
        ("polygon-check", {None: NEGATIVE_3X3}, "matrix has a negative entry"),
        ("polar-realize", {None: PRISM}, "transpose is not a polytope slack matrix"),
    ], ids=["slack", "verify", "incidence", "polygon-check", "polar-realize"])
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

    def test_missing_vertex(self, tmp_path, capsys):
        from slackmat import PolytopeRep

        q = PolytopeRep("V", 2, SQUARE_VERTICES.vectors[:3])
        fv = write_doc(tmp_path / "s3.ext", q)
        fh = write_doc(tmp_path / "s.ine", SQUARE_FACETS)
        assert run(["verify", "--vrep", fv, "--hrep", fh]) == 1
        assert "not-equal" in capsys.readouterr().out

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

    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 2
