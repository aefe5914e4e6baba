from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from slackmat import ConeRep, Matrix, PolytopeRep, is_cone_slack, is_polytope_slack
from slackmat.formats import (
    CERT,
    CONE_V,
    MATRIX,
    POLY_H,
    Document,
    FormatError,
    document_for,
    parse,
    serialize,
)
from slackmat.recognition import (
    ONES_NOT_IN_SPAN,
    RANK_TOO_SMALL,
    UNMATCHED_RAY,
    NoCertificate,
    YesCertificate,
)

from golden import COUNTEREXAMPLE, PRISM

fracs = st.fractions(min_value=-9, max_value=9, max_denominator=7)


class TestParse:
    def test_matrix(self):
        doc = parse("MATRIX 2 2\n1 1/2\n0 3\n")
        assert doc.kind == MATRIX
        assert doc.payload == Matrix([[1, F(1, 2)], [0, 3]])

    def test_zero_denominator(self):
        with pytest.raises(FormatError, match="line 2"):
            parse("MATRIX 1 1\n1/0\n")

    def test_poly_h(self):
        doc = parse("POLY_H 1 2\n1 1 0\n")
        assert doc.kind == POLY_H
        assert doc.payload.inequalities() == [(F(1), (F(1), F(0)))]

    def test_cone_with_lineality(self):
        doc = parse("CONE_V 1 2\n0 1\nLINEALITY 1\n1 0\n")
        assert doc.payload == ConeRep("V", 2, ((0, 1),), ((1, 0),))

    def test_wrong_row_width(self):
        with pytest.raises(FormatError):
            parse("MATRIX 1 3\n1 2\n")

    def test_unknown_kind(self):
        with pytest.raises(FormatError):
            parse("THING 1 1\n0\n")

    def test_truncated_input(self):
        with pytest.raises(FormatError):
            parse("MATRIX 2 2\n1 2\n")

    def test_zero_width_rows_need_their_blank_lines(self):
        # Fails at the header's row count instead of allocating that many rows.
        with pytest.raises(FormatError, match="line 2"):
            parse("MATRIX 1000000000 0\n")

    def test_rows_past_the_header_count_are_rejected(self):
        with pytest.raises(FormatError, match="line 3"):
            parse("MATRIX 1 2\n1 2\n3 4\n")

    def test_point_past_the_header_count_is_rejected(self):
        with pytest.raises(FormatError, match="line 4"):
            parse("POLY_V 2 1\n0\n1\n2\n")

    def test_trailing_blank_lines_are_accepted(self):
        assert parse("MATRIX 1 1\n5\n\n  \n").payload == Matrix([[5]])

    @pytest.mark.parametrize("text", [
        "MATRIX 1 2\n1_0 3\n",          # int() reads "1_0" as 10
        "MATRIX 1 2\n10 \u0663\n",     # ARABIC-INDIC DIGIT THREE
        "MATRIX 1 1\n1/1_0\n",
        "MATRIX 1 1\n1/\u0663\n",
        "MATRIX 1 1\n1/-3\n",
        "MATRIX 1 1\n1/+3\n",
        "MATRIX 1 1\n\uff13\n",            # FULLWIDTH DIGIT THREE
    ])
    def test_only_ascii_rationals(self, text):
        with pytest.raises(FormatError, match="line 2: bad rational"):
            parse(text)

    @pytest.mark.parametrize("header", ["MATRIX 1_0 1", "MATRIX 1 \u0661", "MATRIX +1 1",
                                        "MATRIX -1 1", "CONE_H 1 1_0"])
    def test_only_ascii_header_counts(self, header):
        with pytest.raises(FormatError, match="line 1: bad header number"):
            parse(header + "\n" + "1\n" * 10)

    def test_block_labels_match_whole(self):
        with pytest.raises(FormatError, match="line 3"):
            parse("CONE_V 1 2\n0 1\nLINEALITYX 1\n1 0\n")
        text = serialize(document_for(is_polytope_slack(PRISM).certificate))
        assert "\nMU " in text
        with pytest.raises(FormatError):
            parse(text.replace("\nMU ", "\nMUSH "))

    @pytest.mark.parametrize("token, message", [
        ("1" * 5000, "bad rational"),
        ("1" * 1000 + "/x", "bad rational"),
        ("1" * 1000 + "/0", "zero denominator"),
    ], ids=["past-int-limit", "malformed", "zero-denominator"])
    def test_huge_token_is_quoted_short(self, token, message):
        with pytest.raises(FormatError, match=message) as err:
            parse("MATRIX 1 1\n%s\n" % token)
        assert len(str(err.value)) < 80

    @pytest.mark.parametrize("label", ["WITNESS", "SEPARATOR"])
    def test_repeated_no_certificate_row_is_rejected(self, label):
        text = serialize(document_for(is_cone_slack(COUNTEREXAMPLE).certificate))
        lines = text.splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith(label + " "))
        width = len(lines[row].split()) - 1
        repeated = lines[:row] + [label + " 9" * width] + lines[row:]
        with pytest.raises(FormatError, match="line %d: repeated %s row" % (row + 2, label)):
            parse("\n".join(repeated) + "\n")

    def test_signed_numerators(self):
        assert parse("MATRIX 1 3\n+1 -2/4 -0\n").payload == Matrix([[1, F(-1, 2), 0]])


class TestSerialize:
    def test_identity(self):
        assert serialize(document_for(Matrix.identity(2))) == "MATRIX 2 2\n1 0\n0 1\n"

    def test_prism_round_trip(self):
        text = serialize(document_for(PRISM))
        assert parse(text).payload == PRISM

    def test_no_certificate(self):
        cert = NoCertificate(
            UNMATCHED_RAY, convention="row",
            witness=(F(1), F(0)), separator=(F(-1), F(2)),
        )
        text = serialize(document_for(cert))
        assert "CERT NO" in text and "WITNESS" in text and "SEPARATOR" in text
        assert parse(text).payload == cert

    def test_zero_width_rows_round_trip(self):
        for m in (Matrix([[], []], cols=0), Matrix.zero(2, 3)):
            back = parse(serialize(document_for(m))).payload
            assert back == m
            cert = is_cone_slack(m).certificate  # rank 0: A is p x 0
            assert parse(serialize(document_for(cert))).payload == cert

    def test_yes_certificate_with_realization(self):
        cert = is_polytope_slack(PRISM).certificate
        back = parse(serialize(document_for(cert))).payload
        assert back == cert

    def test_rejection_certificate_round_trip(self):
        cert = is_cone_slack(COUNTEREXAMPLE).certificate
        assert parse(serialize(document_for(cert))).payload == cert


@st.composite
def documents(draw):
    which = draw(st.sampled_from(
        ["matrix", "cone", "poly_v", "poly_h", "cert-no", "cert-yes"]))
    n = draw(st.integers(1, 4))
    count = draw(st.integers(1, 4))
    def rows(width, count=count):
        return tuple(
            tuple(draw(fracs) for _ in range(width)) for _ in range(count)
        )
    def maybe(value):
        return value if draw(st.booleans()) else None
    if which == "matrix":
        return document_for(Matrix(rows(n), cols=n))
    if which == "cone":
        lin = rows(n)[: draw(st.integers(0, 1))]
        form = draw(st.sampled_from(["V", "H"]))
        if form == "H":
            lin = ()
        return document_for(ConeRep(form, n, rows(n), lin))
    if which == "poly_v":
        return document_for(PolytopeRep("V", n, rows(n)))
    if which == "poly_h":
        return document_for(PolytopeRep("H", n, rows(n + 1)))
    if which == "cert-no":
        reason = draw(st.sampled_from([UNMATCHED_RAY, ONES_NOT_IN_SPAN, RANK_TOO_SMALL]))
        convention = draw(st.sampled_from(["row", "column"]))
        return document_for(NoCertificate(
            reason, convention, maybe(rows(n, 1)[0]), maybe(rows(n, 1)[0])))
    k = draw(st.integers(0, 3))
    q = draw(st.integers(1, 4))
    a = Matrix(rows(k), cols=k)
    b = Matrix(rows(q, k), cols=q)
    pair = (PolytopeRep("V", n, rows(n)),
            PolytopeRep("H", n, rows(n + 1, draw(st.integers(0, 4)))))
    return document_for(YesCertificate(a, b, maybe(rows(q, 1)[0]), maybe(pair)))


class TestRoundTripProperties:
    @given(documents())
    @settings(max_examples=120, deadline=None)
    def test_parse_serialize_identity(self, doc):
        text = serialize(doc)
        back = parse(text)
        assert back.kind == doc.kind
        assert back.payload == doc.payload
        assert serialize(back) == text


_TOKENS = ["MATRIX", "CONE_V", "CONE_H", "POLY_V", "POLY_H", "CERT", "YES",
           "NO", "A", "B", "MU", "V", "H", "LINEALITY", "WITNESS", "SEPARATOR",
           UNMATCHED_RAY, ONES_NOT_IN_SPAN, RANK_TOO_SMALL, "row", "column",
           "0", "1", "2", "3", "-1", "+2", "1/2", "-3/4", "1/0", "01", "1_0",
           "٣", "x", ""]


@st.composite
def near_documents(draw):
    """Text close to the grammar: lines of its own words and numerals."""
    lines = draw(st.lists(
        st.lists(st.sampled_from(_TOKENS), max_size=5).map(" ".join),
        max_size=8))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


class TestParseFuzz:
    """Whatever the text, parse returns a Document or raises FormatError."""

    @given(st.one_of(st.text(), near_documents()))
    @settings(max_examples=400, deadline=None)
    def test_document_or_format_error(self, text):
        try:
            doc = parse(text)
        except FormatError:
            return
        assert isinstance(doc, Document)
