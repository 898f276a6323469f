"""Unit tests for the DL text syntax."""

import pytest

from repro.dl import (
    BOTTOM,
    TOP,
    And,
    Atomic,
    Equivalence,
    Not,
    Or,
    ParseError,
    Subsumption,
    at_least,
    at_most,
    only,
    parse_axiom,
    parse_concept,
    parse_tbox,
    some,
)

A, B = Atomic("A"), Atomic("B")


class TestConcepts:
    def test_atomic(self):
        assert parse_concept("car") == Atomic("car")

    def test_top_bottom(self):
        assert parse_concept("Top") is TOP
        assert parse_concept("Bottom") is BOTTOM

    def test_conjunction(self):
        assert parse_concept("A & B") == And.of([A, B])

    def test_disjunction_precedence(self):
        # & binds tighter than |
        c = parse_concept("A & B | A")
        assert c == Or.of([And.of([A, B]), A])

    def test_parentheses(self):
        c = parse_concept("A & (B | A)")
        assert c == And.of([A, Or.of([B, A])])

    def test_negation(self):
        assert parse_concept("~A") == Not(A)
        assert parse_concept("~~A") == Not(Not(A))

    def test_exists_forall(self):
        assert parse_concept("some size.small") == some("size", Atomic("small"))
        assert parse_concept("all has.wheel") == only("has", Atomic("wheel"))

    def test_quantifier_binds_tightly(self):
        c = parse_concept("some r.A & B")
        assert c == And.of([some("r", A), B])

    def test_number_restrictions(self):
        assert parse_concept(">= 4 has.wheel") == at_least(4, "has", Atomic("wheel"))
        assert parse_concept("<= 2 has") == at_most(2, "has")
        assert parse_concept(">= 1 r") == at_least(1, "r")

    def test_nested_quantifiers(self):
        c = parse_concept("some r.(some s.A)")
        assert c == some("r", some("s", A))

    def test_hyphenated_names(self):
        assert parse_concept("road-vehicle") == Atomic("road-vehicle")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_concept("A B")

    def test_bad_character_rejected(self):
        with pytest.raises(ParseError):
            parse_concept("A ⊓ B")

    def test_missing_filler_rejected(self):
        with pytest.raises(ParseError):
            parse_concept("some r.")

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse_concept("")


class TestAxiomsAndTBoxes:
    def test_subsumption(self):
        axiom = parse_axiom("car [= motorvehicle")
        assert axiom == Subsumption(Atomic("car"), Atomic("motorvehicle"))

    def test_equivalence(self):
        axiom = parse_axiom("car = motorvehicle & some size.small")
        assert isinstance(axiom, Equivalence)

    def test_missing_connective_rejected(self):
        with pytest.raises(ParseError):
            parse_axiom("car motorvehicle")

    def test_tbox_parses_paper_structure_4(self):
        tbox = parse_tbox(
            """
            # structure (4)
            car [= motorvehicle & roadvehicle & some size.small
            pickup [= motorvehicle & roadvehicle & some size.big
            motorvehicle [= some uses.gasoline
            roadvehicle [= >= 4 has.wheel
            """
        )
        assert len(tbox) == 4
        assert tbox.is_definitorial()
        assert "car" in tbox.defined_names()
        assert tbox.role_names() == frozenset({"size", "uses", "has"})

    def test_tbox_blank_lines_and_comments(self):
        tbox = parse_tbox("\n# only a comment\n\nA [= B\n")
        assert len(tbox) == 1

    def test_tbox_error_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_tbox("A [= B\nC [= &")

    def test_round_trip_pretty(self):
        text = "car [= motorvehicle & some size.small"
        tbox = parse_tbox(text)
        assert tbox.pretty() == "car ⊑ motorvehicle ⊓ ∃size.small"


class TestSerialization:
    def test_round_trip_paper_structure(self):
        from repro.corpora.vehicles import vehicle_tbox
        from repro.dl import parse_tbox, tbox_to_text

        tbox = vehicle_tbox()
        again = parse_tbox(tbox_to_text(tbox))
        assert again.pretty() == tbox.pretty()

    def test_to_text_forms(self):
        from repro.dl import to_text

        assert to_text(parse_concept("A & (B | C)")) == "A & (B | C)"
        assert to_text(parse_concept("~(A & B)")) == "~(A & B)"
        assert to_text(parse_concept(">= 4 has.wheel")) == ">= 4 has.wheel"
        assert to_text(parse_concept("<= 2 has")) == "<= 2 has"
        assert to_text(parse_concept("some r.(A & B)")) == "some r.(A & B)"
        assert to_text(parse_concept("Top")) == "Top"


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dl import TOP, at_least as _at_least, to_text as _to_text

_names = st.sampled_from(["A", "B", "C"])
_roles = st.sampled_from(["r", "s"])


@st.composite
def _concepts(draw, depth=3):
    from repro.dl import And as _And, Or as _Or

    if depth == 0:
        return Atomic(draw(_names))
    kind = draw(st.integers(min_value=0, max_value=7))
    if kind == 0:
        return Atomic(draw(_names))
    if kind == 1:
        return TOP
    if kind == 2:
        return Not(draw(_concepts(depth=depth - 1)))
    if kind == 3:
        return _And.of([draw(_concepts(depth=depth - 1)), draw(_concepts(depth=depth - 1))])
    if kind == 4:
        return _Or.of([draw(_concepts(depth=depth - 1)), draw(_concepts(depth=depth - 1))])
    if kind == 5:
        return some(draw(_roles), draw(_concepts(depth=depth - 1)))
    if kind == 6:
        return only(draw(_roles), draw(_concepts(depth=depth - 1)))
    return _at_least(draw(st.integers(0, 4)), draw(_roles), draw(_concepts(depth=depth - 1)))


@settings(max_examples=100, deadline=None)
@given(_concepts())
def test_parse_inverts_to_text(concept):
    assert parse_concept(_to_text(concept)) == concept


# -- the line map ----------------------------------------------------------- #

_AXIOM_LINES = [
    "A [= B",
    "A [= some r.B",
    "B = C & D",
    "C [= >= 2 s.A",
    "D [= ~A | B",
    "A & B [= C",
    "car [= motorvehicle & some size.small",
]
_BAD_LINES = ["A [= &", "[= B", "A B", "some r.", "A [= B ("]


@st.composite
def _tbox_texts(draw, bad=True):
    """TBox text with comments, blank lines, duplicates and spacing variants."""
    lines = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        kind = draw(st.integers(min_value=0, max_value=9))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
        elif kind == 1:
            lines.append("# " + draw(st.sampled_from(_AXIOM_LINES)))
        elif kind == 2 and bad:
            lines.append(draw(st.sampled_from(_BAD_LINES)))
        else:
            line = draw(st.sampled_from(_AXIOM_LINES))
            if draw(st.booleans()):
                line = line.replace(" ", "  ")
            pad = draw(st.sampled_from(["", " ", "\t", "  "]))
            comment = draw(st.sampled_from(["", " # note", "#x", "# A [= B"]))
            lines.append(pad + line + pad + comment)
    return "\n".join(lines)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_tbox_texts(), _tbox_texts(bad=False))
def test_line_map_parse_equals_plain_parse(text, other):
    known: dict = {}
    parse_tbox(other, lines=known)
    try:
        expected = parse_tbox(text)
    except ParseError as plain:
        with pytest.raises(ParseError) as mapped:
            parse_tbox(text, known)
        assert str(mapped.value) == str(plain)  # the same line number
        return
    lines: dict = {}
    parsed = parse_tbox(text, known, lines=lines)
    assert parsed.axioms == expected.axioms  # duplicates and order included
    axiom_lines = {raw.split("#", 1)[0].strip() for raw in text.splitlines()}
    assert set(lines) == axiom_lines - {""}
    for line, axiom in lines.items():
        if line in known:
            assert axiom is known[line]  # taken, not parsed again
        assert axiom == parse_axiom(line)


def test_line_map_parses_only_unseen_lines(monkeypatch):
    from repro.dl import parser

    calls = []
    monkeypatch.setattr(
        parser, "parse_axiom", lambda line: calls.append(line) or parse_axiom(line)
    )
    known: dict = {}
    parse_tbox("A [= B\nB [= C  # told\n", lines=known)
    assert calls == ["A [= B", "B [= C"]
    calls.clear()
    tbox = parse_tbox("  A [= B\n\nB [= C\nC [= D\nC [= D\n", known)
    assert calls == ["C [= D", "C [= D"]
    assert len(tbox) == 4
