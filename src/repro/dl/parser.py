"""A concrete text syntax for concepts and TBoxes.

The ASCII syntax mirrors the paper's displayed ontonomies::

    car [= motorvehicle & roadvehicle & some size.small
    pickup [= motorvehicle & roadvehicle & some size.big
    motorvehicle [= some uses.gasoline
    roadvehicle [= >= 4 has.wheel

Grammar (one axiom per line; ``#`` starts a comment)::

    axiom   :=  concept '[=' concept   |  concept '=' concept
    concept :=  disj
    disj    :=  conj ('|' conj)*
    conj    :=  unary ('&' unary)*
    unary   :=  '~' unary
             |  'some' NAME '.' unary
             |  'all'  NAME '.' unary
             |  '>=' INT NAME ['.' unary]
             |  '<=' INT NAME ['.' unary]
             |  '(' concept ')'
             |  'Top' | 'Bottom' | NAME
"""

from __future__ import annotations

import re
from typing import Mapping

from .syntax import (
    BOTTOM,
    TOP,
    And,
    Atomic,
    Concept,
    DLSyntaxError,
    Not,
    Or,
    at_least,
    at_most,
    only,
    some,
)
from .tbox import Axiom, Equivalence, Subsumption, TBox


class ParseError(DLSyntaxError):
    """Raised on malformed concept or TBox text."""


_TOKEN = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<subsume>\[=)
  | (?P<geq>>=)
  | (?P<leq><=)
  | (?P<eq>=)
  | (?P<and>&)
  | (?P<or>\|)
  | (?P<not>~)
  | (?P<lpar>\()
  | (?P<rpar>\))
  | (?P<dot>\.)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_-]*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"some", "all", "Top", "Bottom"}


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        tokens.append((kind, m.group()))
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> tuple[str, str]:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return token

    def expect(self, kind: str) -> str:
        token = self.next()
        if token[0] != kind:
            raise ParseError(f"expected {kind}, got {token[1]!r}")
        return token[1]

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    # grammar ----------------------------------------------------------- #

    def concept(self) -> Concept:
        return self.disjunction()

    def disjunction(self) -> Concept:
        parts = [self.conjunction()]
        while self.peek() and self.peek()[0] == "or":
            self.next()
            parts.append(self.conjunction())
        return Or.of(parts) if len(parts) > 1 else parts[0]

    def conjunction(self) -> Concept:
        parts = [self.unary()]
        while self.peek() and self.peek()[0] == "and":
            self.next()
            parts.append(self.unary())
        return And.of(parts) if len(parts) > 1 else parts[0]

    def unary(self) -> Concept:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of input in concept")
        kind, value = token
        if kind == "not":
            self.next()
            return Not(self.unary())
        if kind == "lpar":
            self.next()
            inner = self.concept()
            self.expect("rpar")
            return inner
        if kind in ("geq", "leq"):
            self.next()
            n = int(self.expect("int"))
            role = self.expect("name")
            filler: Concept = TOP
            if self.peek() and self.peek()[0] == "dot":
                self.next()
                filler = self.unary()
            return at_least(n, role, filler) if kind == "geq" else at_most(n, role, filler)
        if kind == "name":
            if value == "some" or value == "all":
                self.next()
                role = self.expect("name")
                self.expect("dot")
                filler = self.unary()
                return some(role, filler) if value == "some" else only(role, filler)
            if value == "Top":
                self.next()
                return TOP
            if value == "Bottom":
                self.next()
                return BOTTOM
            self.next()
            return Atomic(value)
        raise ParseError(f"unexpected token {value!r}")

    def axiom(self) -> Subsumption | Equivalence:
        lhs = self.concept()
        token = self.next()
        if token[0] == "subsume":
            return Subsumption(lhs, self.concept())
        if token[0] == "eq":
            return Equivalence(lhs, self.concept())
        raise ParseError(f"expected '[=' or '=', got {token[1]!r}")


def parse_concept(text: str) -> Concept:
    """Parse a single concept expression.

    >>> parse_concept("motorvehicle & some size.small")
    And(operands=(Atomic(name='motorvehicle'), Exists(role=Role(name='size'), filler=Atomic(name='small'))))
    """
    parser = _Parser(text)
    concept = parser.concept()
    if not parser.at_end():
        raise ParseError(f"trailing input after concept: {parser.peek()[1]!r}")
    return concept


def parse_axiom(text: str) -> Subsumption | Equivalence:
    """Parse a single axiom line."""
    parser = _Parser(text)
    axiom = parser.axiom()
    if not parser.at_end():
        raise ParseError(f"trailing input after axiom: {parser.peek()[1]!r}")
    return axiom


def parse_tbox(
    text: str,
    known: Mapping[str, Axiom] | None = None,
    *,
    lines: dict[str, Axiom] | None = None,
) -> TBox:
    """Parse a TBox: one axiom per line, ``#`` comments, blank lines ignored.

    An axiom line is the line with its comment cut and its whitespace
    stripped.  One found in ``known`` is not parsed again: its axiom is
    taken from there, so an edit costs the lines it changes.  ``lines``,
    when given, receives every axiom line of ``text`` with its axiom,
    ready to be the ``known`` of the next parse.
    """
    known = known or {}
    axioms = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        axiom = known.get(line)
        if axiom is None:
            try:
                axiom = parse_axiom(line)
            except ParseError as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
        if lines is not None:
            lines[line] = axiom
        axioms.append(axiom)
    return TBox(axioms)
