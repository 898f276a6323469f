"""Sanity tests for the corpus data and generators."""

import importlib.util
from pathlib import Path

import pytest

from repro.corpora import (
    campus_properties,
    campus_rigidity,
    campus_space,
    branching_tbox,
    chain_tbox,
    nonhorn_tbox,
    random_field,
    random_lexicalization,
    random_tbox,
    random_triples,
)
from repro.dl import Saturation, parse_tbox
from repro.intensional import Rigidity

PERFBENCH_CORPUS = Path(__file__).resolve().parents[2] / "perfbench" / "corpus.py"


class TestCampus:
    def test_space_shape(self):
        space = campus_space()
        assert len(space) == 3
        assert space.domain == frozenset({"alice", "bob", "carol"})

    def test_rigidity_profile(self):
        profile = campus_rigidity()
        assert profile == {
            "person": Rigidity.RIGID,
            "student": Rigidity.ANTI_RIGID,
            "employee": Rigidity.ANTI_RIGID,
        }

    def test_properties_total(self):
        for relation in campus_properties():
            for world in relation.space:
                relation.at(world)  # no raise: totality


class TestGenerators:
    def test_random_tbox_deterministic(self):
        assert random_tbox(7).pretty() == random_tbox(7).pretty()
        assert random_tbox(7).pretty() != random_tbox(8).pretty()

    def test_random_tbox_definitorial(self):
        for seed in range(5):
            assert random_tbox(seed).is_definitorial()

    def test_chain_tbox(self):
        tbox = chain_tbox(5)
        assert len(tbox) == 5
        assert tbox.is_definitorial()

    def test_branching_tbox_size(self):
        tbox = branching_tbox(3, branching=2)
        assert len(tbox) == 2 + 4 + 8

    def test_random_field_and_lexicalization(self):
        field = random_field(1, n_points=5)
        lex = random_lexicalization(3, field, n_terms=3)
        assert lex.covered() == field.points

    def test_random_lexicalization_deterministic(self):
        field = random_field(1)
        a = random_lexicalization(9, field)
        b = random_lexicalization(9, field)
        assert a.extents == b.extents

    def test_random_triples_shape(self):
        rows = random_triples(5, count=50, n_subjects=5, n_predicates=2, n_objects=5)
        assert len(rows) == 50
        assert all(len(r) == 3 for r in rows)
        assert random_triples(5, count=50, n_subjects=5, n_predicates=2, n_objects=5) == rows

    def test_nonhorn_tbox_is_the_complex_read_corpus(self):
        """The serving benchmark's complex-read TBox, as a TBox."""
        tbox = nonhorn_tbox(0, families=9, disjunctions=1)
        assert len(tbox.atomic_names()) == 81
        assert len(tbox) == 73
        assert not Saturation(tbox).complete
        spec = importlib.util.spec_from_file_location(
            "perfbench_corpus", PERFBENCH_CORPUS
        )
        corpus = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(corpus)
        text = corpus.nonhorn_tbox_text(0, families=9, disjunctions=1)
        assert set(tbox.axioms) == set(parse_tbox(text).axioms)
