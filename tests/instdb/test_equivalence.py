"""Property tests: the sqlite backend ≡ the in-memory reference.

:class:`~repro.instdb.MemoryBackend` defines the semantics; every other
backend must be observationally identical.  Random ABoxes (told types +
role edges over random TBox vocabularies) are loaded into both backends
and every read in the interface is compared, before and after
materialization and after an incremental refresh against an edited
TBox.  The refresh itself is additionally checked against the
from-scratch oracle: refresh(edit) must leave exactly the state a fresh
materialize under the edited hierarchy produces — also when a swap's
change-impact set prefilters which sources it recomputes.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpora.generators import random_tbox, random_tbox_edit
from repro.dl import Reasoner
from repro.instdb import MemoryBackend, SqliteBackend, materialize, refresh
from repro.serve.snapshot import SnapshotManager

# a small pool of classified hierarchies; building one per example is
# the expensive part, the vocabulary variety is what matters
_TBOXES = {
    seed: random_tbox(seed, n_defined=8, n_primitive=5, n_roles=2)
    for seed in (3, 11, 27)
}
_HIERARCHIES = {
    seed: Reasoner(tbox).classify() for seed, tbox in _TBOXES.items()
}


@st.composite
def abox_ops(draw):
    """A random told ABox as (seed, type assertions, role assertions)."""
    seed = draw(st.sampled_from(sorted(_TBOXES)))
    names = sorted(_TBOXES[seed].atomic_names())
    roles = sorted(_TBOXES[seed].role_names())
    individuals = st.integers(min_value=0, max_value=11).map(lambda i: f"i{i}")
    types = draw(
        st.lists(
            st.tuples(individuals, st.sampled_from(names)),
            min_size=1,
            max_size=25,
        )
    )
    edges = draw(
        st.lists(
            st.tuples(individuals, st.sampled_from(roles), individuals),
            max_size=10,
        )
        if roles
        else st.just([])
    )
    return seed, types, edges


def loaded_pair(types, edges):
    memory, sqlite = MemoryBackend(), SqliteBackend()
    for backend in (memory, sqlite):
        with backend.transaction():
            for individual, concept in types:
                backend.assert_type(individual, concept)
            for subject, role, object in edges:
                backend.assert_role(subject, role, object)
    return memory, sqlite


def assert_equivalent(memory, sqlite, *, roles=()):
    assert memory.individuals() == sqlite.individuals()
    assert memory.individual_count() == sqlite.individual_count()
    assert memory.counts() == sqlite.counts()
    assert memory.told_concepts() == sqlite.told_concepts()
    assert sorted(memory.derived_sources()) == sorted(sqlite.derived_sources())
    concepts = set(memory.told_concepts()) | {"never_asserted"}
    for individual in memory.individuals():
        assert memory.types(individual) == sqlite.types(individual)
        assert memory.types(individual, derived=False) == sqlite.types(
            individual, derived=False
        )
        for concept in memory.types(individual):
            concepts.add(concept)
    for concept in sorted(concepts):
        assert memory.instances(concept) == sqlite.instances(concept)
        assert memory.instances(concept, limit=3) == sqlite.instances(
            concept, limit=3
        )
    for role in roles:
        assert set(memory.role_assertions(role)) == set(
            sqlite.role_assertions(role)
        )
        for individual in memory.individuals():
            assert memory.successors(individual, role) == sqlite.successors(
                individual, role
            )
            assert memory.predecessors(individual, role) == sqlite.predecessors(
                individual, role
            )


class TestBackendEquivalence:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(abox_ops())
    def test_told_reads_agree(self, ops):
        seed, types, edges = ops
        memory, sqlite = loaded_pair(types, edges)
        try:
            assert_equivalent(
                memory, sqlite, roles=sorted(_TBOXES[seed].role_names())
            )
        finally:
            memory.close()
            sqlite.close()

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(abox_ops())
    def test_materialized_reads_agree(self, ops):
        seed, types, edges = ops
        memory, sqlite = loaded_pair(types, edges)
        try:
            hierarchy = _HIERARCHIES[seed]
            m_result = materialize(memory, hierarchy)
            s_result = materialize(sqlite, hierarchy)
            assert m_result.derived_rows == s_result.derived_rows
            assert m_result.closures == s_result.closures
            assert_equivalent(memory, sqlite)
        finally:
            memory.close()
            sqlite.close()

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(abox_ops(), st.sampled_from(sorted(_TBOXES)))
    def test_refresh_matches_fresh_materialize(self, ops, edit_seed):
        seed, types, edges = ops
        memory, sqlite = loaded_pair(types, edges)
        oracle_m, oracle_s = loaded_pair(types, edges)
        try:
            before, after = _HIERARCHIES[seed], _HIERARCHIES[edit_seed]
            # incremental path: materialize under `before`, refresh to `after`
            first_m = materialize(memory, before)
            first_s = materialize(sqlite, before)
            refresh(memory, after, first_m.closures)
            refresh(sqlite, after, first_s.closures)
            # oracle path: one fresh materialize under `after`
            materialize(oracle_m, after)
            materialize(oracle_s, after)
            assert_equivalent(memory, sqlite)
            for individual in oracle_m.individuals():
                assert memory.types(individual) == oracle_m.types(individual)
                assert sqlite.types(individual) == oracle_s.types(individual)
        finally:
            for backend in (memory, sqlite, oracle_m, oracle_s):
                backend.close()

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_edits=st.integers(min_value=1, max_value=4),
    )
    def test_refresh_with_change_impact_matches_fresh_materialize(
        self, seed, n_edits
    ):
        """Each swap's impact set prefilters the refresh of both backends."""
        rng = random.Random(seed)
        chain = [random_tbox(seed, n_defined=8, n_primitive=5, n_roles=2)]
        for _ in range(n_edits):
            chain.append(random_tbox_edit(rng, chain[-1]))
        # told types over every version's vocabulary: some names are
        # removed by the chain, others are defined only later
        names = sorted(set().union(*(tbox.atomic_names() for tbox in chain)))
        types = [(f"i{k}", rng.choice(names)) for k in range(30)]
        memory, sqlite = loaded_pair(types, [])
        try:
            manager = SnapshotManager(chain[0])
            closures = {
                backend: materialize(backend, manager.current.hierarchy).closures
                for backend in (memory, sqlite)
            }
            for tbox in chain[1:]:
                manager.load_and_swap(tbox)
                snapshot = manager.current
                for backend in (memory, sqlite):
                    closures[backend] = refresh(
                        backend,
                        snapshot.hierarchy,
                        closures[backend],
                        affected=snapshot.reclassify_affected,
                    ).closures
                oracle = MemoryBackend()
                try:
                    for individual, concept in types:
                        oracle.assert_type(individual, concept)
                    materialize(oracle, snapshot.hierarchy)
                    assert_equivalent(memory, sqlite)
                    for individual in oracle.individuals():
                        assert memory.types(individual) == oracle.types(individual)
                finally:
                    oracle.close()
        finally:
            memory.close()
            sqlite.close()
