"""Instrumented substrate benches (B1–B6, B10, B12, B14), one JSON record each.

Each bench runs a fixed, seeded workload under a fresh
:class:`repro.obs.Recorder` and produces one record::

    {
      "schema_version": 2,
      "bench": "B1",
      "description": "...",
      "params": {...},            # the workload's knobs, for reproduction
      "wall_time_s": 0.41,
      "counters": {...},          # repro.obs counter snapshot
      "timers": {...},            # {name: {count, total, min, max, mean, p50, p99}}
      "histograms": {...}         # the same summary
    }

Schema v2: measurement *distributions* (per-call latencies, per-phase
costs) live in ``histograms`` — with p50/p99 over every observation,
within ``repro.obs.ALPHA`` — instead of being stashed under ``params``;
``params`` holds only the workload's reproduction knobs and scalar
summaries.

``run_suite`` writes one ``BENCH_<id>.json`` per bench — the work
trajectory later PRs are compared against.  Counters are deterministic
for the seeded inputs (two runs differ only in ``wall_time_s`` and timer
values); the test suite asserts exactly that, so any nondeterminism
introduced into a hot path is caught here.  B12 also records wall-clock
timings under ``params`` (see :class:`BenchSpec.deterministic`); its
counters are compared on their own.  B10 — one classification path,
budgeted or not — takes its scale (``tiny`` / ``full``) from
``REPRO_B10_SCALE``, B12 — the DB-backed instance store at 10⁵–10⁶
individuals — from ``REPRO_B12_SCALE``, and B14 — what a TBox swap
costs, stage by stage, at 80–3,200 names — from ``REPRO_B14_SCALE``, so
CI smoke runs stay cheap while the committed records measure the full
workloads.

Serving is measured by one benchmark, ``perfbench/`` (declared in
``BENCHMARK.json``): real ``repro serve`` processes, every answer
checked against an oracle.  There are no B7, B9, B11 or B13: those
in-package serving benches duplicated it and were retired.  There is no
B8 either: it measured a seeded swap path that has since been deleted.

The pytest benches under ``benchmarks/`` still measure *time* with
pytest-benchmark statistics; this harness complements them with *work*
counts (expansions, cache hits, index hits) that are comparable across
machines.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional

from ..obs import Recorder, use_recorder
from ..robust import faults as _faults

SCHEMA_VERSION = 2

#: keys every BENCH_*.json record must carry, with their types
RECORD_SCHEMA: dict[str, type] = {
    "schema_version": int,
    "bench": str,
    "description": str,
    "params": dict,
    "wall_time_s": float,
    "counters": dict,
    "timers": dict,
    "histograms": dict,
}


@dataclass(frozen=True)
class BenchSpec:
    """One bench: an id, a description, and a workload returning its params.

    ``deterministic`` marks whether two runs over the seeded inputs
    produce identical counters *and* params.  B12 is not: its params
    carry wall-clock load and materialization timings (the determinism
    test skips it; its own test compares the counters alone).
    """

    bench_id: str
    description: str
    workload: Callable[[], dict[str, Any]]
    deterministic: bool = True


# ---------------------------------------------------------------------- #
# workloads
# ---------------------------------------------------------------------- #


def _b1_tableau() -> dict[str, Any]:
    """Tableau reasoning + classification (hierarchy/reasoner/tableau counters)."""
    from ..corpora.generators import branching_tbox, chain_tbox, random_tbox
    from ..dl import Atomic, Reasoner, classify

    chain_depth, branch_depth, classify_depth = 32, 4, 12
    reasoner = Reasoner(chain_tbox(chain_depth))
    assert reasoner.subsumes(Atomic(f"C{chain_depth}"), Atomic("C0"))
    assert not reasoner.subsumes(Atomic("C0"), Atomic(f"C{chain_depth}"))
    # a second identical query exercises the subsumption cache
    assert reasoner.subsumes(Atomic(f"C{chain_depth}"), Atomic("C0"))

    tree = Reasoner(branching_tbox(branch_depth))
    assert tree.is_satisfiable(Atomic("N" + "0" * branch_depth))

    classify(chain_tbox(classify_depth))
    classify(random_tbox(11, n_defined=6, n_primitive=4, n_roles=3))
    # the large told-structured TBox (30 named concepts).  The default
    # classifies this Horn/EL corpus by consequence-based saturation —
    # zero tableau tests on the classification path (B10 checks the
    # same with and without a budget; see EXPERIMENTS.md)
    big = random_tbox(0, n_defined=22, n_primitive=8, n_roles=3)
    hierarchy = classify(big)
    assert not hierarchy.incomplete
    assert hierarchy.tableau_tests == 0
    _b1_atmost()
    return {
        "chain_depth": chain_depth,
        "branching_depth": branch_depth,
        "classify_chain_depth": classify_depth,
        "classify_random_seed": 11,
        "big_classify": {"seed": 0, "n_defined": 22, "n_primitive": 8, "n_roles": 3},
        "atmost_max_branches": B1_ATMOST_BRANCHES,
    }


#: B1's at-most questions: (TBox, question, concepts, answer).  Each
#: puts a ``≤``-restriction next to a global disjunction that every
#: node branches on; a ``≤``-clash that waited for *all* candidates to
#: be pairwise distinct merged and re-branched past the cap on all but
#: the satisfiable ``<= 3 r``.  ``nonhorn`` is complex-read's served
#: corpus.
B1_ATMOST_QUESTIONS = (
    ("gci", "satisfiable", (">= 3 r.A & >= 1 r.B & <= 2 r",), False),
    ("gci", "satisfiable", (">= 3 r.A & >= 1 r.B & <= 3 r",), True),
    ("nonhorn", "subsumes", (">= 1 has", ">= 2 has"), True),
    ("nonhorn", "subsumes", (">= 1 has", ">= 1 has"), True),
    ("nonhorn", "satisfiable", ("g1b & part6 & <= 0 has",), False),
    ("nonhorn", "subsumes", ("~s7x0", "s8x1 & s1x0"), False),
)
#: the branch cap each at-most question runs under (no deadline)
B1_ATMOST_BRANCHES = 200


def _b1_atmost() -> None:
    """Ask :data:`B1_ATMOST_QUESTIONS` under :data:`B1_ATMOST_BRANCHES`.

    Each runs on a fresh reasoner under its own recorder, so B1's other
    counters stay those of its classification workload; the record
    gets the questions, the UNKNOWN answers and the branches charged.
    """
    from ..corpora.generators import nonhorn_tbox
    from ..dl import Reasoner, parse_concept, parse_tbox
    from ..obs import get_recorder
    from ..robust import Budget

    tboxes = {
        "gci": parse_tbox("C & D [= E | F"),
        "nonhorn": nonhorn_tbox(0, families=9, disjunctions=1),
    }
    unknown = branches = 0
    for tbox, question, texts, answer in B1_ATMOST_QUESTIONS:
        reasoner = Reasoner(tboxes[tbox])
        concepts = [parse_concept(text) for text in texts]
        budget = Budget(max_branches=B1_ATMOST_BRANCHES)
        with use_recorder(Recorder()):
            if question == "subsumes":
                verdict = reasoner.subsumes_governed(*concepts, budget)
            else:
                verdict = reasoner.is_satisfiable_governed(*concepts, budget)
        assert verdict.is_unknown or verdict.as_bool() is answer, (texts, verdict)
        unknown += verdict.is_unknown
        branches += budget.branches
    recorder = get_recorder()
    recorder.incr("bench.b1.atmost_questions", len(B1_ATMOST_QUESTIONS))
    recorder.incr("bench.b1.atmost_unknown", unknown)
    recorder.incr("bench.b1.atmost_branches", branches)


def _b2_isomorphism() -> dict[str, Any]:
    """VF2 with the WL prefilter on isomorphic and non-isomorphic pairs."""
    from ..core import confusable_sibling
    from ..corpora.generators import random_tbox
    from ..dl import definition_graph, rename_roles
    from ..graphs import find_isomorphism

    seeds = [0, 1, 2]
    for seed in seeds:
        tbox = random_tbox(seed, n_defined=6, n_primitive=4, n_roles=2)
        g1 = definition_graph(tbox).anonymized()
        sibling, _, role_map = confusable_sibling(tbox)
        g2 = definition_graph(sibling).anonymized()
        g2 = rename_roles(g2, {v: k for k, v in role_map.items()})
        assert find_isomorphism(g1, g2, respect_node_labels=False) is not None
        other = random_tbox(seed + 100, n_defined=6, n_primitive=4, n_roles=2)
        g3 = definition_graph(other).anonymized()
        find_isomorphism(g1, g3, respect_node_labels=False)
        # labeled comparison exercises the WL prefilter path
        find_isomorphism(definition_graph(tbox), definition_graph(other))
    return {"seeds": seeds, "n_defined": 6, "n_primitive": 4, "n_roles": 2}


def _b3_store() -> dict[str, Any]:
    """Index lookups, join evaluation, and DL-backed materialization."""
    from ..corpora.generators import random_tbox as random_tbox_gen
    from ..corpora.generators import random_triples
    from ..corpora.vehicles import vehicle_tbox
    from ..store import Pattern, Query, TripleStore, Var, materialize

    rows = random_triples(
        7, count=3000, n_subjects=300, n_predicates=12, n_objects=150
    )
    indexed = TripleStore()
    indexed.update(rows)
    scan = TripleStore(use_indexes=False)
    scan.update(rows)

    subjects = [f"s{i}" for i in range(0, 300, 7)]
    hits_indexed = sum(indexed.count(subject=s) for s in subjects)
    hits_scan = sum(scan.count(subject=s) for s in subjects)
    assert hits_indexed == hits_scan

    x, y = Var("x"), Var("y")
    for order in ("selectivity", "most-bound"):
        query = Query(
            [Pattern(x, "p1", y), Pattern(y, "p2", "o3")], select=[x], order=order
        )
        query.run(indexed)

    typed = TripleStore()
    for i in range(8):
        typed.add(f"car{i}", "type", "car")
        typed.add(f"truck{i}", "type", "pickup")
    materialized = materialize(typed, vehicle_tbox())
    assert ("car0", "type", "motorvehicle") in materialized

    # hierarchy-propagated materialization over a larger told-structured
    # TBox: told types close upward for free, negative answers prune
    # whole subtrees (materialize.pruned_checks)
    big_tbox = random_tbox_gen(5, n_defined=12, n_primitive=6, n_roles=2)
    big_typed = TripleStore()
    for i in range(24):
        big_typed.add(f"x{i}", "type", f"C{i % 12}")
    big_materialized = materialize(big_typed, big_tbox)
    assert len(big_materialized) >= len(big_typed)
    return {
        "rows": len(rows),
        "seed": 7,
        "point_lookup_subjects": len(subjects),
        "join_orders": ["selectivity", "most-bound"],
        "materialized_individuals": 16,
        "big_materialize": {
            "seed": 5,
            "n_defined": 12,
            "n_primitive": 6,
            "individuals": 24,
        },
    }


def _b4_grammar() -> dict[str, Any]:
    """CYK and Earley scaling plus the regular-language DFA crossover."""
    from ..grammar import (
        Grammar,
        Production,
        compile_regular,
        cyk_recognizes,
        earley_recognizes,
        to_cnf,
    )

    n = 24
    anbn = Grammar(
        {"S"},
        {"a", "b"},
        "S",
        [Production(("S",), ("a", "S", "b")), Production(("S",), ())],
    )
    word = ["a"] * n + ["b"] * n
    cnf = to_cnf(anbn)
    assert cyk_recognizes(cnf, word)
    assert earley_recognizes(anbn, word)

    ab_star = Grammar(
        {"S", "B"},
        {"a", "b"},
        "S",
        [
            Production(("S",), ("a", "B")),
            Production(("B",), ("b", "S")),
            Production(("S",), ()),
        ],
    )
    dfa = compile_regular(ab_star)
    assert dfa.accepts(["a", "b"] * 30)
    assert cyk_recognizes(to_cnf(ab_star), ["a", "b"] * 30)
    return {"anbn_n": n, "ab_star_repeats": 30}


def _b5_rewriting() -> dict[str, Any]:
    """Peano normalization and matching over an order-sorted signature."""
    from ..order import Poset
    from ..osa import (
        Equation,
        EquationalTheory,
        OpDecl,
        OrderSortedSignature,
        OSApp,
        OSVar,
        RewriteSystem,
        constant,
        match,
    )

    sig = OrderSortedSignature(
        Poset(["Nat"], []),
        [
            OpDecl("zero", (), "Nat"),
            OpDecl("s", ("Nat",), "Nat"),
            OpDecl("plus", ("Nat", "Nat"), "Nat"),
        ],
    )
    x, y = OSVar("x", "Nat"), OSVar("y", "Nat")
    system = RewriteSystem(
        EquationalTheory(
            sig,
            [
                Equation(OSApp("plus", (constant("zero"), y)), y),
                Equation(
                    OSApp("plus", (OSApp("s", (x,)), y)),
                    OSApp("s", (OSApp("plus", (x, y)),)),
                ),
            ],
        ),
        max_steps=100_000,
    )

    def numeral(k: int) -> OSApp:
        term = constant("zero")
        for _ in range(k):
            term = OSApp("s", (term,))
        return term

    n = 24
    assert system.normalize(OSApp("plus", (numeral(n), numeral(n)))) == numeral(2 * n)
    pattern = OSApp("s", (x,))
    matched = sum(
        1 for k in range(1, 40) if match(pattern, numeral(k), sig) is not None
    )
    assert matched == 39
    return {"addition_n": n, "match_targets": 39}


def _b6_escalation() -> dict[str, Any]:
    """Governed reasoning: budget exhaustion, escalation overhead (robust.*).

    Classifies a non-Horn TBox, whose residue needs one tableau model
    per name: an EL TBox is read off its saturation with no tableau, so
    no budget can starve it.
    """
    from ..corpora.generators import nonhorn_tbox
    from ..dl import Atomic, Reasoner, classify
    from ..dl.syntax import at_least
    from ..obs import NULL, trace
    from ..robust import Budget, DEFAULT_MAX_ROUNDS, retry_with_escalation

    # the corpus's models need up to 9 completion-graph nodes
    initial_nodes = 3
    tbox = nonhorn_tbox(0, families=3, disjunctions=1)
    with trace("bench.b6.ungoverned_classify"):
        baseline = classify(tbox)

    # governed classification from a deliberately starved budget, whole-run
    # escalation until the hierarchy is definite: the overhead vs. the
    # ungoverned baseline is the cost of degrading gracefully
    reasoner = Reasoner(tbox)
    budget = Budget(max_nodes=initial_nodes)
    rounds = 0
    with trace("bench.b6.escalating_classify"):
        hierarchy = classify(tbox, reasoner=reasoner, budget=budget)
        starved_pairs = len(hierarchy.incomplete)
        assert starved_pairs  # the starved budget must actually starve
        while hierarchy.incomplete and rounds < DEFAULT_MAX_ROUNDS:
            rounds += 1
            budget = budget.escalated()
            hierarchy = classify(tbox, reasoner=reasoner, budget=budget)
    assert not hierarchy.incomplete
    with use_recorder(NULL):  # the oracle's work stays out of the record
        brute = classify(tbox, algorithm="brute")
    for governed in (baseline, hierarchy):
        assert governed.groups() == brute.groups()
        assert governed.group_of == brute.group_of
        assert governed.poset == brute.poset

    # per-query escalation: >= 12 successors cannot fit the starved budget
    probe = Reasoner(tbox)
    outcome = retry_with_escalation(
        lambda b: probe.is_satisfiable_governed(
            at_least(12, "r0", Atomic("P0")), b
        ),
        Budget(max_nodes=initial_nodes),
    )
    assert outcome.verdict.is_definite and outcome.rounds >= 1
    return {
        "tbox": {"seed": 0, "families": 3, "disjunctions": 1},
        "initial_max_nodes": initial_nodes,
        "starved_open_pairs": starved_pairs,
        "classify_escalation_rounds": rounds,
        "probe_escalation_rounds": outcome.rounds,
    }


#: B10 scales: (n_defined, n_primitive, non-Horn families).  ``tiny`` is
#: the CI smoke scale; ``full`` is the committed record's workload: the
#: 30-name TBox B1 classifies, and the 81-name non-Horn TBox the
#: complex-read serving workload boots with (about ten names per
#: family; 27 at ``tiny``).
B10_SCALES: dict[str, tuple[int, int, int]] = {
    "tiny": (6, 4, 3),
    "full": (22, 8, 9),
}


def _b10_saturation() -> dict[str, Any]:
    """One classification path, with and without a budget.

    Classifies a seeded Horn/EL TBox and a non-Horn one, each twice on
    fresh reasoners: unbudgeted, and under a budget that never binds.
    Both runs must equal ``classify(algorithm="brute")`` and cost the
    same tableau solves, because a budget governs the one
    saturation-and-models path instead of choosing another: the EL TBox
    is read off its saturation with **zero** solves, and the non-Horn
    TBox (:func:`repro.corpora.nonhorn_tbox`, whose saturation keeps a
    residue) takes one model per name and one for ⊤ plus the few tests
    they leave — at most ``2·names + 1`` solves.

    Scale via ``REPRO_B10_SCALE`` (``tiny``/``full``).
    """
    import os

    from ..corpora.generators import nonhorn_tbox, random_tbox
    from ..dl import Reasoner, classify
    from ..obs import NULL, Recorder, get_recorder
    from ..robust import Budget

    scale = os.environ.get("REPRO_B10_SCALE", "tiny")
    if scale not in B10_SCALES:
        raise ValueError(
            f"REPRO_B10_SCALE={scale!r}; expected one of {sorted(B10_SCALES)}"
        )
    n_defined, n_primitive, families = B10_SCALES[scale]

    recorder = get_recorder()

    def classify_both(tbox, prefix):
        """Unbudgeted, then budgeted, each on a fresh reasoner.

        Both must equal brute and cost the same; returns the solves.
        """
        with use_recorder(NULL):  # the oracle's work stays out of the record
            brute = classify(tbox, algorithm="brute")
        solves = []
        for label, budget in (
            ("saturation", None),
            ("budgeted", Budget(max_nodes=100_000)),
        ):
            run_rec = Recorder()
            t0 = time.perf_counter()
            with use_recorder(run_rec):
                hierarchy = Reasoner(tbox).classify(budget=budget)
            ms = (time.perf_counter() - t0) * 1000.0
            recorder.merge(run_rec.state())
            recorder.observe(f"bench.b10.{prefix}{label}_classify_ms", ms)
            # the correctness oracle: group for group and edge for edge
            assert not hierarchy.incomplete
            assert hierarchy.groups() == brute.groups()
            assert hierarchy.group_of == brute.group_of
            assert hierarchy.poset == brute.poset
            assert hierarchy.top_equivalents() == brute.top_equivalents()
            solves.append(run_rec.counters.get("tableau.solve_calls", 0))
        unbudgeted, budgeted = solves
        assert budgeted == unbudgeted, (budgeted, unbudgeted)
        return unbudgeted, budgeted

    tbox = random_tbox(0, n_defined=n_defined, n_primitive=n_primitive, n_roles=3)
    el_solves, el_budgeted = classify_both(tbox, "")
    assert el_solves == 0
    recorder.incr("bench.b10.saturation_tableau_tests", el_solves)
    recorder.incr("bench.b10.budgeted_tableau_tests", el_budgeted)

    nonhorn = nonhorn_tbox(0, families=families, disjunctions=1)
    names = len(nonhorn.atomic_names())
    model_solves, nonhorn_budgeted = classify_both(nonhorn, "nonhorn_")
    recorder.incr("bench.b10.nonhorn_saturation_tableau_solves", model_solves)
    recorder.incr("bench.b10.nonhorn_budgeted_tableau_solves", nonhorn_budgeted)
    # one model per name and one for ⊤, plus the few tests they leave
    assert model_solves <= 2 * names + 1, (model_solves, names)
    return {
        "scale": scale,
        "tbox": {
            "seed": 0,
            "n_defined": n_defined,
            "n_primitive": n_primitive,
            "n_roles": 3,
        },
        "saturation_tableau_tests": el_solves,
        "budgeted_tableau_tests": el_budgeted,
        "nonhorn": {
            "seed": 0,
            "families": families,
            "disjunctions": 1,
            "names": names,
        },
        "nonhorn_saturation_tableau_solves": model_solves,
        "nonhorn_budgeted_tableau_solves": nonhorn_budgeted,
    }


#: B12 instance-store scales: (common_n, big_n, point lookups, instance
#: queries, flatness factor).  ``common_n`` individuals load into BOTH
#: backends — the in-memory reference and sqlite — and every read is
#: cross-checked between them; ``big_n`` runs sqlite alone, which at
#: ``full`` is the 10⁶-individual scale where holding the materialized
#: store as Python objects stops being an option (the bench records the
#: tracemalloc-extrapolated estimate next to the actual on-disk bytes).
#: The flatness factor (full scale only) is the acceptance criterion:
#: the mean indexed ``instances()`` latency over 10× more rows must stay
#: within that factor — an index seek, not a scan.
B12_SCALES: dict[str, tuple[int, int, int, int, int]] = {
    "tiny": (400, 2_000, 100, 20, 0),
    "small": (5_000, 50_000, 400, 40, 0),
    "full": (100_000, 1_000_000, 1_000, 50, 5),
}


def _b12_instance_store() -> dict[str, Any]:
    """DB-backed instance store vs in-memory at 10⁵–10⁶ individuals.

    One B1-shape TBox (:func:`repro.corpora.generators.random_tbox`,
    seed 0) governs a seeded individual stream
    (:func:`repro.corpora.generators.random_individuals`).  Three
    phases:

    1. **common scale, both backends** — load, hierarchy-propagated
       materialization (:func:`repro.instdb.materialize`), point
       ``types()`` lookups, and ``instances()`` retrievals run against
       the in-memory backend and a file-backed sqlite store; every
       answer is asserted identical (the reference-backend oracle);
    2. **big scale, sqlite only** — the same workload 10× larger (10⁶
       individuals at full scale), with the load streamed through
       batched ``executemany`` inserts and the whole materialization in
       one transaction.  ``EXPLAIN QUERY PLAN`` is asserted to show an
       index seek for ``instances()`` — no full scan — at every scale;
    3. **the crossover accounting** — tracemalloc measures the
       in-memory backend's peak bytes at common scale; the record holds
       its big-scale extrapolation next to sqlite's actual file bytes,
       and (full scale) asserts the mean indexed ``instances()``
       latency stayed within the flatness factor across the 10× growth.

    Scale via ``REPRO_B12_SCALE`` (``tiny``/``small``/``full``).
    """
    import os
    import random as _random
    import tempfile
    import tracemalloc

    from ..corpora.generators import random_individuals, random_tbox
    from ..dl import Reasoner
    from ..instdb import MemoryBackend, SqliteBackend
    from ..instdb import materialize as instdb_materialize
    from ..obs import get_recorder

    scale = os.environ.get("REPRO_B12_SCALE", "small")
    if scale not in B12_SCALES:
        raise ValueError(
            f"REPRO_B12_SCALE={scale!r}; expected one of {sorted(B12_SCALES)}"
        )
    common_n, big_n, n_lookups, n_queries, flat_factor = B12_SCALES[scale]

    tbox = random_tbox(0, n_defined=22, n_primitive=8, n_roles=3)
    hierarchy = Reasoner(tbox).classify()
    concepts = sorted(tbox.atomic_names())
    roles = sorted(tbox.role_names())
    recorder = get_recorder()

    def load(backend, count: int) -> float:
        """Stream ``count`` individuals in; returns the wall seconds."""
        t0 = time.perf_counter()
        stream = random_individuals(7, count, concepts=concepts, roles=roles)
        with backend.transaction():
            if isinstance(backend, SqliteBackend):
                types: list[tuple[str, str]] = []
                role_rows: list[tuple[str, str, str]] = []
                for name, told, edges in stream:
                    types.append((name, told))
                    role_rows.extend((name, r, t) for r, t in edges)
                    if len(types) >= 20_000:
                        backend.bulk_assert(types, role_rows)
                        types, role_rows = [], []
                backend.bulk_assert(types, role_rows)
            else:
                for name, told, edges in stream:
                    backend.assert_type(name, told)
                    for r, t in edges:
                        backend.assert_role(name, r, t)
        return time.perf_counter() - t0

    def measure_reads(backend, count: int, label: str) -> dict[str, float]:
        """Point lookups + limited retrievals, per-call latencies observed."""
        rng = _random.Random(13)
        lookup_ms = []
        for _ in range(n_lookups):
            name = f"i{rng.randrange(count)}"
            t0 = time.perf_counter()
            backend.types(name)
            lookup_ms.append((time.perf_counter() - t0) * 1000.0)
            recorder.observe(f"bench.b12.{label}_point_lookup_ms", lookup_ms[-1])
        instance_ms = []
        for _ in range(n_queries):
            concept = concepts[rng.randrange(len(concepts))]
            t0 = time.perf_counter()
            backend.instances(concept, limit=100)
            instance_ms.append((time.perf_counter() - t0) * 1000.0)
            recorder.observe(f"bench.b12.{label}_instances_ms", instance_ms[-1])
        return {
            "point_lookup_mean_ms": sum(lookup_ms) / len(lookup_ms),
            "instances_mean_ms": sum(instance_ms) / len(instance_ms),
        }

    with tempfile.TemporaryDirectory() as work_dir:
        # -- phase 1: common scale, both backends, cross-checked -------- #
        tracemalloc.start()
        memory = MemoryBackend()
        memory_load_s = load(memory, common_n)
        memory_mat_s = time.perf_counter()
        memory_result = instdb_materialize(memory, hierarchy)
        memory_mat_s = time.perf_counter() - memory_mat_s
        _current, memory_peak_bytes = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        common = SqliteBackend(os.path.join(work_dir, "common.db"))
        common_load_s = load(common, common_n)
        common_mat_s = time.perf_counter()
        common_result = instdb_materialize(common, hierarchy)
        common_mat_s = time.perf_counter() - common_mat_s

        # the reference-backend oracle: identical counts, types, members
        assert memory.counts() == common.counts(), (
            memory.counts(), common.counts(),
        )
        assert memory_result.derived_rows == common_result.derived_rows
        check_rng = _random.Random(29)
        for _ in range(25):
            name = f"i{check_rng.randrange(common_n)}"
            assert memory.types(name) == common.types(name), name
            assert memory.types(name, derived=False) == common.types(
                name, derived=False
            ), name
        for concept in concepts[::3]:
            assert memory.instances(concept) == common.instances(concept), concept

        memory_reads = measure_reads(memory, common_n, "memory")
        common_reads = measure_reads(common, common_n, "sqlite_common")

        # indexed pushdown, deterministically: an index seek, not a scan
        plan = common.instances_plan(concepts[0])
        assert "ix_assertions_by_concept" in plan, plan
        assert "SCAN concept_assertions" not in plan, plan
        common_bytes = common.db_bytes()
        common.close()

        # -- phase 2: big scale, sqlite alone --------------------------- #
        big = SqliteBackend(os.path.join(work_dir, "big.db"))
        big_load_s = load(big, big_n)
        big_mat_s = time.perf_counter()
        big_result = instdb_materialize(big, hierarchy)
        big_mat_s = time.perf_counter() - big_mat_s
        big_reads = measure_reads(big, big_n, "sqlite_big")
        plan = big.instances_plan(concepts[0])
        assert "SCAN concept_assertions" not in plan, plan
        assert big.individual_count() == big_n
        big_bytes = big.db_bytes()
        big.close()

    recorder.observe("bench.b12.memory_load_s", memory_load_s)
    recorder.observe("bench.b12.sqlite_common_load_s", common_load_s)
    recorder.observe("bench.b12.sqlite_big_load_s", big_load_s)
    recorder.observe("bench.b12.memory_materialize_s", memory_mat_s)
    recorder.observe("bench.b12.sqlite_common_materialize_s", common_mat_s)
    recorder.observe("bench.b12.sqlite_big_materialize_s", big_mat_s)
    recorder.incr("bench.b12.common_individuals", common_n)
    recorder.incr("bench.b12.big_individuals", big_n)
    recorder.incr("bench.b12.common_derived_rows", common_result.derived_rows)
    recorder.incr("bench.b12.big_derived_rows", big_result.derived_rows)

    # the acceptance criterion (full scale): 10x the rows, (near-)flat
    # indexed retrieval — the whole point of pushing instances() down
    flatness = big_reads["instances_mean_ms"] / max(
        common_reads["instances_mean_ms"], 1e-9
    )
    if flat_factor:
        assert flatness <= flat_factor, (
            f"instances() latency grew {flatness:.1f}x from {common_n} to "
            f"{big_n} individuals (limit {flat_factor}x): not indexed?"
        )

    # the in-memory estimate at big scale vs what sqlite actually used
    memory_big_estimate = int(memory_peak_bytes * (big_n / common_n))
    return {
        "scale": scale,
        "tbox": {"seed": 0, "n_defined": 22, "n_primitive": 8, "n_roles": 3},
        "individual_seed": 7,
        "lookup_seed": 13,
        "common_individuals": common_n,
        "big_individuals": big_n,
        "point_lookups": n_lookups,
        "instance_queries": n_queries,
        "derived_rows": {
            "common": common_result.derived_rows,
            "big": big_result.derived_rows,
        },
        "load_s": {
            "memory": memory_load_s,
            "sqlite_common": common_load_s,
            "sqlite_big": big_load_s,
        },
        "materialize_s": {
            "memory": memory_mat_s,
            "sqlite_common": common_mat_s,
            "sqlite_big": big_mat_s,
        },
        "reads": {
            "memory": memory_reads,
            "sqlite_common": common_reads,
            "sqlite_big": big_reads,
        },
        "instances_latency_ratio_big_vs_common": flatness,
        "flatness_factor_limit": flat_factor,
        "bytes": {
            "memory_peak_at_common": memory_peak_bytes,
            "memory_estimated_at_big": memory_big_estimate,
            "sqlite_common_file": common_bytes,
            "sqlite_big_file": big_bytes,
        },
    }


#: B14 TBox sizes: ``k`` builds ``random_tbox(7, n_defined=3k,
#: n_primitive=k)``, about ``4k`` names (the corpus perfbench serves)
B14_SCALES: dict[str, tuple[int, ...]] = {
    "tiny": (20, 100),
    "full": (100, 200, 400, 800),
}

#: best-of runs per B14 size, each on a fresh manager and line map
B14_REPEATS = 3


@contextmanager
def _counted_axiom_parses() -> Iterator[list[int]]:
    """Count the lines :func:`repro.dl.parse_tbox` hands to the parser."""
    from ..dl import parser

    calls = [0]
    parse_axiom = parser.parse_axiom

    def counted(text: str):
        calls[0] += 1
        return parse_axiom(text)

    parser.parse_axiom = counted
    try:
        yield calls
    finally:
        parser.parse_axiom = parse_axiom


def _b14_swap_cost() -> dict[str, Any]:
    """What a TBox swap costs, by stage, against what its edit changes.

    For each size, a cold parse-and-classify (a new
    :class:`repro.serve.SnapshotManager` from the text), a re-post of
    the same text, and a one-axiom edit (the first
    :func:`repro.corpora.generators.random_tbox_edit` of seed 0), each
    swapped through the manager.  Parsing goes through one line map as
    the server's does, so a re-post parses no line and the edit at most
    one.  Histograms ``bench.b14.n<names>.<swap>.<stage>_ms``: parse,
    change impact, classify (normalize, saturate, read off), poset and
    total, over :data:`B14_REPEATS` runs; counters
    ``bench.b14.n<names>.<swap>_lines_parsed`` from one run (every run
    parses the same lines).  The edit's served hierarchy must equal a
    cold classification of the edited text.

    Scale via ``REPRO_B14_SCALE`` (``tiny``/``full``).
    """
    import os
    import random

    from ..corpora.generators import random_tbox, random_tbox_edit
    from ..dl import classify, parse_tbox
    from ..dl.serialize import tbox_to_text
    from ..obs import NULL, Recorder, get_recorder
    from ..serve.snapshot import SnapshotManager

    scale = os.environ.get("REPRO_B14_SCALE", "tiny")
    if scale not in B14_SCALES:
        raise ValueError(
            f"REPRO_B14_SCALE={scale!r}; expected one of {sorted(B14_SCALES)}"
        )
    recorder = get_recorder()
    stages = {
        "impact": "snapshot.change_impact",
        "classify": "hierarchy.classify.saturation",
        "poset": "hierarchy.poset",
    }
    names_by_k: dict[str, int] = {}
    for k in B14_SCALES[scale]:
        text = tbox_to_text(
            random_tbox(7, n_defined=3 * k, n_primitive=k, n_roles=3)
        )
        base = parse_tbox(text)
        names = names_by_k[str(k)] = len(base.atomic_names())
        prefix = f"bench.b14.n{names}"
        edit = tbox_to_text(random_tbox_edit(random.Random(0), base))
        parsed: dict[str, set[int]] = {}
        for _ in range(B14_REPEATS):
            lines: dict = {}
            manager = None
            for swap, posted in (("cold", text), ("repost", text), ("edit", edit)):
                run_rec = Recorder()
                with use_recorder(run_rec), _counted_axiom_parses() as calls:
                    t0 = time.perf_counter()
                    known, lines = lines, {}
                    tbox = parse_tbox(posted, known, lines=lines)
                    t1 = time.perf_counter()
                    if manager is None:
                        manager = SnapshotManager(tbox)
                    else:
                        manager.swap(manager.prepare(tbox))
                    t2 = time.perf_counter()
                recorder.merge(run_rec.state())
                timers = run_rec.snapshot()["timers"]
                recorder.observe(f"{prefix}.{swap}.parse_ms", (t1 - t0) * 1e3)
                recorder.observe(f"{prefix}.{swap}.total_ms", (t2 - t0) * 1e3)
                for stage, timer in stages.items():
                    seconds = timers.get(timer, {}).get("total", 0.0)
                    recorder.observe(f"{prefix}.{swap}.{stage}_ms", seconds * 1e3)
                parsed.setdefault(swap, set()).add(calls[0])
                mode = manager.current.swap_mode
                assert mode == ("reused" if swap == "repost" else "full"), mode
        with use_recorder(NULL):  # the oracle's work stays out of the record
            oracle = classify(parse_tbox(edit))
        served = manager.current.hierarchy
        assert served.poset == oracle.poset
        assert served.group_of == oracle.group_of
        for swap, counts in parsed.items():
            (count,) = counts  # every run parses the same lines
            recorder.incr(f"{prefix}.{swap}_lines_parsed", count)
    return {
        "scale": scale,
        "tbox": {"seed": 7, "n_defined": "3k", "n_primitive": "k", "n_roles": 3},
        "names_by_k": names_by_k,
        "edit": {"generator": "random_tbox_edit", "seed": 0},
        "repeats": B14_REPEATS,
    }


BENCHES: dict[str, BenchSpec] = {
    "B1": BenchSpec(
        "B1", "tableau reasoning + TBox classification (chain, tree, random)", _b1_tableau
    ),
    "B2": BenchSpec(
        "B2", "VF2 isomorphism with WL prefilter on definition graphs", _b2_isomorphism
    ),
    "B3": BenchSpec(
        "B3", "triple store lookups, joins, and DL materialization", _b3_store
    ),
    "B4": BenchSpec("B4", "CYK/Earley recognition and the DFA crossover", _b4_grammar),
    "B5": BenchSpec("B5", "order-sorted rewriting to normal form", _b5_rewriting),
    "B6": BenchSpec(
        "B6", "budget-governed reasoning and escalation overhead", _b6_escalation
    ),
    "B10": BenchSpec(
        "B10",
        "one classification path: saturation and models, budgeted or not",
        _b10_saturation,
    ),
    "B12": BenchSpec(
        "B12",
        "DB-backed instance store vs in-memory at 1e5-1e6 individuals",
        _b12_instance_store,
        # counters ARE deterministic (row/derivation counts over seeded
        # data — asserted in the harness tests); params carry wall-clock
        # load/materialize timings, which are not
        deterministic=False,
    ),
    "B14": BenchSpec(
        "B14",
        "swap cost by stage: cold, re-posted and one-axiom swaps at 80-3,200 names",
        _b14_swap_cost,
    ),
}


# ---------------------------------------------------------------------- #
# running and writing
# ---------------------------------------------------------------------- #


def run_bench(bench_id: str) -> dict[str, Any]:
    """Run one bench under a fresh recorder; return its JSON-ready record."""
    spec = BENCHES.get(bench_id)
    if spec is None:
        raise KeyError(
            f"unknown bench {bench_id!r}; expected one of {sorted(BENCHES)}"
        )
    from ..dl.nnf import nnf_cache_clear

    recorder = Recorder()
    t0 = time.perf_counter()
    # benches measure real work, not injected faults, and their counters
    # must stay deterministic even under REPRO_FAULTS; the process-global
    # NNF interning cache is reset so nnf.cache_hits is run-order
    # independent
    nnf_cache_clear()
    with use_recorder(recorder), _faults.suspended():
        params = spec.workload()
    wall = time.perf_counter() - t0
    snapshot = recorder.snapshot()
    return {
        "schema_version": SCHEMA_VERSION,
        "bench": spec.bench_id,
        "description": spec.description,
        "params": params,
        "wall_time_s": wall,
        "counters": snapshot["counters"],
        "timers": snapshot["timers"],
        "histograms": snapshot["histograms"],
    }


def write_record(record: dict[str, Any], out_dir: str | Path) -> Path:
    """Write one record as ``BENCH_<id>.json`` under ``out_dir``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{record['bench']}.json"
    path.write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def run_suite(
    out_dir: str | Path, *, only: Optional[Iterable[str]] = None
) -> list[Path]:
    """Run benches (all by default) and write one JSON file each."""
    ids = list(only) if only else sorted(BENCHES)
    paths = []
    for bench_id in ids:
        record = run_bench(bench_id)
        paths.append(write_record(record, out_dir))
    return paths


def validate_record(record: Any) -> list[str]:
    """Schema check for one bench record; returns a list of problems.

    Empty list = valid.  Used by the test suite and by consumers that
    read the ``BENCH_*.json`` trajectory across PRs.
    """
    problems: list[str] = []
    if not isinstance(record, dict):
        return [f"record is {type(record).__name__}, not an object"]
    for key, expected in RECORD_SCHEMA.items():
        if key not in record:
            problems.append(f"missing key {key!r}")
        elif expected is float:
            if not isinstance(record[key], (int, float)) or isinstance(
                record[key], bool
            ):
                problems.append(f"{key!r} is not a number")
        elif not isinstance(record[key], expected):
            problems.append(f"{key!r} is not a {expected.__name__}")
    if not problems:
        if record["schema_version"] != SCHEMA_VERSION:
            problems.append(
                f"schema_version {record['schema_version']} != {SCHEMA_VERSION}"
            )
        if record["bench"] not in BENCHES:
            problems.append(f"unknown bench id {record['bench']!r}")
        if record["wall_time_s"] < 0:
            problems.append("wall_time_s is negative")
        for name, value in record["counters"].items():
            if not isinstance(name, str) or not isinstance(value, int):
                problems.append(f"counter {name!r} is not str -> int")
        for section in ("timers", "histograms"):
            for name, cell in record[section].items():
                if not isinstance(cell, dict) or not {
                    "count",
                    "total",
                    "min",
                    "max",
                    "mean",
                } <= set(cell):
                    problems.append(f"{section} entry {name!r} malformed")
    return problems
