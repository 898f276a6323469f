"""What a reasoner learns from traffic is bounded, and forgetting is safe.

Counts, not timings: a classified reasoner pins its concept table's size
as a watermark, and a query that leaves the table more than
``LEARNED_CAP`` concepts past it forgets every concept above the
watermark and every sat or subsumption answer that uses one.  The
oracle is an uncapped reasoner over the same TBox; a successor adopting
from a predecessor that forgets on another thread must carry only
answers a fresh reasoner agrees with.
"""

import random
import sys
import threading

import pytest

from repro.corpora import nonhorn_tbox
from repro.dl import And, Atomic, Not, Or, Reasoner, at_least, at_most, only, some
from repro.dl import reasoner as reasoner_mod
from repro.robust import Budget
from repro.robust import faults


@pytest.fixture(autouse=True)
def quiet_faults():
    with faults.suspended():
        yield


def tbox():
    return nonhorn_tbox(0, families=3, disjunctions=1)


def concept_stream(seed: int, count: int, names, roles):
    """``count`` distinct complex concepts of depth at most two."""
    rng = random.Random(seed)

    def atom():
        name = Atomic(rng.choice(names))
        return Not(name) if rng.random() < 0.3 else name

    def concept(depth):
        if depth == 0:
            return atom()
        kind = rng.randrange(6)
        role = rng.choice(roles)
        if kind == 0:
            return some(role, concept(depth - 1))
        if kind == 1:
            return only(role, concept(depth - 1))
        if kind == 2:
            return And.of([atom(), concept(depth - 1)])
        if kind == 3:
            return Or.of([atom(), concept(depth - 1)])
        if kind == 4:
            return at_least(rng.randint(1, 3), role, concept(depth - 1))
        return at_most(rng.randint(1, 3), role, concept(depth - 1))

    seen, stream = set(), []
    while len(stream) < count:
        c = concept(rng.choice((1, 2)))
        if c not in seen:
            seen.add(c)
            stream.append(c)
    return stream


def queries(count: int):
    """Alternating sat and subsumption questions over the corpus."""
    source = tbox()
    names, roles = sorted(source.atomic_names()), sorted(source.role_names())
    stream = concept_stream(7, 2 * count, names, roles)
    return [
        ("sat", (stream[i],)) if i % 2 else ("subs", (stream[i], stream[i + count]))
        for i in range(count)
    ]


def budget():
    """Deterministic bounds: nodes and branches, no deadline."""
    return Budget(max_nodes=400, max_branches=200)


def ask(reasoner: Reasoner, kind: str, concepts):
    if kind == "sat":
        return reasoner.is_satisfiable_governed(concepts[0], budget())
    return reasoner.subsumes_governed(*concepts, budget())


class TestSoak:
    def test_thousands_of_queries_stay_under_the_cap(self, monkeypatch):
        asked = queries(3000)
        monkeypatch.setattr(reasoner_mod, "LEARNED_CAP", 10**9)
        uncapped = Reasoner(tbox())
        uncapped.classify()
        truth = [ask(uncapped, kind, concepts) for kind, concepts in asked]
        assert uncapped.cache_stats()["resets"] == 0

        cap = 64
        monkeypatch.setattr(reasoner_mod, "LEARNED_CAP", cap)
        capped = Reasoner(tbox())
        capped.classify()
        classified = capped.cache_stats()
        assert classified["pinned"] == classified["table"] > 0
        compared = 0
        for (kind, concepts), expected in zip(asked, truth):
            verdict = ask(capped, kind, concepts)
            stats = capped.cache_stats()
            assert stats["pinned"] == classified["pinned"]
            assert stats["table"] - stats["pinned"] <= cap, stats
            assert stats["sat"] - classified["sat"] <= cap, stats
            assert stats["subs"] - classified["subs"] <= cap, stats
            if verdict.is_definite and expected.is_definite:
                assert verdict == expected, (kind, concepts)
                compared += 1
        assert stats["resets"] >= 3000 // cap
        assert uncapped.cache_stats()["table"] > 10 * cap
        assert compared > 2500

    def test_forgetting_keeps_every_classification_answer(self, monkeypatch):
        monkeypatch.setattr(reasoner_mod, "LEARNED_CAP", 16)
        reasoner = Reasoner(tbox())
        hierarchy = reasoner.classify()
        classified = reasoner.cache_stats()
        for kind, concepts in queries(200):
            ask(reasoner, kind, concepts)
        stats = reasoner.cache_stats()
        assert stats["resets"] > 0
        assert stats["sat"] >= classified["sat"]
        assert stats["subs"] >= classified["subs"]
        assert reasoner.classify() is hierarchy  # still the cached answer


class TestAdoptRacesForgetting:
    def test_adopt_from_a_forgetting_predecessor(self, monkeypatch):
        """Every answer adopted mid-reset answers like a fresh reasoner's."""
        monkeypatch.setattr(reasoner_mod, "LEARNED_CAP", 24)
        predecessor = Reasoner(tbox())
        predecessor.classify()
        # a concept and its clash alternate, so a concept paired with
        # its neighbour's answer would read the opposite verdict
        stream = []
        for _kind, (concept, *_rest) in queries(300):
            stream += [concept, And.of([concept, Not(concept)])]
        fresh = Reasoner(tbox())
        adopted: list = []
        failures: list = []
        done = threading.Event()

        def publisher():
            try:
                while not done.is_set():
                    successor = Reasoner(predecessor.tbox)
                    successor.adopt_caches(predecessor, invalid=frozenset())
                    successor.classify()
                    learned = successor._learned
                    table = learned.tableau.concepts
                    adopted.extend(
                        (table[key], value) for key, value in learned.sat.items()
                    )
            except BaseException as exc:  # pragma: no cover - reported below
                failures.append(exc)

        # three threads, more than two cores run at once, switching often
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        threads = [threading.Thread(target=publisher) for _ in range(2)]
        for thread in threads:
            thread.start()
        try:
            for concept in stream:
                predecessor.is_satisfiable_governed(concept, budget())
        finally:
            done.set()
            for thread in threads:
                thread.join(timeout=60)
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures
        assert predecessor.cache_stats()["resets"] > 10
        assert len(adopted) > 100
        checked = 0
        for concept, value in set(adopted):
            verdict = fresh.is_satisfiable_governed(concept, budget())
            if verdict.is_definite:
                assert verdict.as_bool() == value, concept
                checked += 1
        assert checked > 100


class TestAdoptCarriesABoundedShare:
    def test_pinned_answers_and_the_newest_traffic(self, monkeypatch):
        monkeypatch.setattr(reasoner_mod, "LEARNED_CAP", 10**9)
        predecessor = Reasoner(tbox())
        predecessor.classify()
        for kind, concepts in queries(400):
            ask(predecessor, kind, concepts)
        learned = predecessor._learned
        table, cut = learned.tableau.concepts, learned.pinned[0]
        expected = {}
        for name, cache, ids in (
            ("sat", learned.sat, lambda key: (key,)),
            ("subs", learned.subs, lambda key: key),
        ):
            entries = [
                (tuple(table[i] for i in ids(key)), value, max(ids(key)) < cut)
                for key, value in cache.items()
            ]
            pinned = {c: v for c, v, below in entries if below}
            traffic = [(c, v) for c, v, below in entries if not below]
            assert len(traffic) > 8
            expected[name] = (pinned, dict(traffic[-8:]))

        monkeypatch.setattr(reasoner_mod, "LEARNED_CAP", 64)  # carries 8 a cache
        successor = Reasoner(tbox())
        successor.adopt_caches(predecessor, invalid=frozenset())
        successor.classify()
        mine = successor._learned
        table = mine.tableau.concepts
        carried = {
            "sat": {(table[k],): v for k, v in mine.sat.items()},
            "subs": {(table[g], table[s]): v for (g, s), v in mine.subs.items()},
        }
        for name, (pinned, newest) in expected.items():
            assert pinned.items() <= carried[name].items()
            assert newest.items() <= carried[name].items()
            assert len(carried[name]) == len(pinned) + len(newest)
        # the carried traffic lies above the successor's own watermark
        stats = successor.cache_stats()
        assert stats["table"] > stats["pinned"] > 0
