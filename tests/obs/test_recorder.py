"""Unit tests for the repro.obs recorder layer."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs import ALPHA, NULL, NullRecorder, Recorder, use_recorder


class TestRecorder:
    def test_counters_accumulate(self):
        rec = Recorder()
        rec.incr("a.b")
        rec.incr("a.b", 4)
        rec.incr("c")
        assert rec.counters == {"a.b": 5, "c": 1}

    def test_observe_summarizes(self):
        rec = Recorder()
        for value in (3.0, 1.0, 2.0):
            rec.observe("h", value)
        cell = rec.snapshot()["histograms"]["h"]
        assert cell["count"] == 3
        assert cell["min"] == 1.0
        assert cell["max"] == 3.0
        assert cell["total"] == 6.0
        assert cell["mean"] == pytest.approx(2.0)

    def test_snapshot_is_a_copy(self):
        rec = Recorder()
        rec.incr("a")
        snap = rec.snapshot()
        snap["counters"]["a"] = 99
        assert rec.counters["a"] == 1

    def test_to_json_round_trips(self):
        rec = Recorder()
        rec.incr("a", 2)
        rec.observe("h", 1.5)
        rec.record_timing("t", 0.25)
        data = json.loads(rec.to_json())
        assert data["counters"]["a"] == 2
        assert data["histograms"]["h"]["count"] == 1
        assert data["timers"]["t"]["total"] == 0.25

    def test_reset(self):
        rec = Recorder()
        rec.incr("a")
        rec.observe("h", 1.0)
        rec.reset()
        snap = rec.snapshot()
        assert snap["counters"] == {}
        assert snap["histograms"] == {}


class TestCurrentRecorder:
    def test_default_is_null(self):
        assert obs.get_recorder() is NULL
        # module helpers are no-ops without an active recorder
        obs.incr("ignored")
        obs.observe("ignored", 1.0)
        with obs.trace("ignored"):
            pass
        assert NULL.counters == {}

    def test_use_recorder_scopes_and_restores(self):
        rec = Recorder()
        with use_recorder(rec):
            obs.incr("scoped")
            assert obs.get_recorder() is rec
        assert obs.get_recorder() is NULL
        assert rec.counters == {"scoped": 1}

    def test_use_recorder_restores_on_error(self):
        rec = Recorder()
        with pytest.raises(RuntimeError):
            with use_recorder(rec):
                raise RuntimeError("boom")
        assert obs.get_recorder() is NULL

    def test_nested_recorders(self):
        outer, inner = Recorder(), Recorder()
        with use_recorder(outer):
            obs.incr("x")
            with use_recorder(inner):
                obs.incr("x")
            obs.incr("x")
        assert outer.counters == {"x": 2}
        assert inner.counters == {"x": 1}

    def test_set_recorder_none_restores_null(self):
        rec = Recorder()
        obs.set_recorder(rec)
        try:
            assert obs.get_recorder() is rec
        finally:
            obs.set_recorder(None)
        assert obs.get_recorder() is NULL

    def test_trace_records_span(self):
        rec = Recorder()
        with use_recorder(rec):
            with obs.trace("outer"):
                pass
        assert rec.snapshot()["timers"]["outer"]["count"] == 1

    def test_null_recorder_methods_do_nothing(self):
        null = NullRecorder()
        null.incr("a")
        null.observe("h", 1.0)
        null.record_timing("t", 1.0)
        assert null.snapshot() == {"counters": {}, "timers": {}, "histograms": {}}


def shipped(rec: Recorder) -> dict:
    """``rec.state()`` as a worker ships it: through JSON."""
    return json.loads(json.dumps(rec.state()))


@st.composite
def split_values(draw):
    """Positive values, an owner for each among 1–4 recorders, a merge order."""
    parts = draw(st.integers(1, 4))
    values = draw(
        st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=300)
    )
    owners = draw(
        st.lists(st.integers(0, parts - 1), min_size=len(values), max_size=len(values))
    )
    return values, owners, draw(st.permutations(range(parts)))


class TestMerge:
    def test_pool_quantiles_do_not_depend_on_merge_order(self):
        # the pooled p50 lies in one recorder and the p99 in the other,
        # so a merge that keeps only a recent window of values gets one
        # of them wrong whichever side merges last
        ones, hundreds = Recorder(), Recorder()
        for _ in range(900):
            ones.observe("h", 1.0)
        for _ in range(512):
            hundreds.observe("h", 100.0)
        states = [shipped(ones), shipped(hundreds)]
        for order in (states, states[::-1]):
            merged = Recorder()
            for state in order:
                merged.merge(state)
            cell = merged.snapshot()["histograms"]["h"]
            assert cell["count"] == 1412
            assert cell["p50"] == pytest.approx(1.0, rel=ALPHA)
            assert cell["p99"] == pytest.approx(100.0, rel=ALPHA)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(split_values())
    def test_merged_recorders_equal_one_recorder(self, split):
        values, owners, order = split
        whole = Recorder()
        parts = [Recorder() for _ in order]
        for value, owner in zip(values, owners):
            whole.observe("h", value)
            parts[owner].observe("h", value)
        merged = Recorder()
        for index in order:
            merged.merge(shipped(parts[index]))
        got = merged.snapshot()["histograms"]["h"]
        want = whole.snapshot()["histograms"]["h"]
        for key in ("count", "min", "max", "p50", "p99"):
            assert got[key] == want[key], key
        ordered = sorted(values)
        for key, q in (("p50", 0.50), ("p99", 0.99)):
            exact = ordered[round(q * (len(ordered) - 1))]
            # a bucket's edge sits exactly ALPHA from its representative,
            # so allow the float rounding of γ^k on top
            assert got[key] == pytest.approx(exact, rel=ALPHA + 1e-12), key

    def test_null_recorder_merges_nothing(self):
        rec = Recorder()
        rec.incr("a")
        rec.observe("h", 1.0)
        rec.record_timing("t", 0.1)
        NULL.merge(rec.state())
        assert NULL.snapshot() == {"counters": {}, "timers": {}, "histograms": {}}


class TestInstrumentationCoverage:
    """The hot paths named in the ISSUE actually tick their counters."""

    def test_tableau_and_reasoner_counters(self):
        from repro.corpora.generators import chain_tbox
        from repro.dl import Atomic, Reasoner

        rec = Recorder()
        with use_recorder(rec):
            reasoner = Reasoner(chain_tbox(6))
            reasoner.subsumes(Atomic("C6"), Atomic("C0"))
            reasoner.subsumes(Atomic("C6"), Atomic("C0"))
        assert rec.counters["tableau.expansions"] > 0
        assert rec.counters["reasoner.subs_cache_misses"] == 1
        assert rec.counters["reasoner.subs_cache_hits"] == 1

    def test_hierarchy_counters(self):
        from repro.corpora import nonhorn_tbox
        from repro.corpora.vehicles import vehicle_tbox
        from repro.dl import classify

        rec = Recorder()
        with use_recorder(rec):
            # the default classifies this EL corpus by saturation
            classify(vehicle_tbox())
        assert rec.counters["hierarchy.classifications"] == 1
        assert rec.counters["saturation.rules_fired"] > 0
        assert "tableau.solve_calls" not in rec.counters
        rec2 = Recorder()
        nonhorn = nonhorn_tbox(0, families=1, disjunctions=1)
        with use_recorder(rec2):
            # a non-Horn residue drives the tableau counters: one model
            # per name and one for ⊤
            classify(nonhorn)
        models = len(nonhorn.atomic_names()) + 1
        assert rec2.counters["hierarchy.models"] == models
        assert rec2.counters["tableau.solve_calls"] >= models

    def test_store_counters_index_vs_scan(self):
        from repro.store import TripleStore

        rec = Recorder()
        with use_recorder(rec):
            indexed = TripleStore()
            indexed.add("s", "p", "o")
            indexed.count(subject="s")
            scan = TripleStore(use_indexes=False)
            scan.add("s", "p", "o")
            scan.count(subject="s")
        assert rec.counters["store.index_lookups"] == 1
        assert rec.counters["store.scan_lookups"] == 1

    def test_query_counters(self):
        from repro.store import Pattern, Query, TripleStore, Var

        rec = Recorder()
        with use_recorder(rec):
            store = TripleStore()
            store.add("a", "p", "b")
            store.add("b", "q", "c")
            x, y = Var("x"), Var("y")
            rows = Query([Pattern(x, "p", y), Pattern(y, "q", "c")]).run(store)
        assert rows
        assert rec.counters["store.query.joins"] == 1
        assert rec.counters["store.query.order.selectivity"] == 1
        assert rec.counters["store.query.solutions"] == 1
        assert rec.counters["store.query.intermediate_bindings"] >= 2

    def test_materialize_counters(self):
        from repro.corpora.vehicles import vehicle_tbox
        from repro.store import TripleStore, materialize

        rec = Recorder()
        with use_recorder(rec):
            store = TripleStore()
            store.add("herbie", "type", "car")
            materialize(store, vehicle_tbox())
        assert rec.counters["materialize.runs"] == 1
        assert rec.counters["materialize.instance_checks"] > 0
        assert rec.counters["materialize.facts_added"] > 0

    def test_critique_phase_timings(self):
        from repro.core import critique
        from repro.corpora.vehicles import vehicle_tbox

        rec = Recorder()
        with use_recorder(rec):
            report = critique(vehicle_tbox())
        assert set(report.timings) == {"syntactic", "semantic", "pragmatic"}
        assert all(t >= 0 for t in report.timings.values())
        timers = rec.snapshot()["timers"]
        assert "critique.semantic" in timers
        # the rendered report surfaces the phase timings
        assert "phase timings:" in report.render()
