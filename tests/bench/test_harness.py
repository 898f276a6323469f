"""Tests for the JSON bench harness: schema, determinism, coverage.

``python -m repro bench`` writes a valid ``BENCH_<id>.json`` for every
substrate bench (B1–B6, B10, B12) whose counters are non-zero for at
least the tableau, hierarchy, and store subsystems, and two runs over
the seeded inputs produce identical counter values.
"""

import json
import os
from pathlib import Path

import pytest

from repro.bench import (
    BENCHES,
    SCHEMA_VERSION,
    run_bench,
    run_suite,
    validate_record,
)

ALL_IDS = sorted(BENCHES)

# keep the scaled workloads at test scale regardless of the caller's shell
os.environ.setdefault("REPRO_B10_SCALE", "tiny")
os.environ.setdefault("REPRO_B12_SCALE", "tiny")


@pytest.fixture(scope="module")
def suite_records(tmp_path_factory):
    """Run the full suite once; return {bench_id: parsed record}."""
    out = tmp_path_factory.mktemp("bench")
    paths = run_suite(out)
    return {
        path.name.removeprefix("BENCH_").removesuffix(".json"): json.loads(
            path.read_text(encoding="utf-8")
        )
        for path in paths
    }


class TestSchema:
    def test_all_benches_written(self, suite_records):
        assert sorted(suite_records) == ALL_IDS

    def test_every_record_validates(self, suite_records):
        for bench_id, record in suite_records.items():
            assert validate_record(record) == [], bench_id

    def test_schema_fields(self, suite_records):
        for record in suite_records.values():
            assert record["schema_version"] == SCHEMA_VERSION
            assert record["bench"] in BENCHES
            assert record["wall_time_s"] > 0
            assert isinstance(record["params"], dict) and record["params"]
            assert all(
                isinstance(v, int) and v >= 0 for v in record["counters"].values()
            )

    def test_validate_record_rejects_garbage(self):
        assert validate_record(None)
        assert validate_record({}) == [
            f"missing key {key!r}"
            for key in (
                "schema_version",
                "bench",
                "description",
                "params",
                "wall_time_s",
                "counters",
                "timers",
                "histograms",
            )
        ]
        good = run_bench("B4")
        assert validate_record(good) == []
        bad = dict(good, schema_version=99)
        assert validate_record(bad)
        bad = dict(good, wall_time_s="fast")
        assert validate_record(bad)

    def test_run_bench_unknown_id(self):
        with pytest.raises(KeyError):
            run_bench("B99")


class TestCounterCoverage:
    """Acceptance: non-zero counters from tableau, hierarchy, and store."""

    def test_b1_has_tableau_and_hierarchy_counters(self, suite_records):
        counters = suite_records["B1"]["counters"]
        assert counters["tableau.expansions"] > 0
        assert counters["tableau.solve_calls"] > 0
        assert counters["hierarchy.classifications"] > 0
        # classification of the Horn/EL workloads goes through the
        # consequence-based saturation fast path, not told seeding
        assert counters["saturation.rules_fired"] > 0
        assert counters["intern.table_size"] > 0
        assert counters["reasoner.subs_cache_misses"] > 0

    def test_b3_has_store_counters(self, suite_records):
        counters = suite_records["B3"]["counters"]
        assert counters["store.index_lookups"] > 0
        assert counters["store.scan_lookups"] > 0
        assert counters["store.query.joins"] > 0
        assert counters["materialize.facts_added"] > 0
        # materialization reaches down into the tableau too
        assert counters["tableau.solve_calls"] > 0

    def test_b10_has_saturation_counters(self, suite_records):
        record = suite_records["B10"]
        counters = record["counters"]
        params = record["params"]
        assert counters["saturation.rules_fired"] > 0
        assert counters.get("saturation.tableau_fallbacks", 0) == 0
        assert counters["intern.table_size"] > 0
        # the acceptance criterion, re-checked from the record: the
        # saturation fast path classifies with >= 5x fewer tableau tests
        assert (
            params["saturation_tableau_tests"] * 5
            <= params["enhanced_tableau_tests"]
        )
        histograms = record["histograms"]
        assert histograms["bench.b10.enhanced_classify_ms"]["count"] == 1
        assert histograms["bench.b10.saturation_classify_ms"]["count"] == 1

    def test_committed_b10_record_shows_reduction(self):
        """The checked-in BENCH_B10.json carries the full-scale claims:
        >= 5x fewer tableau tests AND >= 5x less wall-clock than the
        enhanced baseline on the B1-scale workload."""
        path = Path(__file__).resolve().parents[2] / "BENCH_B10.json"
        record = json.loads(path.read_text(encoding="utf-8"))
        assert record["schema_version"] == SCHEMA_VERSION
        params = record["params"]
        assert params["scale"] == "full"
        assert params["tbox"] == {
            "seed": 0,
            "n_defined": 22,
            "n_primitive": 8,
            "n_roles": 3,
        }
        assert params["saturation_tableau_tests"] * 5 <= params[
            "enhanced_tableau_tests"
        ]
        histograms = record["histograms"]
        enhanced_ms = histograms["bench.b10.enhanced_classify_ms"]["mean"]
        saturation_ms = histograms["bench.b10.saturation_classify_ms"]["mean"]
        assert saturation_ms * 5 <= enhanced_ms

    def test_b12_has_instdb_counters(self, suite_records):
        record = suite_records["B12"]
        counters = record["counters"]
        params = record["params"]
        assert counters["instdb.individuals"] > 0
        assert counters["instdb.told_assertions"] > 0
        assert counters["instdb.derived_rows"] > 0
        assert counters["instdb.materialize_runs"] == 3  # memory+common+big
        assert counters["instdb.queries.instances"] > 0
        assert counters["instdb.queries.types"] > 0
        assert (
            counters["bench.b12.common_individuals"]
            == params["common_individuals"]
        )
        assert counters["bench.b12.big_individuals"] == params["big_individuals"]
        # memory and sqlite derived identical row counts (cross-checked
        # in the workload; re-check the recorded shape here)
        assert params["derived_rows"]["big"] > params["derived_rows"]["common"]
        histograms = record["histograms"]
        assert (
            histograms["bench.b12.sqlite_big_point_lookup_ms"]["count"]
            == params["point_lookups"]
        )
        assert (
            histograms["bench.b12.sqlite_big_instances_ms"]["count"]
            == params["instance_queries"]
        )
        assert params["bytes"]["sqlite_big_file"] > 0

    def test_b12_counters_are_deterministic(self):
        """B12 is exempt from the generic determinism test only because
        its *params* carry wall-clock timings; the counters — row counts
        over seeded data — must still be identical run to run."""
        first = run_bench("B12")
        second = run_bench("B12")
        assert first["counters"] == second["counters"]

    def test_committed_b12_record_shows_crossover(self):
        """The checked-in BENCH_B12.json carries the full-scale claims:
        a million individuals load + materialize in sqlite, point lookups
        and instances() stay indexed (near-flat from 1e5 to 1e6), and the
        sqlite file undercuts the in-memory footprint estimate."""
        path = Path(__file__).resolve().parents[2] / "BENCH_B12.json"
        record = json.loads(path.read_text(encoding="utf-8"))
        assert record["schema_version"] == SCHEMA_VERSION
        params = record["params"]
        assert params["scale"] == "full"
        assert params["big_individuals"] == 1_000_000
        assert (
            params["instances_latency_ratio_big_vs_common"]
            <= params["flatness_factor_limit"]
        )
        assert record["counters"]["instdb.derived_rows"] > 1_000_000
        assert (
            params["bytes"]["sqlite_big_file"]
            < params["bytes"]["memory_estimated_at_big"]
        )

    def test_b6_has_robust_counters(self, suite_records):
        counters = suite_records["B6"]["counters"]
        assert counters["robust.exhaustions"] > 0
        assert counters["robust.escalations"] > 0
        assert counters["robust.unknown_verdicts"] > 0
        assert counters["hierarchy.unknown_edges"] > 0
        params = suite_records["B6"]["params"]
        assert params["initial_max_nodes"] == 10
        assert params["classify_escalation_rounds"] >= 1
        assert params["probe_escalation_rounds"] >= 1

    def test_every_bench_records_some_work(self, suite_records):
        for bench_id, record in suite_records.items():
            assert any(v > 0 for v in record["counters"].values()), bench_id


class TestDeterminism:
    @pytest.mark.parametrize("bench_id", ALL_IDS)
    def test_two_runs_identical_counters(self, bench_id):
        if not BENCHES[bench_id].deterministic:
            pytest.skip(
                f"{bench_id} records wall-clock params; its counters are "
                "compared by its own test"
            )
        first = run_bench(bench_id)
        second = run_bench(bench_id)
        assert first["counters"] == second["counters"]
        assert first["params"] == second["params"]
        # timer *counts* are deterministic even though durations are not
        first_timer_counts = {k: v["count"] for k, v in first["timers"].items()}
        second_timer_counts = {k: v["count"] for k, v in second["timers"].items()}
        assert first_timer_counts == second_timer_counts


class TestSuiteWriter:
    def test_only_subset(self, tmp_path):
        paths = run_suite(tmp_path, only=["B2", "B5"])
        assert [p.name for p in paths] == ["BENCH_B2.json", "BENCH_B5.json"]

    def test_files_end_with_newline(self, tmp_path):
        (path,) = run_suite(tmp_path, only=["B4"])
        assert path.read_text(encoding="utf-8").endswith("\n")

    def test_benchmarks_harness_wrapper_reexports(self):
        import importlib.util
        import pathlib

        spec = importlib.util.spec_from_file_location(
            "bench_wrapper",
            pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "harness.py",
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.BENCHES is BENCHES
        assert callable(module.main)
