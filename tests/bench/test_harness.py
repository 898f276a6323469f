"""Tests for the JSON bench harness: schema, determinism, coverage.

These encode the PR's acceptance criteria: ``python -m repro bench``
writes valid ``BENCH_B1.json`` … ``BENCH_B10.json`` whose counters are
non-zero for at least the tableau, hierarchy, and store subsystems, and
two runs over the seeded inputs produce identical counter values.
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
os.environ.setdefault("REPRO_B9_SCALE", "tiny")
os.environ.setdefault("REPRO_B10_SCALE", "tiny")
os.environ.setdefault("REPRO_B12_SCALE", "tiny")
os.environ.setdefault("REPRO_B13_SCALE", "tiny")


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

    def test_b7_has_serve_counters(self, suite_records):
        counters = suite_records["B7"]["counters"]
        assert counters["serve.batches"] > 0
        assert counters["serve.batched_hits"] > 0
        assert counters["serve.admitted"] >= 500
        params = suite_records["B7"]["params"]
        assert params["requests"] == 500
        # the acceptance criterion, re-checked from the committed record:
        # batched serving beats 500 one-shot calls by >= 3x tableau tests
        assert (
            params["served_tableau_tests"] * 3 <= params["one_shot_tableau_tests"]
        )
        # schema v2: latency/batch distributions are histograms with
        # quantiles from the sample rings, not params entries
        histograms = suite_records["B7"]["histograms"]
        latency = histograms["serve.request_latency_ms"]
        assert latency["count"] == params["requests"]
        assert latency["p99"] >= latency["p50"] > 0
        batch = histograms["serve.batch_size"]
        assert batch["count"] > 0
        assert batch["max"] >= 1

    def test_b9_has_mixed_traffic_counters(self, suite_records):
        record = suite_records["B9"]
        counters = record["counters"]
        params = record["params"]
        assert counters["bench.b9.queries"] == params["queries"]
        assert counters["bench.b9.edits"] == params["edits"]
        assert counters["editlog.appends"] == params["edits"]
        assert counters["serve.tbox_swaps"] >= 1
        # the mixed run's query latencies and per-edit ack latencies are
        # histograms with quantiles, schema-v2 style
        histograms = record["histograms"]
        assert (
            histograms["bench.b9.mixed_query_latency_ms"]["count"]
            == params["queries"]
        )
        assert histograms["bench.b9.edit_ack_ms"]["count"] == params["edits"]
        assert (
            histograms["serve.swap_visibility_ms"]["count"] == params["edits"]
        )
        # the acceptance shape, re-checked from the record: the mixed p99
        # stays within the scale's factor of the pure-query p99, and the
        # crash scenario lost nothing that was acknowledged
        assert params["mixed_p99_ms"] <= params["p99_factor_limit"] * max(
            params["baseline_p99_ms"], 1.0
        )
        assert params["kill_and_recover"]["lost_acknowledged_edits"] == 0
        assert params["kill_and_recover"]["recovered_version"] >= 2

    def test_committed_b9_record_shows_mixed_claims(self):
        """The checked-in BENCH_B9.json carries the full-scale claims:
        query p99 under a continuous edit stream within 2x the pure-query
        p99, and kill-and-recover losing zero acknowledged edits."""
        path = Path(__file__).resolve().parents[2] / "BENCH_B9.json"
        record = json.loads(path.read_text(encoding="utf-8"))
        assert record["schema_version"] == SCHEMA_VERSION
        params = record["params"]
        assert params["scale"] == "full"
        assert params["p99_factor_limit"] == 2.0
        assert params["mixed_p99_ms"] <= 2.0 * max(params["baseline_p99_ms"], 1.0)
        assert params["kill_and_recover"]["lost_acknowledged_edits"] == 0
        # the throttle actually degraded swap frequency at full scale:
        # not every edit in the stream got its own synchronous swap
        statuses = params["swap_statuses"]
        assert statuses.get("deferred", 0) + statuses.get("coalesced", 0) > 0
        assert record["counters"]["editlog.appends"] == params["edits"]

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

    def test_b13_has_scaling_sweep(self, suite_records):
        params = suite_records["B13"]["params"]
        # the sweep covers the single-process baseline plus every N
        assert "0" in params["sweep"]
        for workers in params["worker_counts"]:
            entry = params["sweep"][str(workers)]
            assert entry["throughput_rps"] > 0
            assert entry["p99_ms"] >= entry["p50_ms"]
            assert entry["swap_propagation_ms"] >= entry["swap_ack_ms"]
        # the worker-kill phase lost nothing (asserted in the bench;
        # recorded here) and actually restarted a worker
        assert params["worker_kill"]["requests_across_kill"] > 0
        assert params["worker_kill"]["restarts"] >= 1
        assert params["available_cpus"] >= 1
        assert params["speedup_gate"] in ("3x-at-4-workers", "no-collapse-floor")

    def test_committed_b13_record_shows_scaling(self):
        """The checked-in BENCH_B13.json carries the full-scale sweep:
        worker counts 1/2/4/8, the swap-propagation measurements, and a
        zero-loss worker kill.  The 3x-at-4-workers speedup is only
        asserted when the record was measured on >=4 usable CPUs — on a
        smaller box the committed gate is the no-collapse floor, and
        ``available_cpus`` says so."""
        path = Path(__file__).resolve().parents[2] / "BENCH_B13.json"
        record = json.loads(path.read_text(encoding="utf-8"))
        assert record["schema_version"] == SCHEMA_VERSION
        params = record["params"]
        assert params["scale"] == "full"
        assert params["worker_counts"] == [1, 2, 4, 8]
        base_rps = params["sweep"]["1"]["throughput_rps"]
        if params["speedup_gate"] == "3x-at-4-workers":
            assert params["available_cpus"] >= 4
            assert params["sweep"]["4"]["throughput_rps"] >= 3.0 * base_rps
        else:
            assert params["speedup_at_peak"] >= 0.4
        assert params["worker_kill"]["requests_across_kill"] > 0
        assert params["worker_kill"]["restarts"] >= 1

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
                f"{bench_id} records load-dependent measurements (live "
                "server batches/latencies, or wall-clock params); its "
                "invariants are asserted inside the workload"
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
