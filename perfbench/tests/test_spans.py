"""The self-time arithmetic and the per-layer aggregation."""

import pytest

from spans import covered, layer_metrics, self_times


def test_covered_merges_overlaps_and_clips():
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(2.0, 4.0), (3.0, 5.0)]) == pytest.approx(3.0)
    assert covered(0.0, 10.0, [(-5.0, 1.0), (9.0, 20.0)]) == pytest.approx(2.0)
    assert covered(0.0, 10.0, [(1.0, 2.0), (3.0, 4.0)]) == pytest.approx(2.0)
    assert covered(0.0, 10.0, [(11.0, 12.0)]) == 0.0


def test_self_time_subtracts_children_once():
    # pid, id, parent, name, start, end, rid, extra
    spans = [
        (1, 1, None, "root", 0.0, 10.0, 7, None),
        (1, 2, 1, "child", 1.0, 4.0, 7, None),
        (1, 3, 1, "child", 3.0, 6.0, 7, None),  # overlaps its sibling
        (1, 4, 2, "grandchild", 2.0, 3.0, 7, None),
        (2, 1, None, "other process", 0.0, 1.0, None, None),
    ]
    own = self_times(spans)
    assert own[1, 1] == pytest.approx(10.0 - 5.0)
    assert own[1, 2] == pytest.approx(3.0 - 1.0)
    assert own[1, 3] == pytest.approx(3.0)
    assert own[1, 4] == pytest.approx(1.0)
    # span ids are per process: pid 2's span 1 has no children
    assert own[2, 1] == pytest.approx(1.0)


def test_layer_metrics_window_hop_and_shares():
    dumps = {
        "roles": {10: "front", 20: "worker"},
        "spans": [
            (10, 1, None, "serve.protocol.read", 1.0, 1.00002, 5, None),
            (10, 2, None, "serve.admission.admit", 1.1, 1.10001, 5, False),
            (10, 3, None, "serve.admission.admit", 1.2, 1.20001, 6, True),
            (10, 4, None, "serve.control.request", 1.3, 1.3010, 5, None),
            (20, 1, None, "serve.request", 1.3002, 1.3008, 5, None),
            (20, 2, None, "dl.reasoner.governed", 1.3003, 1.3004, 5, True),
            (20, 3, None, "dl.reasoner.governed", 1.3005, 1.3006, 6, False),
            # outside the window: not counted
            (10, 5, None, "serve.protocol.read", 50.0, 60.0, 9, None),
            # boot-time classification counts wherever it happens
            (10, 6, None, "dl.reasoner.classify", 0.0, 0.25, None, None),
        ],
        "waits": [(1.0, 1.005), (99.0, 99.5)],
        "lags": [(1.0, 0.001), (1.5, 0.003)],
    }
    counters = {"reasoner.sat_cache_hits": 3, "reasoner.sat_cache_misses": 1,
                "tableau.solve_calls": 4, "workers.proxied": 2}
    out = layer_metrics(dumps, [(0.5, 2.0), (70.0, 80.0)], counters, requests=2)
    assert out["serve.protocol.read.calls"] == (1.0, "count")
    assert out["serve.protocol.read_us"][0] == pytest.approx(20.0)
    assert out["serve.admission.refused_share"] == (0.5, "fraction")
    assert out["dl.reasoner.unknown_share"] == (0.5, "fraction")
    assert out["dl.reasoner.cache_hit_share"] == (0.75, "fraction")
    assert out["dl.tableau.solves_per_request"] == (2.0, "count")
    assert out["dl.reasoner.classify_ms"][0] == pytest.approx(250.0)
    assert out["serve.batcher.wait_ms"][0] == pytest.approx(5.0)
    # 1000 us on the front minus 600 us of handling in the worker
    assert out["serve.workers.hop_us"][0] == pytest.approx(400.0)
    assert out["serve.workers.retry_share"] == (0.0, "fraction")
    assert out["serve.loop.lag_p90_ms"][0] == pytest.approx(2.8)
    assert out["instdb.refresh.calls"] == (0.0, "count")
