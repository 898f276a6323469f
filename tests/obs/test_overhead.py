"""The instrumentation's cost budgets on the B1 chain-subsumption workload.

Disabled instrumentation must cost < 5%.  Its baseline is the
theoretical floor — every ``repro.obs.recorder`` hot-path helper
monkeypatched to a bare no-op lambda, i.e. what the code would cost if
the instrumentation calls did literally nothing.  The shipped disabled
path (null recorder: one global load + one identity check per call) is
compared against that floor.

Enabled instrumentation (a live ``Recorder``: counters plus a histogram
bucket per timed span) must cost at most 25% over the disabled path.

Min-of-N timing with a retry loop keeps scheduler noise from flaking
either assertion.
"""

import time

import pytest

from repro.corpora.generators import chain_tbox
from repro.dl import Atomic, Reasoner
from repro.obs import NULL, Recorder, get_recorder, use_recorder
from repro.obs import recorder as recorder_module


def b1_workload():
    """One B1 chain-subsumption run (fresh reasoner: no cross-run caching)."""
    tbox = chain_tbox(24)
    reasoner = Reasoner(tbox)
    assert reasoner.subsumes(Atomic("C24"), Atomic("C0"))
    assert not reasoner.subsumes(Atomic("C0"), Atomic("C24"))


def min_time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def trial_ratios(run, base, budget: float) -> list[float]:
    """Best-of-5 ``run``/``base`` time ratios, one per trial.

    Retry loop: stops at the first quiet trial within ``budget``, so
    the last ratio exceeds it only if every one of four trials did.
    """
    ratios = []
    for _ in range(4):
        floor = min_time(base, 5)
        ratios.append(min_time(run, 5) / floor)
        if ratios[-1] < budget:
            break
    return ratios


def test_disabled_recorder_overhead_under_5_percent(monkeypatch):
    assert get_recorder() is NULL  # the shipped default really is disabled

    b1_workload()  # warm imports and code paths before timing

    noop = lambda *args, **kwargs: None  # noqa: E731

    def floor_run():
        with monkeypatch.context() as patch:
            patch.setattr(recorder_module, "incr", noop)
            patch.setattr(recorder_module, "observe", noop)
            patch.setattr(recorder_module, "record_timing", noop)
            b1_workload()

    ratios = trial_ratios(b1_workload, floor_run, 1.05)
    if ratios[-1] >= 1.05:
        pytest.fail(
            f"disabled-recorder overhead exceeded 5% in every trial: ratios={ratios}"
        )


def test_enabled_recorder_overhead_within_25_percent():
    assert get_recorder() is NULL

    b1_workload()

    def enabled_run():
        with use_recorder(Recorder()):
            b1_workload()

    ratios = trial_ratios(enabled_run, b1_workload, 1.25)
    if ratios[-1] >= 1.25:
        pytest.fail(
            f"enabled-recorder overhead exceeded 25% in every trial: ratios={ratios}"
        )


def test_enabled_recorder_records_without_changing_results():
    """Sanity companion: enabling recording must not alter answers."""
    rec = Recorder()
    with use_recorder(rec):
        b1_workload()
    assert rec.counters["tableau.expansions"] > 0
    assert rec.counters["reasoner.subs_cache_misses"] == 2
