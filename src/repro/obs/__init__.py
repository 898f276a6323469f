"""Observability: lightweight metrics and tracing for the hot paths.

A perf claim cannot be proved unless the hot paths are measurable.
This package provides the counters and the one mergeable histogram type
(timers, trace spans and histograms) that `python -m repro bench`
snapshots into the ``BENCH_*.json`` trajectory files.

Usage::

    from repro.obs import Recorder, use_recorder

    rec = Recorder()
    with use_recorder(rec):
        classify(tbox)          # instrumented hot paths record into rec
    print(rec.to_json())

With no recorder installed the instrumentation is a null default whose
cost is one global load and an identity check per call site.
"""

from .recorder import (
    ALPHA,
    NULL,
    Histogram,
    NullRecorder,
    Recorder,
    get_recorder,
    incr,
    observe,
    record_timing,
    set_recorder,
    trace,
    use_recorder,
)

__all__ = [
    "ALPHA",
    "NULL",
    "Histogram",
    "NullRecorder",
    "Recorder",
    "get_recorder",
    "incr",
    "observe",
    "record_timing",
    "set_recorder",
    "trace",
    "use_recorder",
]
