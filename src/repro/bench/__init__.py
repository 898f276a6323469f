"""The JSON bench harness: the perf trajectory every later PR is judged by.

``python -m repro bench`` runs the substrate workloads in
:data:`BENCHES` (B1–B6, B10, B12) under an :class:`repro.obs.Recorder`
and writes one ``BENCH_<id>.json`` per bench (wall time + the full
counter/timer snapshot).  Serving is benchmarked by ``perfbench/``
instead.  See :mod:`repro.bench.harness`.
"""

from .harness import (
    BENCHES,
    SCHEMA_VERSION,
    run_bench,
    run_suite,
    validate_record,
    write_record,
)

__all__ = [
    "BENCHES",
    "SCHEMA_VERSION",
    "run_bench",
    "run_suite",
    "validate_record",
    "write_record",
]
