"""JSON bench harness entry point (wraps :mod:`repro.bench.harness`).

The pytest benches in this directory measure *time* with
pytest-benchmark; this harness snapshots *work* — the ``repro.obs``
counters (tableau expansions, cache hits, index lookups, ...) — into one
``BENCH_<id>.json`` per substrate bench, the trajectory later perf PRs
are compared against.

Run either of::

    python -m repro bench --out .
    python benchmarks/harness.py --out .

Schema and workloads live in :mod:`repro.bench.harness`; tests in
``tests/bench/test_harness.py`` validate the schema and assert the
counters are deterministic for the seeded inputs.
"""

from __future__ import annotations

import argparse

from repro.bench import (  # noqa: F401 - re-exported for bench consumers
    BENCHES,
    SCHEMA_VERSION,
    run_bench,
    run_suite,
    validate_record,
    write_record,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="harness",
        description="run the instrumented substrate benches and write BENCH_*.json",
    )
    parser.add_argument("--out", default=".", help="output directory (default: .)")
    parser.add_argument(
        "--only",
        action="append",
        metavar="ID",
        choices=sorted(BENCHES),
        help="run only this bench (repeatable)",
    )
    args = parser.parse_args(argv)
    for path in run_suite(args.out, only=args.only):
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
