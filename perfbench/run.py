"""The serving benchmark: one workload against a real ``repro serve`` process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload named-read --seed 1 --seconds 12 --trace 0

Inputs are generated from ``--seed``; the server receives only the
generated TBox, store files and request bytes.  With ``--trace 0`` the
run reports the end-to-end metrics; with ``--trace 1`` it runs the
workload once plain and once under ``perfbench/traced_serve.py`` and
reports the per-layer metrics plus the tracing overhead.  Every answer
is checked against an oracle; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``, and a wrong answer
makes the exit status 1.  A fuller record (sample counts, the ungated
p99, the median and fastest edit ack, the generator's lateness, the
oracle's undecided share, the tracing overhead) is written to
``.perfbench_runs/<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: segments of a plain pass: each boots a fresh server and drives it for
#: ``--seconds / SEGMENTS``, split into the workload's read windows with
#: a write probe after each.  Interleaving set-up, probes and reads makes
#: every metric sample the whole run: on a shared machine the speed of a
#: fixed loop drifts by a fifth within seconds, and probe and set-up
#: samples bunched at the start of a run moved by up to 60% between runs
#: while the reads did not.
SEGMENTS = 5


def _percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method), ``q`` a multiple of 10."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def run_pass(workload, traced: bool, segments: int) -> dict:
    """Boot, drive and probe a fresh server ``segments`` times."""
    from loadgen import cpu_seconds, pss_mb, sequential
    from serverproc import ServerProcess

    spans_dir = workload.run_dir / "spans"
    if traced:
        spans_dir.mkdir()
    seconds = workload.seconds / segments / workload.windows
    out = {
        "setup_s": [], "reads": [], "edits": [], "pairs": [], "mem_mb": [],
        "cpu_s": 0.0, "measured_s": 0.0, "windows": [], "counters": {},
        "sent": 0, "window_requests": 0, "spans_dir": spans_dir,
    }
    first_read = 0
    for _ in range(segments):
        args = ["serve", *workload.server_args()]
        if traced:
            command = [str(HERE / "traced_serve.py"), str(spans_dir), *args]
        else:
            command = ["-m", "repro", *args]
        server = ServerProcess(command, ROOT, workload.run_dir / "server.log")
        try:
            out["setup_s"].append(server.start())
            before = _counters(server) if traced else {}
            version = 1
            for window in range(workload.windows):
                warmup_s = workload.warmup_s if window == 0 else 0.0
                cpu = {}

                def mark_window() -> None:
                    cpu["start"] = cpu_seconds(server.pids)

                reads, edits, window_start, last = _drive(
                    workload, server.port, warmup_s, seconds, first_read, mark_window
                )
                out["cpu_s"] += cpu_seconds(server.pids) - cpu["start"]
                if window == workload.windows - 1:
                    out["mem_mb"].append(pss_mb(server.pids))
                # the write probe: the served TBox posted back unchanged
                probe = workload.probe(version)
                probes = asyncio.run(sequential(server.port, [r.raw for r in probe]))
                version += len(probe)

                sent = max((s.index for s in reads), default=first_read) + 1 - first_read
                first_read += sent
                out["sent"] += sent
                out["reads"] += reads
                out["windows"].append((window_start, window_start + seconds))
                out["measured_s"] += last - window_start
                out["pairs"] += [(workload.reads[s.index % len(workload.reads)], s) for s in reads]
                out["pairs"] += [(workload.edits[s.index % len(workload.edits)], s) for s in edits]
                out["pairs"] += [(probe[s.index], s) for s in probes]
                out["edits"] += edits + probes
                out["window_requests"] += len(reads) + len(edits)
            after = _counters(server) if traced else {}
        finally:
            server.stop()
        for key, value in after.items():
            out["counters"][key] = out["counters"].get(key, 0) + value - before.get(key, 0)
    return out


def _drive(workload, port: int, warmup_s: float, seconds: float, offset: int, on_window):
    """One read window: (reads, edits, window start, last completion)."""
    from loadgen import closed_loop, scheduled

    reads_raw = [r.raw for r in workload.reads]
    if not workload.closed_loop:
        return asyncio.run(
            scheduled(
                port,
                reads_raw,
                workload.read_rate,
                [r.raw for r in workload.edits],
                workload.edit_period_s,
                warmup_s=warmup_s,
                seconds=seconds,
                on_window=on_window,
                offset=offset,
            )
        )
    reads, window_start, last = asyncio.run(
        closed_loop(
            port,
            reads_raw,
            connections=workload.connections,
            warmup_s=warmup_s,
            seconds=seconds,
            on_window=on_window,
            offset=offset,
        )
    )
    return reads, [], window_start, last


def _counters(server) -> dict:
    return server.get("/v1/metrics")["metrics"]["counters"]


def end_to_end(result: dict, outcome) -> tuple[dict, dict]:
    """The end-to-end metrics of one pass, plus their sample counts."""
    reads = [s for s in result["reads"] if s.status]
    latencies = [s.latency_ms for s in reads]
    acks = [s.latency_ms for s in result["edits"] if s.status]
    attempted = len(result["pairs"])
    metrics = {
        "query_p50_ms": (_percentile(latencies, 50), "ms"),
        "query_p90_ms": (_percentile(latencies, 90), "ms"),
        "query_rps": (len(reads) / result["measured_s"], "1/s"),
        "success_share": (outcome.ok / attempted, "fraction"),
        "cpu_ms_per_request": (
            result["cpu_s"] * 1000.0 / max(1, result["window_requests"]),
            "ms",
        ),
        "setup_s": (statistics.median(result["setup_s"]), "s"),
        "server_mem_mb": (statistics.median(result["mem_mb"]), "MB"),
        # the mean, not the median: on a shared host the CPU's speed
        # switches between regimes up to 2x apart for seconds at a time,
        # so acks of one repeated edit are bimodal, and their median fell
        # in either mode and moved by a quarter between runs of the same
        # code; the mean moves with the share of time spent in each
        "edit_ack_mean_ms": (statistics.fmean(acks) if acks else 0.0, "ms"),
    }
    samples = {
        "query_p50_ms": len(latencies),
        "query_p90_ms": len(latencies),
        "query_rps": len(reads),
        "success_share": attempted,
        "cpu_ms_per_request": result["window_requests"],
        "setup_s": len(result["setup_s"]),
        "server_mem_mb": len(result["mem_mb"]),
        "edit_ack_mean_ms": len(acks),
    }
    return metrics, samples


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its servers: SystemExit unwinds
    # through the ``finally`` blocks that stop them
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    runs = ROOT / ".perfbench_runs"
    run_dir = runs / f"{args.workload}-{args.seed}-work"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.seconds, run_dir, SEGMENTS)
        prepared = time.perf_counter()
        workload.prepare()
        prepare_s = time.perf_counter() - prepared
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds}
        passes = [("plain", run_pass(workload, traced=False, segments=SEGMENTS))]
        if args.trace:
            passes.append(("traced", run_pass(workload, traced=True, segments=SEGMENTS)))
        checked = time.perf_counter()
        outcomes = {name: workload.check(result["pairs"]) for name, result in passes}
        record["oracle_s"] = prepare_s + time.perf_counter() - checked
        for name, result in passes:
            metrics, samples = end_to_end(result, outcomes[name])
            outcome = outcomes[name]
            acks = [s.latency_ms for s in result["edits"] if s.status]
            record[name] = {
                "metrics": {k: {"value": v, "unit": u, "samples": samples[k]}
                            for k, (v, u) in metrics.items()},
                "outcome": {k: v for k, v in vars(outcome).items()},
                "query_p99_ms": statistics.quantiles(
                    [s.latency_ms for s in result["reads"]], n=100
                )[98],
                "edit_ack_p50_ms": _percentile(acks, 50),
                "edit_ack_min_ms": min(acks, default=0.0),
                "lateness_p90_ms": _percentile(
                    [s.lateness_ms for s in result["reads"]], 90
                ),
            }
        plain = record["plain"]["metrics"]
        if args.trace:
            from spans import layer_metrics, load_dumps

            traced_result = passes[1][1]
            layers = layer_metrics(
                load_dumps(traced_result["spans_dir"]),
                traced_result["windows"],
                traced_result["counters"],
                traced_result["sent"],
            )
            for key, cell in record["traced"]["metrics"].items():
                layers[f"trace.overhead.{key}"] = (
                    cell["value"] - plain[key]["value"], cell["unit"]
                )
            report = {k: {"value": v, "unit": u} for k, (v, u) in sorted(layers.items())}
        else:
            report = {k: {"value": c["value"], "unit": c["unit"]} for k, c in plain.items()}
        record["report"] = report
        (runs / f"{args.workload}-{args.seed}.json").write_text(
            json.dumps(record, indent=1, default=str)
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    wrong = sum(o.wrong for o in outcomes.values())
    failed = sum(o.errors + o.wrong for o in outcomes.values())
    attempted = sum(len(result["pairs"]) for _, result in passes)
    for name, outcome in outcomes.items():
        print(
            f"# {name}: ok={outcome.ok} unknown(206)={outcome.unknown} "
            f"errors={outcome.errors} wrong={outcome.wrong} "
            f"oracle-undecided={outcome.unchecked}"
        )
        for example in outcome.examples:
            print(f"#   {example}")
    for key, cell in plain.items():
        print(f"{key:>22} {cell['value']:12.4f} {cell['unit']:<8} n={cell['samples']}")
    if args.trace:
        for key, cell in report.items():
            print(f"{key:>40} {cell['value']:14.4f} {cell['unit']}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report,
    }))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
