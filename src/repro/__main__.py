"""Command-line interface: critique a TBox file.

Usage::

    python -m repro critique ONTONOMY.tbox [--contrast OTHER.tbox] [--regress TERM] [--stats]
    python -m repro classify ONTONOMY.tbox [--budget-nodes N] [--budget-ms MS] [--escalate] [--stats] [--profile]
    python -m repro check ONTONOMY.tbox
    python -m repro bench [--out DIR] [--only B1 ...]
    python -m repro serve [--tbox FILE] [--port N] [--abox-backend sqlite --abox-db PATH] ...
    python -m repro abox ONTONOMY.tbox --abox-db PATH [--load STORE.jsonl] [--materialize] [--instances CONCEPT] [--types IND] [--stats]

``critique`` runs the full three-part analysis and prints the report;
``classify`` prints the inferred hierarchy; ``check`` reports coherence
and unsatisfiable names; ``bench`` runs the instrumented substrate benches
(B1–B6, B10, B12, B14) and writes one ``BENCH_<id>.json`` snapshot each; ``serve``
starts the long-lived batched reasoning service (:mod:`repro.serve`);
``abox`` loads, materializes, and queries a DB-backed instance store
(:mod:`repro.instdb`) without a server.
``--stats`` prints the observability counter snapshot (see
:mod:`repro.obs`) after the command's normal output.  TBox files use the
text syntax of :mod:`repro.dl.parser` (one axiom per line, ``#``
comments).

``classify`` accepts resource governance flags (see :mod:`repro.robust`):
``--budget-nodes`` / ``--budget-ms`` bound every tableau model and test, and
``--escalate`` geometrically retries an incomplete classification.  A
hierarchy that still has unresolved edges is printed anyway and exits
with the distinct code 3 (:data:`EXIT_PARTIAL`) so scripts can tell a
partial answer from both success (0) and failure (1); the full contract
is in :data:`EXIT_CODES` and the ``--help`` epilog.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from pathlib import Path

from .core import critique
from .dl import Reasoner, classify, parse_tbox
from .obs import Recorder, set_recorder, use_recorder
from .robust import Budget, DEFAULT_MAX_ROUNDS

#: everything ran and every answer is definite
EXIT_OK = 0
#: the run finished and found a negative result (defects under
#: ``--strict``, an incoherent TBox) or died on an operational error
EXIT_FAILURE = 1
#: command-line usage error (argparse's own convention)
EXIT_USAGE = 2
#: exit code for a run that finished but could not resolve everything
EXIT_PARTIAL = 3

#: the one authoritative exit-code table: the ``--help`` epilog, the
#: README, and the contract test all render/check THIS mapping
EXIT_CODES: dict[int, str] = {
    EXIT_OK: "success: every answer definite",
    EXIT_FAILURE: "failure: defects found (--strict), incoherent TBox, or error",
    EXIT_USAGE: "usage error (bad flags/arguments; raised by argparse)",
    EXIT_PARTIAL: "partial: a budget or fault left UNKNOWN answers "
    "(HTTP analogue: 206)",
}


def exit_code_epilog() -> str:
    """The exit-code contract rendered for ``--help`` and the README."""
    lines = ["exit codes:"]
    for code, meaning in sorted(EXIT_CODES.items()):
        lines.append(f"  {code}  {meaning}")
    return "\n".join(lines)


def _load(path: str):
    text = Path(path).read_text(encoding="utf-8")
    return parse_tbox(text)


def _recording(args: argparse.Namespace):
    """A (context manager, recorder) pair honoring ``--stats``/``--profile``."""
    if getattr(args, "stats", False) or getattr(args, "profile", False):
        recorder = Recorder()
        return use_recorder(recorder), recorder
    return nullcontext(), None


def _print_stats(recorder: Recorder | None) -> None:
    if recorder is not None:
        print()
        print("observability snapshot:")
        print(recorder.to_json())


def _print_profile(recorder: Recorder | None, top: int = 10) -> None:
    """Top-``top`` timers by total time and counters by value, as tables."""
    if recorder is None:
        return
    snapshot = recorder.snapshot()
    timers = snapshot["timers"]
    ranked = sorted(timers.items(), key=lambda kv: kv[1]["total"], reverse=True)
    print()
    print(f"profile (top {min(top, len(ranked))} timers by total time):")
    print(f"  {'timer':<40} {'calls':>8} {'total s':>10} {'mean ms':>10}")
    for name, cell in ranked[:top]:
        print(
            f"  {name:<40} {cell['count']:>8} {cell['total']:>10.4f} "
            f"{cell['mean'] * 1000:>10.3f}"
        )
    counters = snapshot["counters"]
    top_counters = sorted(counters.items(), key=lambda kv: (-kv[1], kv[0]))
    print()
    print(f"profile (top {min(top, len(top_counters))} counters by value):")
    print(f"  {'counter':<40} {'value':>12}")
    for name, value in top_counters[:top]:
        print(f"  {name:<40} {value:>12}")


def _cmd_critique(args: argparse.Namespace) -> int:
    tbox = _load(args.tbox)
    contrasts = []
    for contrast_path in args.contrast or []:
        contrasts.append((Path(contrast_path).stem, _load(contrast_path)))
    context, recorder = _recording(args)
    with context:
        report = critique(
            tbox,
            label=Path(args.tbox).stem,
            contrast_tboxes=contrasts,
            regress_term=args.regress,
            include_discipline_findings=not args.artifact_only,
        )
    print(report.render())
    _print_stats(recorder)
    return EXIT_FAILURE if report.defects() and args.strict else EXIT_OK


def _cmd_classify(args: argparse.Namespace) -> int:
    tbox = _load(args.tbox)
    budget = None
    if args.budget_nodes is not None or args.budget_ms is not None:
        budget = Budget(max_nodes=args.budget_nodes, max_ms=args.budget_ms)
    context, recorder = _recording(args)
    with context:
        if budget is None:
            hierarchy = classify(tbox, algorithm=args.algorithm)
        else:
            # one reasoner across escalation rounds: definite answers are
            # cached, so each retry only re-pays the unknown queries
            reasoner = Reasoner(tbox)
            hierarchy = classify(
                tbox, algorithm=args.algorithm, reasoner=reasoner, budget=budget
            )
            rounds = 0
            while args.escalate and hierarchy.incomplete and rounds < DEFAULT_MAX_ROUNDS:
                rounds += 1
                budget = budget.escalated()
                hierarchy = classify(
                    tbox, algorithm=args.algorithm, reasoner=reasoner, budget=budget
                )
    print(hierarchy.pretty())
    if hierarchy.incomplete:
        print(
            f"PARTIAL: {len(hierarchy.incomplete)} unresolved subsumption "
            "edge(s) exhausted the budget:",
            file=sys.stderr,
        )
        for specific, general in sorted(hierarchy.incomplete):
            print(f"  {specific} ⊑ {general} ?", file=sys.stderr)
    if getattr(args, "profile", False):
        _print_profile(recorder)
    if getattr(args, "stats", False):
        _print_stats(recorder)
    return EXIT_PARTIAL if hierarchy.incomplete else EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    # imported here so that `serve` does not load the bench harness
    from .bench import BENCHES, run_bench, write_record

    unknown = [bench_id for bench_id in args.only or () if bench_id not in BENCHES]
    if unknown:
        print(
            f"bench: unknown id(s) {', '.join(unknown)}; expected one of "
            f"{', '.join(sorted(BENCHES))}",
            file=sys.stderr,
        )
        raise SystemExit(EXIT_USAGE)
    ids = args.only or sorted(BENCHES)
    for bench_id in ids:
        record = run_bench(bench_id)
        path = write_record(record, args.out)
        nonzero = sum(1 for v in record["counters"].values() if v)
        print(
            f"{bench_id}: wrote {path} "
            f"(wall {record['wall_time_s']:.3f}s, {nonzero} non-zero counters)"
        )
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    tbox = _load(args.tbox)
    reasoner = Reasoner(tbox)
    bad = reasoner.unsatisfiable_names()
    if bad:
        print(f"INCOHERENT: unsatisfiable names: {', '.join(bad)}")
        return EXIT_FAILURE
    print(f"coherent: {len(tbox)} axioms, {len(tbox.atomic_names())} names")
    return EXIT_OK


def _cmd_abox(args: argparse.Namespace) -> int:
    from .dl import parse_concept
    from .instdb import materialize as instdb_materialize, open_backend
    from .store import load_jsonl, store_to_backend

    tbox = _load(args.tbox)
    context, recorder = _recording(args)
    with context:
        backend = open_backend(args.abox_backend, args.abox_db)
        try:
            if args.load:
                store = load_jsonl(args.load)
                loaded = store_to_backend(store, backend, tbox)
                print(f"loaded {loaded} told assertion(s) from {args.load}")
            if args.materialize:
                hierarchy = Reasoner(tbox).classify()
                result = instdb_materialize(backend, hierarchy)
                print(
                    f"materialized {result.derived_rows} derived row(s) "
                    f"from {len(result.sources)} told concept(s) "
                    f"(removed {result.removed_rows} stale)"
                )
            if args.instances:
                concept = parse_concept(args.instances)
                members = Reasoner(tbox).retrieve_indexed(
                    backend, concept, limit=args.limit
                )
                for name in members:
                    print(name)
                print(
                    f"# {len(members)} instance(s) of {args.instances}",
                    file=sys.stderr,
                )
            if args.types:
                for name in sorted(backend.types(args.types)):
                    print(name)
            if args.stats:
                print()
                print("backend stats:")
                for key, value in sorted(backend.stats().items()):
                    print(f"  {key}: {value}")
        finally:
            backend.close()
    _print_stats(recorder)
    return EXIT_OK


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .dl import TBox
    from .serve import ReasoningServer, ServeConfig

    if args.follow and not args.edit_log:
        print("serve: --follow requires --edit-log DIR", file=sys.stderr)
        return EXIT_USAGE
    tbox = _load(args.tbox) if args.tbox else TBox()
    config = ServeConfig(
        host=args.host,
        port=args.port,
        batch_window_ms=args.batch_window_ms,
        batch_max=args.batch_max,
        soft_limit=args.soft_limit,
        hard_limit=args.hard_limit,
        node_allowance=args.node_allowance,
        ms_allowance=args.ms_allowance,
        tbox_store=args.tbox_store,
        edit_log=args.edit_log,
        min_swap_interval_ms=args.min_swap_interval_ms,
        rebase_limit=args.rebase_limit,
        rebase_max_bytes=args.rebase_max_bytes,
        rebase_max_age_s=args.rebase_max_age_s,
        follow=args.follow,
        auto_promote_after=args.auto_promote_after,
        probe_interval_ms=args.probe_interval_ms,
        abox_backend=args.abox_backend,
        abox_db=args.abox_db,
        workers=args.workers,
        worker_dir=args.worker_dir,
    )
    # a serving process always records: /v1/metrics is part of the API
    set_recorder(Recorder())
    if config.workers >= 1:
        from .serve.workers import FrontServer

        server = FrontServer(tbox, config)
    else:
        server = ReasoningServer(tbox, config)

    async def _run() -> None:
        host, port = await server.start()
        recovery = None if server.editlog is None else server.editlog.last_recovery
        if recovery is not None and not recovery.fresh:
            print(
                f"recovered edit log: v{recovery.version} "
                f"(base v{recovery.base_version} + {recovery.replayed} "
                f"replayed edit(s), {recovery.torn} torn record(s) dropped)",
                flush=True,
            )
        served = server.snapshots.current.tbox
        print(
            f"serving {len(served)} axiom(s) on http://{host}:{port} "
            f"(batch window {config.batch_window_ms}ms, "
            f"soft/hard limits {config.soft_limit}/{config.hard_limit})",
            flush=True,
        )
        if config.follow:
            print(
                f"following {config.follow} (read-only until promoted)",
                flush=True,
            )
        if config.workers >= 1:
            block = server.supervisor.health_block()
            print(
                f"workers: {block['up']}/{block['count']} up in "
                f"{server.supervisor.worker_dir}",
                flush=True,
            )
        await server.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        print("shutting down", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="summa: critique, classify, check, or serve a DL ontonomy",
        epilog=exit_code_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_critique = sub.add_parser("critique", help="run the three-part critique")
    p_critique.add_argument("tbox", help="path to a .tbox file")
    p_critique.add_argument(
        "--contrast",
        action="append",
        help="contrast TBox file for cross-collision search (repeatable)",
    )
    p_critique.add_argument(
        "--regress", metavar="TERM", help="run the differentiation regress on TERM"
    )
    p_critique.add_argument(
        "--artifact-only",
        action="store_true",
        help="omit the discipline-level §2 findings",
    )
    p_critique.add_argument(
        "--strict", action="store_true", help="exit 1 when defects are found"
    )
    p_critique.add_argument(
        "--stats",
        action="store_true",
        help="print the obs counter snapshot after the report",
    )
    p_critique.set_defaults(func=_cmd_critique)

    p_classify = sub.add_parser("classify", help="print the inferred hierarchy")
    p_classify.add_argument("tbox")
    p_classify.add_argument(
        "--algorithm",
        choices=["saturation", "brute"],
        default="saturation",
        help="classification algorithm: saturation (default; read off "
        "the consequence-based saturation, with one tableau model per "
        "name for a non-Horn residue; a budget governs each model and "
        "test) or brute (the pairwise subsumption matrix, the "
        "correctness oracle)",
    )
    p_classify.add_argument(
        "--budget-nodes",
        type=int,
        metavar="N",
        help="cap completion-graph nodes per tableau model or test; "
        "unresolved pairs are reported and the exit code becomes "
        f"{EXIT_PARTIAL}",
    )
    p_classify.add_argument(
        "--budget-ms",
        type=float,
        metavar="MS",
        help="wall-clock deadline (milliseconds) shared by the whole run",
    )
    p_classify.add_argument(
        "--escalate",
        action="store_true",
        help="retry an incomplete classification with geometrically "
        f"escalated budgets (up to {DEFAULT_MAX_ROUNDS} rounds)",
    )
    p_classify.add_argument(
        "--stats",
        action="store_true",
        help="print the obs counter snapshot after the hierarchy",
    )
    p_classify.add_argument(
        "--profile",
        action="store_true",
        help="print the top-10 obs timers by total time after the hierarchy",
    )
    p_classify.set_defaults(func=_cmd_classify)

    p_check = sub.add_parser("check", help="coherence check")
    p_check.add_argument("tbox")
    p_check.set_defaults(func=_cmd_check)

    p_bench = sub.add_parser(
        "bench",
        help="run the substrate benches (B1-B6, B10, B12, B14) and write "
        "BENCH_*.json snapshots",
    )
    p_bench.add_argument(
        "--out", default=".", help="directory for BENCH_*.json files (default: .)"
    )
    p_bench.add_argument(
        "--only",
        action="append",
        metavar="ID",
        help="run only this bench (repeatable; default: all)",
    )
    p_bench.set_defaults(func=_cmd_bench)

    p_serve = sub.add_parser(
        "serve",
        help="start the batched JSON-over-HTTP reasoning service",
        epilog="batching: /v1/subsumes and /v1/satisfiable are held for "
        "--batch-window-ms; the checks that arrive in one window are "
        "answered as one batch.  Each snapshot's reasoner keeps "
        "what classification learned and a bounded share of what "
        "traffic taught it: once queries intern a fixed number of "
        "concepts past the classified table, those concepts and their "
        "cached answers are dropped.  "
        "degradation: budget-exhausted answers are HTTP 206 "
        "(UNKNOWN verdict body); admission refusals are 429/503 with "
        "Retry-After.  Edits degrade in frequency, not latency: a "
        "throttled POST /v1/tbox is logged, acked 200, and reported "
        "swap_status deferred (queued) or coalesced (superseded the "
        "queued edit).  Live traffic survives failover: --follow starts "
        "a warm standby that applies the primary's edit log, serves "
        "reads with an X-Replication-Lag-Records header, refuses writes "
        "503 + primary location, and promotes (POST /v1/promote, or "
        "automatically) under a persisted fencing epoch so a resurrected "
        "ex-primary refuses writes.  See README 'Serving', 'Live "
        "traffic', and 'Replication & failover'.",
    )
    p_serve.add_argument(
        "--tbox", metavar="FILE", help="TBox file to serve (default: empty TBox)"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8080)
    p_serve.add_argument(
        "--batch-window-ms",
        type=float,
        default=3.0,
        metavar="MS",
        help="how long to hold a check for coalescing (default: 3)",
    )
    p_serve.add_argument(
        "--batch-max",
        type=int,
        default=64,
        metavar="N",
        help="flush a batch early at this size (default: 64)",
    )
    p_serve.add_argument(
        "--soft-limit",
        type=int,
        default=64,
        metavar="N",
        help="in-flight requests beyond this are refused 429 (default: 64)",
    )
    p_serve.add_argument(
        "--hard-limit",
        type=int,
        default=256,
        metavar="N",
        help="in-flight requests beyond this are refused 503 (default: 256)",
    )
    p_serve.add_argument(
        "--node-allowance",
        type=int,
        default=250_000,
        metavar="N",
        help="server-wide completion-graph node allowance split across "
        "soft-limit slots into per-request budgets (default: 250000)",
    )
    p_serve.add_argument(
        "--ms-allowance",
        type=float,
        default=None,
        metavar="MS",
        help="per-request wall-clock deadline (default: none)",
    )
    p_serve.add_argument(
        "--tbox-store",
        metavar="PATH",
        help="persist hot-swapped TBoxes crash-safely to this file",
    )
    p_serve.add_argument(
        "--edit-log",
        metavar="DIR",
        help="durable append-only edit log directory: every acknowledged "
        "POST /v1/tbox is logged before the 200, and a restart replays "
        "base snapshot + log (recovered state wins over --tbox)",
    )
    p_serve.add_argument(
        "--min-swap-interval-ms",
        type=float,
        default=0.0,
        metavar="MS",
        help="swap-frequency throttle: publish snapshots at most this "
        "often, deferring/coalescing faster edit streams (default: 0)",
    )
    p_serve.add_argument(
        "--rebase-limit",
        type=int,
        default=1024,
        metavar="N",
        help="compact the edit log into a new base snapshot after this "
        "many records (default: 1024)",
    )
    p_serve.add_argument(
        "--rebase-max-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="also compact once the log file grows past this many bytes "
        "(default: no size trigger)",
    )
    p_serve.add_argument(
        "--rebase-max-age-s",
        type=float,
        default=None,
        metavar="S",
        help="also compact when the base snapshot is older than this "
        "many seconds at the next append (default: no age trigger)",
    )
    p_serve.add_argument(
        "--follow",
        metavar="URL",
        help="start as a warm standby replicating this primary "
        "(http://host:port); requires --edit-log, serves read-only "
        "until promoted",
    )
    p_serve.add_argument(
        "--auto-promote-after",
        type=int,
        default=None,
        metavar="N",
        help="follower only: self-promote after this many consecutive "
        "failed pulls from the primary (default: manual promotion only)",
    )
    p_serve.add_argument(
        "--probe-interval-ms",
        type=float,
        default=500.0,
        metavar="MS",
        help="follower only: poll the primary this often once caught up "
        "(default: 500)",
    )
    p_serve.add_argument(
        "--abox-backend",
        choices=["memory", "sqlite"],
        default=os.environ.get("REPRO_ABOX_BACKEND", "memory"),
        help="instance-store backend behind /v1/instances (default: "
        "memory, or $REPRO_ABOX_BACKEND)",
    )
    p_serve.add_argument(
        "--abox-db",
        metavar="PATH",
        help="sqlite database file for --abox-backend sqlite (default: "
        "a private in-memory database)",
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="multi-worker mode: a routing front process plus N worker "
        "processes each holding the pre-classified snapshot (default: "
        "0 = classic single-process server); see README 'Scaling out'",
    )
    p_serve.add_argument(
        "--worker-dir",
        metavar="DIR",
        help="directory for worker control sockets (default: a tempdir)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_abox = sub.add_parser(
        "abox",
        help="load/materialize/query a DB-backed instance store offline",
        epilog="The store persists between invocations when --abox-db "
        "points at a file: load once, materialize once, then serve it "
        "with `repro serve --abox-backend sqlite --abox-db PATH` or "
        "query it here.  See README 'Instance store'.",
    )
    p_abox.add_argument("tbox", help="TBox file governing materialization")
    p_abox.add_argument(
        "--abox-backend",
        choices=["memory", "sqlite"],
        default="sqlite",
        help="backend kind (default: sqlite)",
    )
    p_abox.add_argument(
        "--abox-db",
        metavar="PATH",
        help="sqlite database file (default: in-memory, gone at exit)",
    )
    p_abox.add_argument(
        "--load",
        metavar="STORE.jsonl",
        help="load told assertions from a JSONL triple store "
        "(type triples + role triples, filtered against the TBox)",
    )
    p_abox.add_argument(
        "--materialize",
        action="store_true",
        help="classify the TBox and write derived types into the store",
    )
    p_abox.add_argument(
        "--instances",
        metavar="CONCEPT",
        help="print the instances of CONCEPT (indexed for atomic names)",
    )
    p_abox.add_argument(
        "--types",
        metavar="IND",
        help="print the told + derived types of individual IND",
    )
    p_abox.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="cap --instances output (default: all)",
    )
    p_abox.add_argument(
        "--stats",
        action="store_true",
        help="print backend stats and the obs counter snapshot",
    )
    p_abox.set_defaults(func=_cmd_abox)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
