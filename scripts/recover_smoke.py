#!/usr/bin/env python
"""CI smoke test: kill-and-recover with zero lost acknowledged edits.

Boots ``python -m repro serve`` as a real subprocess with ``--edit-log``
and a deliberately huge ``--min-swap-interval-ms``, streams TBox edits
at it (every one is acknowledged 200 with a ``deferred``/``coalesced``
status but, thanks to the throttle, *never published* before the
crash), then SIGKILLs the process mid-swap — the acknowledged edits
exist nowhere but the durable edit log.  A restarted server on the
same log directory must:

* print a recovery banner naming the recovered version;
* report the last *acknowledged* version from ``/v1/health``;
* answer ``/v1/classify`` with exactly the hierarchy of the last
  acknowledged TBox (computed independently in this process);
* expose the recovery in ``/v1/metrics`` (``editlog.recovered``).

Run it twice in CI: once clean, once with ``REPRO_FAULTS=torn-write``
so every edit-log append tears on its first attempt and is recovered
before the 200 is returned — durability must hold either way.  Exits
non-zero (with a message) on any violated expectation.
"""

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.dl import Reasoner, parse_tbox  # noqa: E402

BOOT_TBOX = """
car [= motorvehicle & some size.small
pickup [= motorvehicle & some size.big
motorvehicle [= some uses.gasoline
"""

#: each edit is a full TBox text; later edits coalesce earlier ones
EDITS = [
    BOOT_TBOX + "van [= motorvehicle\n",
    BOOT_TBOX + "van [= motorvehicle\nbus [= motorvehicle\n",
    BOOT_TBOX + "van [= motorvehicle\nbus [= motorvehicle\ntruck [= motorvehicle\n",
]

#: ten minutes: no edit is ever published before the kill
THROTTLE_MS = "600000"

faults_armed = bool(os.environ.get("REPRO_FAULTS"))


def fail(message):
    print(f"recover_smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def request(port, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        payload = None if body is None else json.dumps(body)
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        raw = response.read()
        return response.status, (json.loads(raw) if raw else {})
    finally:
        conn.close()


def spawn(tbox_path, log_dir):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--tbox",
            tbox_path,
            "--port",
            "0",
            "--edit-log",
            log_dir,
            "--min-swap-interval-ms",
            THROTTLE_MS,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=REPO,
    )
    port = None
    banner_lines = []
    for _ in range(20):
        line = proc.stdout.readline()
        if not line:
            break
        banner_lines.append(line.rstrip("\n"))
        match = re.search(r"http://[\d.]+:(\d+)", line)
        if match:
            port = int(match.group(1))
            break
    if port is None:
        fail(f"no address in server banner: {banner_lines!r}")
    return proc, port, banner_lines


def terminate(proc):
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=15)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=15)


def main():
    # the TBox file and the edit log live in one directory that goes
    # away however the run ends, a failed one included
    with tempfile.TemporaryDirectory(prefix="recover_smoke_") as workdir:
        tbox_path = os.path.join(workdir, "boot.tbox")
        with open(tbox_path, "w", encoding="utf-8") as handle:
            handle.write(BOOT_TBOX)
        log_dir = os.path.join(workdir, "editlog")
        os.mkdir(log_dir)
        smoke(tbox_path, log_dir)


def smoke(tbox_path, log_dir):
    # ---- phase 1: stream edits, then SIGKILL with all of them pending
    proc, port, _banner = spawn(tbox_path, log_dir)
    try:
        print(
            f"recover_smoke: server up on port {port} "
            f"(faults_armed={faults_armed})"
        )
        acked = 1
        for index, text in enumerate(EDITS):
            status, body = request(port, "POST", "/v1/tbox", {"tbox": text})
            if status != 200:
                fail(f"edit {index}: {status} {body}")
            if body.get("swap_status") not in {"deferred", "coalesced"}:
                fail(f"edit {index} should be throttled, got: {body}")
            acked = body["tbox_version"]
        if acked != 1 + len(EDITS):
            fail(f"acknowledged version {acked}, want {1 + len(EDITS)}")
        status, health = request(port, "GET", "/v1/health")
        if health.get("tbox_version") != 1 or not health.get("pending_swap"):
            fail(f"pre-kill health should still serve v1 pending a swap: {health}")
        if faults_armed:
            # the counter lives in the process doing the appends: check
            # it here, before the kill wipes the in-memory recorder
            # (env-armed faults fire on a schedule, so >= 1, not == all)
            status, metrics = request(port, "GET", "/v1/metrics")
            counters = metrics.get("metrics", {}).get("counters", {})
            torn = counters.get("editlog.torn_writes_recovered", 0)
            if torn < 1:
                fail(f"armed torn-write never tore an append: {counters}")
        print(f"recover_smoke: {len(EDITS)} edit(s) acked through v{acked}, killing")
    finally:
        # the crash: no flush, no shutdown hook, mid-pending-swap
        proc.kill()
        proc.wait(timeout=15)

    # ---- phase 2: restart on the same log; the acks must all be there
    proc, port, banner = spawn(tbox_path, log_dir)
    try:
        recovery_lines = [line for line in banner if "recovered edit log" in line]
        if not recovery_lines:
            fail(f"no recovery banner after restart: {banner!r}")
        if f"v{acked}" not in recovery_lines[0]:
            fail(f"recovery banner names wrong version: {recovery_lines[0]!r}")
        status, health = request(port, "GET", "/v1/health")
        if (status, health.get("tbox_version")) != (200, acked):
            fail(f"recovered health: {status} {health}")

        status, body = request(port, "POST", "/v1/classify", {})
        expected = Reasoner(parse_tbox(EDITS[-1])).classify()
        want = sorted(sorted(group) for group in expected.groups())
        if status != 200 or body.get("groups") != want:
            fail(f"recovered hierarchy differs: {status} {body.get('groups')}")

        status, metrics = request(port, "GET", "/v1/metrics")
        stats = metrics.get("serve", {}).get("editlog", {})
        recovered = stats.get("recovered") or {}
        if recovered.get("fresh") is not False:
            fail(f"metrics do not report a replay recovery: {stats}")
        if recovered.get("replayed", 0) < 1:
            fail(f"recovery replayed no records: {stats}")
        print(
            f"recover_smoke: OK (recovered v{acked}, "
            f"replayed {recovered.get('replayed')} record(s), "
            f"torn {recovered.get('torn')})"
        )
    finally:
        terminate(proc)


if __name__ == "__main__":
    start = time.perf_counter()
    main()
    print(f"recover_smoke: done in {time.perf_counter() - start:.2f}s")
