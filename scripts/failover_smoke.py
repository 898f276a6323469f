#!/usr/bin/env python
"""CI smoke test: warm-standby failover with zero lost acknowledged edits.

Boots a primary ``python -m repro serve`` with ``--edit-log``, then a
follower on ``--follow`` pointed at it, and streams TBox edits at the
primary.  Once the follower reports having applied every acknowledged
record, the primary is SIGKILLed mid-flight — the acknowledged edits
exist nowhere reachable but the two edit logs.  The smoke then:

* keeps two reader threads sending ``/v1/subsumes`` to the follower
  from before the kill until after the post-promotion write: every
  read must answer 200 with no transport error, and at least one must
  complete after the kill;
* promotes the follower via ``POST /v1/promote`` and checks the
  promotion response names the exact last acknowledged version
  (``lost acked edits == 0``);
* queries ``/v1/classify`` on the new primary and compares it against
  the hierarchy of the last acknowledged TBox, computed independently
  in this process;
* writes one post-promotion edit and requires it to land at
  ``acked + 1``;
* resurrects the dead ex-primary on its original port and requires it
  to come back *fenced*: writes refused with 503 and a ``primary``
  pointer at the promoted follower.

Run it three times in CI: clean, with ``REPRO_FAULTS=torn-write``
(appends tear on both logs and must be recovered before any ack), and
with the replication fault matrix (dropped, duplicated and truncated
pull batches) on top — failover must lose nothing either way.  Exits
non-zero with a message on any violated expectation.
"""

import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import tempfile
import threading
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

POST_PROMOTION_EDIT = EDITS[-1] + "tractor [= motorvehicle\n"

#: the names the follower readers ask about
READ_NAMES = sorted(parse_tbox(BOOT_TBOX).atomic_names())

faults_armed = bool(os.environ.get("REPRO_FAULTS"))


def fail(message):
    print(f"failover_smoke: FAIL: {message}", file=sys.stderr)
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


def spawn(args):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
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
    if proc.poll() is not None:
        return
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=15)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=15)


class Readers:
    """Threads sending ``/v1/subsumes`` to one server until stopped.

    Each thread holds one keep-alive connection.  A non-200 answer or a
    transport error is recorded and ends that thread: a read dropped
    across the failover is exactly what the smoke must catch.
    """

    def __init__(self, port, count=2):
        self.port = port
        self.stop = threading.Event()
        self.lock = threading.Lock()
        self.completed = []  # monotonic completion time of every 200
        self.failures = []
        self.threads = [
            threading.Thread(target=self._read, args=(seed,), daemon=True)
            for seed in range(count)
        ]

    def _read(self, seed):
        rng = random.Random(seed)
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            while not self.stop.is_set():
                general, specific = rng.choice(READ_NAMES), rng.choice(READ_NAMES)
                body = json.dumps({"general": general, "specific": specific})
                try:
                    conn.request(
                        "POST",
                        "/v1/subsumes",
                        body=body,
                        headers={"Content-Type": "application/json"},
                    )
                    response = conn.getresponse()
                    response.read()
                except (OSError, http.client.HTTPException) as exc:
                    with self.lock:
                        self.failures.append(f"{type(exc).__name__}: {exc}")
                    return
                with self.lock:
                    if response.status != 200:
                        self.failures.append(f"HTTP {response.status}")
                        return
                    self.completed.append(time.monotonic())
        finally:
            conn.close()

    def start(self):
        for thread in self.threads:
            thread.start()

    def finish(self):
        """Stop every thread; False when one is still stuck in a read."""
        self.stop.set()
        for thread in self.threads:
            thread.join(timeout=30)
        return not any(thread.is_alive() for thread in self.threads)


def wait_until(predicate, what, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            if predicate():
                return
        except OSError:
            pass
        time.sleep(0.05)
    fail(f"timed out waiting for {what}")


def main():
    # the TBox file and both edit logs live in one directory that goes
    # away however the run ends, a failed one included
    with tempfile.TemporaryDirectory(prefix="failover_smoke_") as workdir:
        tbox_path = os.path.join(workdir, "boot.tbox")
        with open(tbox_path, "w", encoding="utf-8") as handle:
            handle.write(BOOT_TBOX)
        logs = [os.path.join(workdir, role) for role in ("primary", "follower")]
        for log in logs:
            os.mkdir(log)
        smoke(tbox_path, *logs)


def smoke(tbox_path, primary_log, follower_log):
    # ---- phase 1: primary + follower, stream edits, wait for catch-up
    primary, primary_port, _ = spawn(
        ["--tbox", tbox_path, "--edit-log", primary_log]
    )
    follower = None
    try:
        follower, follower_port, _ = spawn(
            [
                "--edit-log",
                follower_log,
                "--follow",
                f"http://127.0.0.1:{primary_port}",
                "--probe-interval-ms",
                "40",
            ]
        )
        print(
            f"failover_smoke: primary on {primary_port}, follower on "
            f"{follower_port} (faults_armed={faults_armed})"
        )
        acked = 1
        for index, text in enumerate(EDITS):
            status, body = request(primary_port, "POST", "/v1/tbox", {"tbox": text})
            if status != 200:
                fail(f"edit {index}: {status} {body}")
            acked = body["tbox_version"]
        if acked != 1 + len(EDITS):
            fail(f"acknowledged version {acked}, want {1 + len(EDITS)}")

        def caught_up():
            status, health = request(follower_port, "GET", "/v1/health")
            repl = health.get("replication") or {}
            return (
                status == 200
                and repl.get("last_applied_version") == acked
                and health.get("tbox_version") == acked
            )

        wait_until(caught_up, f"follower to apply v{acked}")

        # the follower is read-only: writes bounce with the primary URL
        status, refused = request(
            follower_port, "POST", "/v1/tbox", {"tbox": EDITS[-1]}
        )
        if status != 503 or f":{primary_port}" not in (refused.get("primary") or ""):
            fail(f"follower accepted a write: {status} {refused}")

        readers = Readers(follower_port)
        readers.start()
        wait_until(lambda: readers.completed or readers.failures, "follower reads")
        print(f"failover_smoke: follower caught up through v{acked}, killing primary")
    except BaseException:
        if follower is not None:
            terminate(follower)
        raise
    finally:
        # the crash: SIGKILL, no flush, no shutdown hook
        primary.kill()
        primary.wait(timeout=15)
    killed_at = time.monotonic()

    # ---- phase 2: promote the follower; nothing acknowledged may vanish
    try:
        status, promoted = request(follower_port, "POST", "/v1/promote")
        if status != 200 or promoted.get("promoted") is not True:
            fail(f"promotion failed: {status} {promoted}")
        if promoted.get("logged_version") != acked:
            fail(
                f"lost acknowledged edits: promoted at "
                f"v{promoted.get('logged_version')}, acked v{acked}"
            )

        status, body = request(follower_port, "POST", "/v1/classify", {})
        expected = Reasoner(parse_tbox(EDITS[-1])).classify()
        want = sorted(sorted(group) for group in expected.groups())
        if status != 200 or body.get("groups") != want:
            fail(f"promoted hierarchy differs: {status} {body.get('groups')}")

        status, body = request(
            follower_port, "POST", "/v1/tbox", {"tbox": POST_PROMOTION_EDIT}
        )
        if status != 200 or body.get("tbox_version") != acked + 1:
            fail(f"post-promotion write: {status} {body}")
        print(f"failover_smoke: promoted at v{acked}, first write landed v{acked + 1}")

        if not readers.finish():
            fail("a follower read hung past its 30 s timeout")
        if readers.failures:
            fail(f"follower reads failed across the failover: {readers.failures[:3]}")
        after_kill = sum(1 for t in readers.completed if t > killed_at)
        if not after_kill:
            fail("no follower read completed after the primary's kill")
        print(
            f"failover_smoke: {len(readers.completed)} follower reads, all 200 "
            f"({after_kill} after the kill)"
        )

        # ---- phase 3: the resurrected ex-primary must come back fenced
        zombie, zombie_port, _ = spawn(
            [
                "--tbox",
                tbox_path,
                "--edit-log",
                primary_log,
                "--port",
                str(primary_port),
            ]
        )
        try:
            def fenced():
                status, health = request(zombie_port, "GET", "/v1/health")
                repl = health.get("replication") or {}
                return status == 200 and repl.get("fenced") is True

            wait_until(fenced, "ex-primary to observe its fence")
            status, refused = request(
                zombie_port, "POST", "/v1/tbox", {"tbox": POST_PROMOTION_EDIT}
            )
            if status != 503 or f":{follower_port}" not in (
                refused.get("primary") or ""
            ):
                fail(f"fenced ex-primary accepted a write: {status} {refused}")
            print(
                f"failover_smoke: OK (0 lost acked edits, ex-primary fenced, "
                f"writes redirected to {refused.get('primary')})"
            )
        finally:
            terminate(zombie)
    finally:
        terminate(follower)


if __name__ == "__main__":
    start = time.perf_counter()
    main()
    print(f"failover_smoke: done in {time.perf_counter() - start:.2f}s")
