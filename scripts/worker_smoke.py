#!/usr/bin/env python
"""CI smoke test: the multi-worker serving mode survives a worker kill.

Boots ``python -m repro serve --workers 2`` as a real subprocess, then:

* routes named checks through the pool and verifies the health block
  (2 workers up, zero version skew);
* starts a background mixed load from several keep-alive threads;
* SIGKILLs one worker pid (taken from ``/v1/health``) **mid-load** and
  asserts that

  - no in-flight or subsequent request is lost — every response across
    the kill is a 200 (the front retries a dying worker's proxies on
    its sibling, so acked requests never evaporate),
  - the front's supervisor restarts the dead worker and the pool
    returns to 2-up with a fresh pid at the current TBox version;

* hot-swaps the TBox mid-load and checks the new version is visible
  with zero per-worker skew, and that the aggregated ``/v1/metrics``
  merges worker recorders (proxied counters present).

Exits non-zero (with a message) on any violated expectation.
"""

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TBOX_V1 = """
car [= motorvehicle & some size.small
pickup [= motorvehicle & some size.big
motorvehicle [= some uses.gasoline
"""

TBOX_V2 = TBOX_V1 + "\nvan [= motorvehicle & some size.big\n"

SERVE_FLAGS = ["--port", "0", "--workers", "2", "--soft-limit", "8"]


def fail(message):
    print(f"worker_smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def request(port, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        payload = None if body is None else json.dumps(body)
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        raw = response.read()
        return response.status, (json.loads(raw) if raw else {})
    finally:
        conn.close()


def worker_block(port):
    status, body = request(port, "GET", "/v1/health")
    if status != 200 or body.get("status") != "ok":
        fail(f"health not green: {status} {body}")
    block = body.get("workers")
    if not block:
        fail(f"health carries no workers block: {body}")
    return block


def wait_for(probe, what, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            if probe():
                return
        except OSError:
            pass
        time.sleep(0.05)
    fail(f"timed out waiting for {what}")


def main():
    with tempfile.NamedTemporaryFile(
        "w", suffix=".tbox", delete=False, encoding="utf-8"
    ) as handle:
        handle.write(TBOX_V1)
        tbox_path = handle.name

    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    env.pop("REPRO_FAULTS", None)  # this smoke measures routing, not faults
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--tbox", tbox_path, *SERVE_FLAGS],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=REPO,
    )
    try:
        port = None
        for _ in range(20):
            line = proc.stdout.readline()
            if not line:
                break
            match = re.search(r"serving .* on http://[\d.]+:(\d+)", line)
            if match:
                port = int(match.group(1))
                break
        if port is None:
            fail("no address in server banner")
        print(f"worker_smoke: front up on port {port}")

        # 1. the pool is up and routing
        block = worker_block(port)
        if block["count"] != 2 or block["up"] != 2:
            fail(f"pool not 2-up: {block}")
        if block["max_version_skew"] != 0:
            fail(f"boot-time version skew: {block}")
        status, body = request(
            port,
            "POST",
            "/v1/subsumes",
            {"general": "motorvehicle", "specific": "car"},
        )
        if (status, body.get("answer")) != (200, True):
            fail(f"routed subsumption: {status} {body}")

        # 2. background mixed load over keep-alive connections
        statuses = {}
        errors = []
        stop = threading.Event()
        lock = threading.Lock()

        def hammer():
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
            try:
                while not stop.is_set():
                    conn.request(
                        "POST",
                        "/v1/subsumes",
                        body=json.dumps(
                            {"general": "motorvehicle", "specific": "pickup"}
                        ),
                        headers={"Content-Type": "application/json"},
                    )
                    response = conn.getresponse()
                    response.read()
                    with lock:
                        statuses[response.status] = (
                            statuses.get(response.status, 0) + 1
                        )
            except OSError as exc:
                with lock:
                    errors.append(f"{type(exc).__name__}: {exc}")
            finally:
                conn.close()

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        wait_for(
            lambda: sum(statuses.values()) >= 20, "load to ramp up"
        )

        # 3. SIGKILL one worker mid-load: zero lost acked requests
        victim = worker_block(port)["workers"][0]["pid"]
        os.kill(victim, signal.SIGKILL)
        print(f"worker_smoke: killed worker pid {victim} mid-load")
        wait_for(
            lambda: (
                lambda b: b["up"] == 2
                and b["restarts"] >= 1
                and b["max_version_skew"] == 0
            )(worker_block(port)),
            "supervisor to restart the dead worker",
        )
        if victim in {w["pid"] for w in worker_block(port)["workers"]}:
            fail("dead worker pid still in the pool")

        # 4. hot swap mid-load: applied once, visible pool-wide
        status, body = request(port, "POST", "/v1/tbox", {"tbox": TBOX_V2})
        if status != 200 or body.get("tbox_version") != 2:
            fail(f"hot swap: {status} {body}")
        wait_for(
            lambda: worker_block(port)["max_version_skew"] == 0,
            "swap propagation to every worker",
        )
        status, body = request(
            port,
            "POST",
            "/v1/subsumes",
            {"general": "motorvehicle", "specific": "van"},
        )
        if (status, body.get("answer"), body.get("tbox_version")) != (
            200,
            True,
            2,
        ):
            fail(f"post-swap subsumption: {status} {body}")

        # wind the load down and audit every response across the kill
        time.sleep(0.3)
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        if errors:
            fail(f"load thread errors across the kill: {errors[:3]}")
        if set(statuses) != {200}:
            fail(f"non-200 responses across the kill: {statuses}")
        served = sum(statuses.values())
        print(f"worker_smoke: {served} requests across the kill, all 200")

        # 5. aggregated metrics merge worker recorders
        status, body = request(port, "GET", "/v1/metrics")
        counters = body.get("metrics", {}).get("counters", {})
        if status != 200 or counters.get("workers.proxied", 0) < served:
            fail(f"aggregated metrics: {status} {counters}")
        if counters.get("workers.deaths", 0) < 1:
            fail(f"worker death not counted: {counters}")
        if body.get("serve", {}).get("workers", {}).get("up") != 2:
            fail(f"metrics workers block: {body.get('serve')}")

        print("worker_smoke: OK")
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=15)
        os.unlink(tbox_path)


if __name__ == "__main__":
    start = time.perf_counter()
    main()
    print(f"worker_smoke: done in {time.perf_counter() - start:.2f}s")
