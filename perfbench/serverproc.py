"""Start and stop one ``python -m repro serve`` process (plus its workers)."""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path
from typing import Optional

BANNER = re.compile(r"serving .* on http://[\d.]+:(\d+)")


class BenchError(Exception):
    """The benchmark could not run or the server misbehaved."""


class ServerProcess:
    """A server child on an ephemeral port.

    ``command`` is the interpreter argument list that runs the server
    (``-m repro serve`` or the traced launcher); ``--port 0`` is
    appended.  :meth:`start` returns the set-up time: from spawning the
    process to its first 200 on ``/v1/health`` with every worker up.
    """

    def __init__(self, command: list[str], root: Path, log_path: Path) -> None:
        self.command = command
        self.root = root
        self.log_path = log_path
        self.process: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self.pids: list[int] = []

    def start(self, timeout_s: float = 120.0) -> float:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        # set iteration order steers classification and tableau search;
        # with a random hash seed a no-op swap's cost moved by up to 40%
        # between runs of the same code
        env["PYTHONHASHSEED"] = "0"
        started = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.process = subprocess.Popen(
                [sys.executable, *self.command, "--port", "0"],
                cwd=self.root,
                stdout=subprocess.PIPE,
                stderr=log,
                text=True,
                env=env,
            )
        deadline = started + timeout_s
        while self.port is None:
            line = self.process.stdout.readline()
            if not line:
                raise BenchError(f"server exited before its banner (see {self.log_path})")
            match = BANNER.search(line)
            if match:
                self.port = int(match.group(1))
        while True:
            health = self.health()
            workers = health.get("workers")
            if workers is None or workers["up"] == workers["count"]:
                break
            if time.perf_counter() > deadline:
                raise BenchError("workers did not come up")
            time.sleep(0.005)
        setup_s = time.perf_counter() - started
        self.pids = [self.process.pid]
        if workers is not None:
            self.pids += [row["pid"] for row in workers["workers"]]
        return setup_s

    def get(self, path: str) -> dict:
        with urllib.request.urlopen(
            f"http://127.0.0.1:{self.port}{path}", timeout=30
        ) as response:
            return json.load(response)

    def health(self) -> dict:
        return self.get("/v1/health")

    def stop(self, timeout_s: float = 20.0) -> None:
        """SIGTERM the front, then its workers; wait until each has ended."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=timeout_s)
        for pid in self.pids[1:]:
            _signal(pid, signal.SIGTERM)
        deadline = time.monotonic() + timeout_s
        for pid in self.pids[1:]:
            while _running(pid):
                if time.monotonic() > deadline:
                    _signal(pid, signal.SIGKILL)
                time.sleep(0.02)
        # the few lines after the banner stay unread in the pipe until here
        self.process.stdout.close()
        self.process = None


def _signal(pid: int, signum: int) -> None:
    try:
        os.kill(pid, signum)
    except ProcessLookupError:
        pass


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            state = handle.read().rsplit(b")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state != b"Z"
