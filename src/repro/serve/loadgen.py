"""Serving harness utilities: in-process server thread, client, subprocess.

Three pieces shared by the test suite and the smoke scripts — none of
them belong in the server proper (load generation lives in the serving
benchmark, ``perfbench/``):

* :class:`ServerThread` — runs a :class:`repro.serve.ReasoningServer`
  on its own event loop in a daemon thread, bound to an ephemeral port;
  a context manager, so tests get a real TCP server with deterministic
  teardown;
* :class:`ServeClient` — a minimal keep-alive JSON client over
  ``http.client`` (stdlib only), one connection per client, safe to use
  from one thread at a time;
* :class:`ServeProcess` — a **real** ``python -m repro serve`` child
  process (not a thread): the only honest way to exercise ``kill -9``
  crash and failover scenarios, used by the multi-worker end-to-end
  tests.  Supports primary and ``--follow`` follower invocations alike.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
from typing import Any, Optional, Sequence

import asyncio

from ..dl import TBox
from .server import ReasoningServer, ServeConfig


class ServeHarnessError(Exception):
    """The in-process server failed to start or respond."""


class ServerThread:
    """A live reasoning server on a background thread (context manager).

    >>> from repro.dl import parse_tbox
    >>> with ServerThread(parse_tbox("car [= motorvehicle")) as server:
    ...     status, body = server.request("POST", "/v1/subsumes",
    ...         {"general": "motorvehicle", "specific": "car"})
    >>> status, body["answer"]
    (200, True)
    """

    def __init__(
        self,
        tbox: Optional[TBox] = None,
        config: Optional[ServeConfig] = None,
        *,
        startup_timeout_s: float = 30.0,
    ) -> None:
        # port 0 = ephemeral: parallel test runs cannot collide
        self.config = config or ServeConfig(port=0)
        self.server = ReasoningServer(tbox, self.config)
        self._startup_timeout_s = startup_timeout_s
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._failure: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    # -- lifecycle ------------------------------------------------------- #

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - startup failures
            self._failure = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await self.server.start()
        self._ready.set()
        await self._stop.wait()
        await self.server.stop()

    def start(self) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(self._startup_timeout_s):
            raise ServeHarnessError("server did not start in time")
        if self._failure is not None:
            raise ServeHarnessError(f"server failed to start: {self._failure!r}")
        return self

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=self._startup_timeout_s)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- client access --------------------------------------------------- #

    @property
    def address(self) -> tuple[str, int]:
        if self.server.address is None:
            raise ServeHarnessError("server not started")
        return self.server.address

    def client(self, timeout_s: float = 30.0) -> "ServeClient":
        host, port = self.address
        return ServeClient(host, port, timeout_s=timeout_s)

    def request(
        self,
        method: str,
        path: str,
        body: Optional[dict[str, Any]] = None,
        *,
        headers: Optional[dict[str, str]] = None,
    ) -> tuple[int, dict[str, Any]]:
        """One-shot convenience request on a fresh connection."""
        with self.client() as client:
            return client.request(method, path, body, headers=headers)


class ServeClient:
    """A persistent keep-alive JSON client for one server."""

    def __init__(self, host: str, port: int, *, timeout_s: float = 30.0) -> None:
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout_s)

    def request(
        self,
        method: str,
        path: str,
        body: Optional[dict[str, Any]] = None,
        *,
        headers: Optional[dict[str, str]] = None,
    ) -> tuple[int, dict[str, Any]]:
        payload = None if body is None else json.dumps(body)
        sent = {"Content-Type": "application/json"} if payload else {}
        if headers:
            sent.update(headers)
        self._conn.request(method, path, body=payload, headers=sent)
        response = self._conn.getresponse()
        raw = response.read()
        try:
            decoded = json.loads(raw) if raw else {}
        except json.JSONDecodeError as exc:
            raise ServeHarnessError(
                f"non-JSON response ({response.status}): {raw[:200]!r}"
            ) from exc
        return response.status, decoded

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class ServeProcess:
    """A ``python -m repro serve`` child on an ephemeral port.

    Startup blocks until the child prints its ``http://host:port``
    banner (the recovery and follower banners precede it).  Unlike
    :class:`ServerThread` this is a separate interpreter with its own
    event loop, so ``kill -9`` genuinely destroys in-memory state —
    which is the entire point for crash-recovery and failover tests.

    >>> with ServeProcess(["--edit-log", log_dir]) as primary:        # doctest: +SKIP
    ...     follower = ServeProcess(
    ...         ["--edit-log", f_dir, "--follow", primary.url]
    ...     ).start()
    """

    def __init__(
        self,
        args: Sequence[str],
        *,
        env: Optional[dict[str, str]] = None,
        startup_timeout_s: float = 60.0,
        banner_lines: int = 20,
    ) -> None:
        self.args = list(args)
        self.env = dict(os.environ if env is None else env)
        self.env.setdefault("PYTHONPATH", "src")
        self._startup_timeout_s = startup_timeout_s
        self._banner_lines = banner_lines
        self.process: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None

    def start(self) -> "ServeProcess":
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *self.args],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=self.env,
        )
        for _ in range(self._banner_lines):
            line = self.process.stdout.readline()
            if not line:
                break
            # anchored on the serving banner: a follower also echoes the
            # primary's URL in its "following ..." line
            match = re.search(r"serving .* on http://[\d.]+:(\d+)", line)
            if match:
                self.port = int(match.group(1))
                break
        if self.port is None:
            self.kill()
            raise ServeHarnessError("serve child printed no address banner")
        return self

    @property
    def url(self) -> str:
        if self.port is None:
            raise ServeHarnessError("server not started")
        return f"http://127.0.0.1:{self.port}"

    def client(self, timeout_s: float = 30.0) -> ServeClient:
        if self.port is None:
            raise ServeHarnessError("server not started")
        return ServeClient("127.0.0.1", self.port, timeout_s=timeout_s)

    def request(
        self,
        method: str,
        path: str,
        body: Optional[dict[str, Any]] = None,
        *,
        headers: Optional[dict[str, str]] = None,
    ) -> tuple[int, dict[str, Any]]:
        """One-shot convenience request on a fresh connection."""
        with self.client() as client:
            return client.request(method, path, body, headers=headers)

    def kill(self) -> None:
        """``SIGKILL``: no flush, no graceful anything — the crash case."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
            self.process.wait(timeout=30)
        self._close_stdout()

    def terminate(self, timeout_s: float = 30.0) -> None:
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck child
                self.process.kill()
                self.process.wait(timeout=timeout_s)
        self._close_stdout()

    def _close_stdout(self) -> None:
        """Close the child's output pipe once it is reaped."""
        if self.process.stdout is not None:
            self.process.stdout.close()

    def __enter__(self) -> "ServeProcess":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.terminate()
