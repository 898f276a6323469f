"""One asyncio load-generating process over at most two connections.

Requests are encoded to bytes before the timed window.  Two drivers:

* :func:`closed_loop` — each connection sends its next request as soon
  as the previous answer arrives; latency is timed from send time.
* :func:`scheduled` — reads and edits go out at fixed due times on their
  own connections; latency is timed from the due time, so a stall also
  charges the requests queued behind it, and the generator's own
  lateness (send time minus due time) is kept per request.

Server CPU and memory are read from ``/proc``.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from dataclasses import dataclass
from typing import Callable, Optional

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def encode_request(method: str, path: str, body: Optional[dict] = None) -> bytes:
    payload = b"" if body is None else json.dumps(body).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: perfbench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n\r\n"
    )
    return head.encode("latin-1") + payload


@dataclass
class Sample:
    """One answered (or failed) request of the measured window."""

    index: int  # position in its request sequence
    due: float  # send time (closed loop) or due time (schedule)
    sent: float
    end: float
    status: int  # 0 = transport error
    body: bytes

    @property
    def latency_ms(self) -> float:
        return (self.end - self.due) * 1000.0

    @property
    def lateness_ms(self) -> float:
        return (self.sent - self.due) * 1000.0


class Connection:
    """A keep-alive HTTP/1.1 connection speaking raw pre-encoded bytes."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def exchange(self, raw: bytes) -> tuple[int, bytes]:
        """Send one request; ``(0, b"")`` on a transport error."""
        try:
            if self.writer is None:
                self.reader, self.writer = await asyncio.open_connection(
                    "127.0.0.1", self.port
                )
            self.writer.write(raw)
            head = await self.reader.readuntil(b"\r\n\r\n")
            status = int(head[9:12])
            length = 0
            for line in head.split(b"\r\n")[1:]:
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            body = await self.reader.readexactly(length) if length else b""
            return status, body
        except (ConnectionError, OSError, asyncio.IncompleteReadError, ValueError):
            self.close()
            return 0, b""

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
        self.reader = self.writer = None


async def closed_loop(
    port: int,
    requests: list[bytes],
    *,
    connections: int,
    warmup_s: float,
    seconds: float,
    on_window: Callable[[], None],
    offset: int = 0,
) -> tuple[list[Sample], float, float]:
    """Drive ``requests`` in order from ``offset`` (cycling) for
    ``warmup_s + seconds``.

    Returns the samples sent inside the measured window plus the window
    start and the time the last of them completed.  ``on_window`` runs
    once, at the window start.
    """
    loop_start = time.perf_counter()
    window_start = loop_start + warmup_s
    window_end = window_start + seconds
    cursor = iter(range(offset, 10**9))
    samples: list[Sample] = []

    async def drive() -> None:
        conn = Connection(port)
        try:
            while True:
                sent = time.perf_counter()
                if sent >= window_end:
                    return
                index = next(cursor)
                status, body = await conn.exchange(requests[index % len(requests)])
                end = time.perf_counter()
                if sent >= window_start:
                    samples.append(Sample(index, sent, sent, end, status, body))
        finally:
            conn.close()

    async def mark_window() -> None:
        await asyncio.sleep(max(0.0, window_start - time.perf_counter()))
        on_window()

    marker = asyncio.create_task(mark_window())
    await asyncio.gather(*(drive() for _ in range(connections)))
    await marker
    last = max((s.end for s in samples), default=window_end)
    return samples, window_start, last


async def scheduled(
    port: int,
    reads: list[bytes],
    read_rate: float,
    edits: list[bytes],
    edit_period_s: float,
    *,
    warmup_s: float,
    seconds: float,
    on_window: Callable[[], None],
    offset: int = 0,
) -> tuple[list[Sample], list[Sample], float, float]:
    """Reads at ``read_rate``/s from ``offset`` on one connection, edits
    on the other.

    Edits are due every ``edit_period_s`` from the window start.
    Returns (read samples, edit samples, window start, end of the last
    completed request); only requests due inside the window are kept.
    """
    loop_start = time.perf_counter()
    window_start = loop_start + warmup_s
    window_end = window_start + seconds

    async def run(
        raws: list[bytes], start: int, first_due: float, period: float,
        keep: list[Sample],
    ) -> None:
        conn = Connection(port)
        try:
            for index in range(start, start + len(raws)):
                raw = raws[index % len(raws)]
                due = first_due + (index - start) * period
                if due >= window_end:
                    return
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                sent = time.perf_counter()
                status, body = await conn.exchange(raw)
                end = time.perf_counter()
                if due >= window_start:
                    keep.append(Sample(index, due, sent, end, status, body))
        finally:
            conn.close()

    read_samples: list[Sample] = []
    edit_samples: list[Sample] = []
    on_window_task = asyncio.create_task(_at(window_start, on_window))
    await asyncio.gather(
        run(reads, offset, loop_start, 1.0 / read_rate, read_samples),
        run(edits, 0, window_start, edit_period_s, edit_samples),
    )
    await on_window_task
    last = max((s.end for s in read_samples + edit_samples), default=window_end)
    return read_samples, edit_samples, window_start, last


async def _at(when: float, action: Callable[[], None]) -> None:
    await asyncio.sleep(max(0.0, when - time.perf_counter()))
    action()


async def sequential(port: int, raws: list[bytes]) -> list[Sample]:
    """Send ``raws`` one after another on one connection (the write probe)."""
    conn = Connection(port)
    samples = []
    try:
        for index, raw in enumerate(raws):
            sent = time.perf_counter()
            status, body = await conn.exchange(raw)
            samples.append(Sample(index, sent, sent, time.perf_counter(), status, body))
    finally:
        conn.close()
    return samples


# -- /proc readers -------------------------------------------------------- #


def cpu_seconds(pids: list[int]) -> float:
    """utime + stime of ``pids`` (all threads), in seconds."""
    total = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            fields = handle.read().rsplit(b")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / CLOCK_TICKS


def pss_mb(pids: list[int]) -> float:
    """Summed proportional set size of ``pids`` in MB."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/smaps_rollup", "rb") as handle:
            for line in handle:
                if line.startswith(b"Pss:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0
