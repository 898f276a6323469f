"""The front↔worker channel and the relay behind ``--workers N``.

* a property over the frame reader: any chunking of a stream of frames
  delivers exactly those frames, in order, whatever their sizes;
* the size bounds: an oversized response frame poisons the front's
  channel and fails its pending requests, and an oversized request frame
  is answered 400 before the worker closes the channel;
* many concurrent requests over one channel, answered out of order;
* ``ServeProcess`` closes the child's output pipe once it is reaped;
* end to end (fork only): a pool relays byte-for-byte what a single
  process answers, and a follower front stamps its lag header on a
  relayed answer.
"""

import asyncio
import http.client
import json
import os
import signal
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dl import Reasoner, parse_tbox
from repro.dl.syntax import Atomic
from repro.serve import ServeConfig, ServeProcess, WorkerClient, WorkerServer
from repro.serve.control import (
    HEADER,
    INITIAL_BUFFER,
    MAX_REQUEST_FRAME,
    MAX_RESPONSE_FRAME,
    FrameProtocol,
    WorkerProtocolError,
    encode_frame,
)

VEHICLES = """
car [= motorvehicle & some size.small
pickup [= motorvehicle & some size.big
motorvehicle [= some uses.gasoline
"""


# --------------------------------------------------------------------------- #
# the frame reader
# --------------------------------------------------------------------------- #


class _Transport:
    def __init__(self):
        self.closed = False

    def is_closing(self):
        return self.closed

    def close(self):
        self.closed = True


class _Recorder(FrameProtocol):
    def __init__(self, max_frame=MAX_REQUEST_FRAME):
        super().__init__(max_frame)
        self.frames = []
        self.too_large = []
        self.connection_made(_Transport())

    def frame_received(self, rid, head, body):
        self.frames.append((rid, head, body))

    def frame_too_large(self, rid, length):
        self.too_large.append((rid, length))
        self.transport.close()


def _feed(protocol, data, chunks):
    """Deliver ``data`` as a selector transport would, in ``chunks`` sizes."""
    offset, turn = 0, 0
    while offset < len(data) and not protocol.transport.is_closing():
        view = protocol.get_buffer(-1)
        n = min(len(view), chunks[turn % len(chunks)], len(data) - offset)
        view[:n] = data[offset:offset + n]
        # the transport keeps its view alive while the protocol consumes
        protocol.buffer_updated(n)
        del view
        offset += n
        turn += 1


def _body(size):
    pattern = bytes(range(256))
    return (pattern * (size // 256 + 1))[:size]


frames_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.text(
            alphabet=st.characters(min_codepoint=32, max_codepoint=255),
            max_size=24,
        ),
        st.one_of(
            st.binary(max_size=64),
            st.integers(min_value=0, max_value=5 * INITIAL_BUFFER).map(_body),
        ),
    ),
    max_size=8,
)


class TestFrameReader:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        frames=frames_strategy,
        chunks=st.lists(
            st.integers(min_value=1, max_value=3 * INITIAL_BUFFER),
            min_size=1,
            max_size=6,
        ),
    )
    def test_any_chunking_delivers_every_frame_in_order(self, frames, chunks):
        protocol = _Recorder()
        stream = b"".join(encode_frame(rid, head, body) for rid, head, body in frames)
        _feed(protocol, stream, chunks)
        assert protocol.frames == [
            (rid, head.encode("latin-1"), body) for rid, head, body in frames
        ]
        assert not protocol.too_large

    def test_empty_body_and_body_with_newlines(self):
        protocol = _Recorder()
        stream = encode_frame(1, "GET /a", b"") + encode_frame(2, "x", b"\n\n")
        _feed(protocol, stream, [3])
        assert protocol.frames == [(1, b"GET /a", b""), (2, b"x", b"\n\n")]

    def test_length_above_the_cap_ends_the_reading(self):
        protocol = _Recorder(max_frame=100)
        stream = (
            encode_frame(1, "ok", b"")
            + HEADER.pack(101, 9)
            + encode_frame(2, "never", b"")
        )
        _feed(protocol, stream, [len(stream)])
        assert protocol.frames == [(1, b"ok", b"")]
        assert protocol.too_large == [(9, 101)]
        assert protocol.transport.is_closing()


# --------------------------------------------------------------------------- #
# the channel against real Unix sockets
# --------------------------------------------------------------------------- #


async def _read_frame(reader):
    length, rid = HEADER.unpack(await reader.readexactly(HEADER.size))
    head, _, body = (await reader.readexactly(length)).partition(b"\n")
    return rid, head, body


@pytest.mark.skipif(not hasattr(asyncio, "start_unix_server"), reason="Unix sockets")
class TestChannel:
    def test_oversized_response_fails_every_pending_request(self, tmp_path):
        path = str(tmp_path / "w.sock")

        async def go():
            async def peer(reader, writer):
                first = await _read_frame(reader)
                await _read_frame(reader)
                writer.write(HEADER.pack(MAX_RESPONSE_FRAME + 1, first[0]))
                await writer.drain()
                with pytest.raises(asyncio.IncompleteReadError):
                    await _read_frame(reader)
                writer.close()
                await writer.wait_closed()

            server = await asyncio.start_unix_server(peer, path=path)
            client = WorkerClient(path)
            try:
                results = await asyncio.gather(
                    client.request("GET", "/a"),
                    client.request("GET", "/b"),
                    return_exceptions=True,
                )
            finally:
                await client.close()
                server.close()
                await server.wait_closed()
            return results

        results = asyncio.run(go())
        assert all(isinstance(r, WorkerProtocolError) for r in results), results

    def test_oversized_request_is_answered_400_then_closed(self, tmp_path):
        path = str(tmp_path / "w.sock")

        async def go():
            worker = WorkerServer(
                ServeConfig(), index=0, socket_path=path, tbox=parse_tbox(VEHICLES)
            )
            await worker.start()
            try:
                reader, writer = await asyncio.open_unix_connection(path)
                writer.write(HEADER.pack(MAX_REQUEST_FRAME + 1, 7))
                await writer.drain()
                answer = await _read_frame(reader)
                eof = await reader.read()
                writer.close()
                await writer.wait_closed()
            finally:
                await worker.stop()
            return answer, eof

        (rid, head, body), eof = asyncio.run(go())
        assert (rid, head) == (7, b"400 - -")
        assert "exceeds" in json.loads(body)["message"]
        assert eof == b""

    def test_concurrent_requests_share_one_channel_out_of_order(self, tmp_path):
        path = str(tmp_path / "w.sock")
        names = ["car", "pickup", "motorvehicle", "gasoline"]
        pairs = [(g, s) for g in names for s in names]

        async def go():
            worker = WorkerServer(
                ServeConfig(), index=0, socket_path=path, tbox=parse_tbox(VEHICLES)
            )
            others_done = asyncio.Event()

            async def held(request):
                await others_done.wait()
                return 200, {"held": True}, None

            worker.routes["/v1/held"] = ("POST", "open", held)
            await worker.start()
            client = WorkerClient(path)
            finished = []

            async def ask(index, path, payload):
                raw = json.dumps(payload).encode("utf-8")
                status, headers, body = await client.request("POST", path, raw)
                finished.append(index)
                if len(finished) == len(pairs):
                    others_done.set()
                return status, headers, json.loads(body)

            try:
                answers = await asyncio.gather(
                    ask(-1, "/v1/held", {}),
                    *(
                        ask(i, "/v1/subsumes", {"general": g, "specific": s})
                        for i, (g, s) in enumerate(pairs)
                    ),
                )
                channels = len(worker._channels)
            finally:
                await client.close()
                await worker.stop()
            return answers, finished, channels

        answers, finished, channels = asyncio.run(go())
        reasoner = Reasoner(parse_tbox(VEHICLES))
        assert channels == 1
        # the held request went first and came back last
        assert finished[-1] == -1
        assert answers[0] == (200, {}, {"held": True})
        for (general, specific), (status, headers, body) in zip(pairs, answers[1:]):
            assert status == 200
            assert headers == {"tbox-version": "1"}
            assert body["answer"] == reasoner.subsumes(
                Atomic(general), Atomic(specific)
            ), (general, specific)


# --------------------------------------------------------------------------- #
# ServeProcess reaps its pipe
# --------------------------------------------------------------------------- #


@pytest.fixture()
def boot_file(tmp_path):
    path = tmp_path / "boot.tbox"
    path.write_text(VEHICLES, encoding="utf-8")
    return str(path)


class TestServeProcessPipe:
    def test_terminate_closes_stdout(self, boot_file):
        server = ServeProcess(["--tbox", boot_file]).start()
        server.terminate()
        assert server.process.stdout.closed

    def test_kill_closes_stdout(self, boot_file):
        server = ServeProcess(["--tbox", boot_file]).start()
        server.kill()
        assert server.process.stdout.closed

    def test_kill_of_an_exited_child_closes_stdout(self, boot_file):
        server = ServeProcess(["--tbox", boot_file]).start()
        os.kill(server.process.pid, signal.SIGKILL)
        server.process.wait(timeout=30)
        server.kill()
        assert server.process.stdout.closed


# --------------------------------------------------------------------------- #
# end to end: the relay
# --------------------------------------------------------------------------- #


def _exchange(port, method, path, body):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, response.getheader("Retry-After"), response.read(), {
            name.lower(): value for name, value in response.getheaders()
        }
    finally:
        conn.close()


RELAY_REQUESTS = [
    ("/v1/subsumes", b'{"general": "motorvehicle", "specific": "car"}'),
    ("/v1/subsumes", b'{"general": "pickup", "specific": "car"}'),
    ("/v1/satisfiable", b'{"concept": "car & some size.small"}'),
    ("/v1/satisfiable", b'{"concept": "car &"}'),
    ("/v1/subsumes", b'{"general": "car"}'),
    ("/v1/classify", b"{}"),
    ("/v1/satisfiable", b'{"concept": ">= 12 has.wheel"}'),
]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="fork-only test")
class TestRelayEndToEnd:
    def test_pool_answers_byte_for_byte_like_one_process(self, boot_file):
        flags = ["--tbox", boot_file, "--node-allowance", "20", "--soft-limit", "4"]
        # injected faults fire by per-process activation counts, which a
        # pool and a single process reach at different requests
        env = {k: v for k, v in os.environ.items() if k != "REPRO_FAULTS"}
        answers = {}
        for workers in ("0", "2"):
            server = ServeProcess(
                [*flags, "--workers", workers], env=env, startup_timeout_s=120.0
            ).start()
            try:
                answers[workers] = [
                    _exchange(server.port, "POST", path, body)[:3]
                    for path, body in RELAY_REQUESTS
                ]
            finally:
                server.terminate()
        statuses = [status for status, _, _ in answers["0"]]
        assert statuses == [200, 200, 200, 400, 400, 200, 206]
        assert answers["2"] == answers["0"]

    def test_follower_front_stamps_lag_on_relayed_reads(self, boot_file):
        with tempfile.TemporaryDirectory() as logs:
            primary = ServeProcess(
                ["--tbox", boot_file, "--edit-log", os.path.join(logs, "p")]
            ).start()
            try:
                follower = ServeProcess(
                    [
                        "--edit-log", os.path.join(logs, "f"),
                        "--follow", primary.url,
                        "--probe-interval-ms", "50",
                        "--workers", "1",
                    ],
                    startup_timeout_s=120.0,
                ).start()
                try:
                    deadline = time.monotonic() + 30
                    while time.monotonic() < deadline:
                        status, _, raw, headers = _exchange(
                            follower.port, "POST", "/v1/subsumes",
                            b'{"general": "motorvehicle", "specific": "car"}',
                        )
                        if status == 200 and json.loads(raw)["tbox_version"] == 1:
                            break
                        time.sleep(0.05)
                    assert status == 200, raw
                    assert json.loads(raw)["answer"] is True
                    assert headers.get("x-replication-lag-records") == "0"
                finally:
                    follower.terminate()
            finally:
                primary.terminate()
