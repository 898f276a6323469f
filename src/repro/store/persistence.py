"""JSON-lines persistence for triple stores.

One JSON array ``[s, p, o]`` per line; values restricted to JSON scalars
(str, int, float, bool, None).  Round-trip safe for everything the rest
of the library stores.

Writes are *crash-safe*: :func:`save_jsonl` writes the full payload to a
temp file in the destination directory, verifies and fsyncs it, and
atomically :func:`os.replace`\\ s it into place — a crash mid-write can
never leave a truncated store where a good one used to be.  The
``torn-write`` fault kind of :mod:`repro.robust.faults` truncates the
temp payload mid-write to exercise the verify-and-rewrite recovery path
(counted in ``store.torn_writes_recovered``).

Reads are hardened: malformed lines raise a :class:`StoreError` naming
the file and line number, and ``strict=False`` degrades gracefully by
skipping them (counted in ``store.corrupt_lines_skipped``).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Union

from ..obs import recorder as _obs
from ..robust import faults as _faults
from .triples import StoreError, TripleStore

_SCALARS = (str, int, float, bool, type(None))


def save_jsonl(store: TripleStore, path: Union[str, Path]) -> int:
    """Write ``store`` to ``path`` atomically; returns the triple count.

    The destination either keeps its previous content or receives the
    complete new payload — never a truncated mixture.
    """
    path = Path(path)
    count = 0
    lines = []
    for triple in sorted(store, key=repr):
        for value in triple:
            if not isinstance(value, _SCALARS):
                raise StoreError(
                    f"value {value!r} of type {type(value).__name__} is not JSON-scalar"
                )
        lines.append(json.dumps([triple.subject, triple.predicate, triple.object]))
        count += 1
    payload = "\n".join(lines) + ("\n" if lines else "")
    _replace_atomic(path, payload)
    return count


def atomic_write_text(path: Union[str, Path], payload: str) -> None:
    """Crash-safely replace ``path``'s content with ``payload``.

    The same verified temp-file + fsync + ``os.replace`` discipline that
    :func:`save_jsonl` uses, exposed for other durable artifacts — the
    serving layer persists hot-swapped TBox text through it so a crash
    mid-swap can never leave a truncated TBox where a good one was.
    Consults the ``torn-write`` fault point exactly like triple saves.
    """
    _replace_atomic(Path(path), payload)


def _replace_atomic(path: Path, payload: str) -> None:
    """Write ``payload`` to a sibling temp file and swap it into place."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        _write_verified(tmp, payload)
        fd = os.open(tmp, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_verified(tmp: Path, payload: str) -> None:
    """Write ``payload``, reading it back to catch torn writes.

    The first attempt consults the ``torn-write`` fault point, which
    truncates the payload mid-write when it fires; the rewrite attempt
    bypasses injection so recovery converges deterministically.
    """
    if _faults.should_fire("torn-write"):
        tmp.write_text(payload[: len(payload) // 2], encoding="utf-8")
    else:
        tmp.write_text(payload, encoding="utf-8")
    if tmp.read_text(encoding="utf-8") != payload:
        _obs.incr("store.torn_writes_recovered")
        tmp.write_text(payload, encoding="utf-8")
        if tmp.read_text(encoding="utf-8") != payload:  # pragma: no cover
            raise StoreError(f"{tmp}: torn write could not be recovered")


def append_verified_bytes(path: Union[str, Path], data: bytes) -> bool:
    """Durably append ``data`` to ``path``; returns True if a torn first
    attempt had to be recovered.

    The append analogue of :func:`atomic_write_text` for logs that grow
    one record at a time (the serving layer's edit log): write, flush,
    fsync, then read the tail back and compare.  The first attempt
    consults the ``torn-write`` fault point of :mod:`repro.robust.faults`
    — a firing truncates the appended payload mid-write — and the
    rewrite truncates back to the pre-append offset and retries with
    injection bypassed, so a caller that returns from this function has
    its record durably and completely on disk.  Recovered attempts are
    counted in ``store.torn_appends_recovered``.
    """
    path = Path(path)
    with path.open("ab") as handle:
        offset = handle.tell()
        if _faults.should_fire("torn-write", site="append"):
            handle.write(data[: len(data) // 2])
        else:
            handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    recovered = False
    if _read_tail(path, offset) != data:
        _obs.incr("store.torn_appends_recovered")
        recovered = True
        with path.open("r+b") as handle:
            handle.truncate(offset)
            handle.seek(offset)
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        if _read_tail(path, offset) != data:  # pragma: no cover
            raise StoreError(f"{path}: torn append could not be recovered")
    return recovered


def _read_tail(path: Path, offset: int) -> bytes:
    with path.open("rb") as handle:
        handle.seek(offset)
        return handle.read()


def load_jsonl(
    path: Union[str, Path], *, use_indexes: bool = True, strict: bool = True
) -> TripleStore:
    """Read a store previously written by :func:`save_jsonl`.

    Every malformed line — invalid JSON, not a 3-element array, or a
    non-scalar value — raises a :class:`StoreError` carrying the path and
    line number.  With ``strict=False`` such lines are skipped instead
    and counted in ``store.corrupt_lines_skipped``, so a partially
    corrupted store still yields every intact triple.
    """
    path = Path(path)
    store = TripleStore(use_indexes=use_indexes)
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            row = _parse_line(path, lineno, line)
        except StoreError:
            if strict:
                raise
            _obs.incr("store.corrupt_lines_skipped")
            continue
        store.add(*row)
    return store


def _parse_line(path: Path, lineno: int, line: str) -> list:
    try:
        row = json.loads(line)
    except json.JSONDecodeError as exc:
        raise StoreError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
    if not isinstance(row, list) or len(row) != 3:
        raise StoreError(f"{path}:{lineno}: expected a 3-element array")
    for value in row:
        if not isinstance(value, _SCALARS):
            raise StoreError(
                f"{path}:{lineno}: value {value!r} is not JSON-scalar"
            )
    return row
