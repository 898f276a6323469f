"""Deterministic, seeded fault injection for the robustness layer.

Production failure modes — budget exhaustion, deadline expiry, torn
writes — are rare in tests unless injected.  This module installs one
*current* :class:`FaultPlan`, mirroring the ``NullRecorder`` pattern of
:mod:`repro.obs`: the default :data:`NULL_PLAN` makes every fault point a
single global load plus an identity check, so instrumented hot paths pay
(almost) nothing until a caller (or the ``REPRO_FAULTS`` environment
variable) arms a plan.

Fault kinds and the points that consult them:

``exhaustion``
    :meth:`repro.robust.Budget` charge points — a firing forces a
    ``BudgetExhausted`` as if the node/branch budget had run out.
``deadline``
    :meth:`Budget.check_deadline` — a firing simulates wall-clock expiry.
``torn-write``
    :func:`repro.store.persistence.save_jsonl` /
    :func:`~repro.store.persistence.atomic_write_text` — a firing
    truncates the temp-file payload mid-write, exercising the
    verify-and-rewrite recovery path — and
    :func:`~repro.store.persistence.append_verified_bytes` — a firing
    truncates an edit-log record mid-append, exercising the
    truncate-and-rewrite recovery that keeps acknowledged edits durable.
``repl-drop``
    :meth:`repro.serve.replication.FollowerChannel.poll_once` — a firing
    discards a fetched record batch before it is applied, as if the
    response were lost in flight; the follower re-requests it next poll.
``repl-dup``
    The same point — a firing applies a fetched batch *twice*,
    exercising the stale-record skip that makes delivery idempotent.
``repl-truncate``
    The same point — a firing cuts a fetched batch to a prefix,
    simulating a connection dropped mid-stream; the remainder arrives
    on a later poll.

Injection targets *first attempts only*: escalated budgets
(``Budget.generation > 0``) and persistence rewrite attempts bypass the
plan, so recovery paths converge deterministically — a suite run under
``REPRO_FAULTS=exhaustion,torn-write`` must stay green by absorbing the
faults, not by dodging them.

Schedules are deterministic: each kind keeps an activation counter and
fires when ``(count + crc32(kind) + seed) % period == 0``.  A fault
point that names a ``site`` keeps its own counter, so other points'
traffic cannot use up its firings: a torn-write plan tears edit-log
appends on their own schedule, however many atomic writes came first.
Two plans built with the same arguments fire at exactly the same
activations.
"""

from __future__ import annotations

import os
import zlib
from contextlib import contextmanager
from typing import Iterable, Iterator

from ..obs import recorder as _obs

__all__ = [
    "FaultPlan",
    "NULL_PLAN",
    "KINDS",
    "get_plan",
    "set_plan",
    "use_faults",
    "suspended",
    "should_fire",
    "plan_from_env",
]

#: every fault kind a point may consult
KINDS = frozenset(
    {"exhaustion", "deadline", "torn-write", "repl-drop", "repl-dup",
     "repl-truncate"}
)


class FaultPlan:
    """A seeded schedule deciding which fault-point activations fire."""

    __slots__ = ("kinds", "period", "seed", "_counts")

    def __init__(
        self, kinds: Iterable[str], *, period: int = 5, seed: int = 0
    ) -> None:
        kinds = frozenset(kinds)
        unknown = kinds - KINDS
        if unknown:
            raise ValueError(
                f"unknown fault kinds {sorted(unknown)}; expected a subset of "
                f"{sorted(KINDS)}"
            )
        if period < 1:
            raise ValueError(f"period must be >= 1, got {period}")
        self.kinds = kinds
        self.period = period
        self.seed = seed
        self._counts: dict[tuple[str, str], int] = {}

    @classmethod
    def always(cls, *kinds: str) -> "FaultPlan":
        """A plan whose armed kinds fire on every activation."""
        return cls(kinds, period=1)

    def fires(self, kind: str, site: str = "") -> bool:
        """Advance ``kind``'s counter at ``site``; True when this one fires."""
        if kind not in self.kinds:
            return False
        key = (kind, site)
        count = self._counts.get(key, 0)
        self._counts[key] = count + 1
        return (count + zlib.crc32(kind.encode("utf-8")) + self.seed) % self.period == 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultPlan(kinds={sorted(self.kinds)}, period={self.period}, "
            f"seed={self.seed})"
        )


#: the disabled default; identity-compared on every fault point
NULL_PLAN = FaultPlan(frozenset())

_current: FaultPlan = NULL_PLAN


def get_plan() -> FaultPlan:
    """The plan fault points currently consult (NULL_PLAN when disarmed)."""
    return _current


def set_plan(plan: FaultPlan | None) -> FaultPlan:
    """Install ``plan`` as current (``None`` restores the null default)."""
    global _current
    _current = plan if plan is not None else NULL_PLAN
    return _current


@contextmanager
def use_faults(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Arm ``plan`` for the duration of the block."""
    global _current
    previous = _current
    _current = plan
    try:
        yield plan
    finally:
        _current = previous


def suspended() -> "contextmanager":
    """Disarm all fault injection inside the block.

    Tests asserting exact definite outcomes use this so they stay
    deterministic when the suite runs with ``REPRO_FAULTS`` armed.
    """
    return use_faults(NULL_PLAN)


def should_fire(kind: str, site: str = "") -> bool:
    """Consult the current plan at a fault point (free when disarmed).

    ``site`` names a point that keeps its own activation counter.
    """
    plan = _current
    if plan is NULL_PLAN:
        return False
    if plan.fires(kind, site):
        _obs.incr(f"faults.fired.{kind}")
        return True
    return False


def plan_from_env(environ: "os._Environ | dict[str, str] | None" = None) -> FaultPlan:
    """Build a plan from ``REPRO_FAULTS`` (comma-separated kinds).

    ``REPRO_FAULTS_PERIOD`` and ``REPRO_FAULTS_SEED`` tune the schedule.
    Unknown kind names are ignored so a typo'd environment cannot crash
    imports; an unset or empty variable yields :data:`NULL_PLAN`.
    """
    environ = os.environ if environ is None else environ
    raw = environ.get("REPRO_FAULTS", "")
    kinds = {k.strip() for k in raw.split(",") if k.strip()} & KINDS
    if not kinds:
        return NULL_PLAN
    return FaultPlan(
        kinds,
        period=int(environ.get("REPRO_FAULTS_PERIOD", "5")),
        seed=int(environ.get("REPRO_FAULTS_SEED", "0")),
    )


# arm from the environment once, at import: `REPRO_FAULTS=exhaustion,torn-write
# python -m pytest` runs the whole suite under injection
set_plan(plan_from_env())
