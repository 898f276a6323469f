"""Resource budgets: node, branch, and wall-clock limits for reasoning.

A :class:`Budget` is the mutable ledger one governed query charges
against.  Exhaustion raises :class:`BudgetExhausted` (an internal control
signal — governed entry points catch it and return an ``UNKNOWN``
:class:`repro.robust.Verdict`; only :meth:`repro.dl.Reasoner.model_names`
lets it through, to the classifier that records the name's open pairs).

Budgets compose across a run:

* :meth:`Budget.child` — a fresh per-query ledger *sharing the parent's
  wall-clock deadline*, so ``classify()`` can give every tableau model
  and test its own node allowance while the whole run still honors one
  deadline;
* :meth:`Budget.escalated` — a geometrically larger budget for retrying
  an UNKNOWN query (see :func:`repro.robust.retry_with_escalation`);
  escalated budgets carry ``generation > 0`` and are exempt from injected
  faults, so escalation recovers deterministically.
"""

from __future__ import annotations

import time
from typing import Optional

from . import faults as _faults


class BudgetExhausted(Exception):
    """A governed computation ran out of budget; ``reason`` says which."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class Budget:
    """Node / branch / wall-clock limits with deadline checks.

    ``None`` for any limit means unlimited on that axis.  ``max_ms``
    fixes a deadline at construction time; :meth:`child` budgets inherit
    the *same* deadline rather than restarting the clock.

    >>> b = Budget(max_nodes=10)
    >>> b.note_nodes(7); b.nodes
    7
    >>> b.escalated(4).max_nodes
    40
    """

    __slots__ = ("max_nodes", "max_branches", "max_ms", "generation",
                 "nodes", "branches", "_deadline")

    def __init__(
        self,
        *,
        max_nodes: Optional[int] = None,
        max_branches: Optional[int] = None,
        max_ms: Optional[float] = None,
        generation: int = 0,
        _deadline: Optional[float] = None,
    ) -> None:
        for name, limit in (
            ("max_nodes", max_nodes),
            ("max_branches", max_branches),
            ("max_ms", max_ms),
        ):
            if limit is not None and limit < 0:
                raise ValueError(f"{name} must be non-negative, got {limit!r}")
        self.max_nodes = max_nodes
        self.max_branches = max_branches
        self.max_ms = max_ms
        self.generation = generation
        self.nodes = 0
        self.branches = 0
        if _deadline is not None:
            self._deadline = _deadline
        elif max_ms is not None:
            self._deadline = time.monotonic() + max_ms / 1000.0
        else:
            self._deadline = None

    @classmethod
    def unlimited(cls) -> "Budget":
        return cls()

    # -- charging ------------------------------------------------------- #

    def note_nodes(self, count: int) -> None:
        """Record the completion graph's node high-water mark."""
        if count > self.nodes:
            self.nodes = count
        if self.generation == 0 and _faults.should_fire("exhaustion"):
            raise BudgetExhausted("injected: forced exhaustion")
        if self.max_nodes is not None and count > self.max_nodes:
            raise BudgetExhausted(f"nodes: {count} > max_nodes={self.max_nodes}")

    def charge_branch(self, n: int = 1) -> None:
        """Charge ``n`` nondeterministic branch explorations."""
        self.branches += n
        if self.generation == 0 and _faults.should_fire("exhaustion"):
            raise BudgetExhausted("injected: forced exhaustion")
        if self.max_branches is not None and self.branches > self.max_branches:
            raise BudgetExhausted(
                f"branches: {self.branches} > max_branches={self.max_branches}"
            )

    def check_deadline(self) -> None:
        if self.generation == 0 and _faults.should_fire("deadline"):
            raise BudgetExhausted("injected: deadline expiry")
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise BudgetExhausted(f"deadline: exceeded max_ms={self.max_ms}")

    def remaining_ms(self) -> Optional[float]:
        """Milliseconds until the deadline (``None`` when unbounded).

        Never negative: an expired deadline reads as ``0.0``.  Servers use
        this to size ``Retry-After`` hints and to decide whether a queued
        request still has enough runway to be worth starting.
        """
        if self._deadline is None:
            return None
        return max(0.0, (self._deadline - time.monotonic()) * 1000.0)

    # -- composition ---------------------------------------------------- #

    def child(self) -> "Budget":
        """A fresh per-query ledger sharing this budget's deadline."""
        return Budget(
            max_nodes=self.max_nodes,
            max_branches=self.max_branches,
            max_ms=self.max_ms,
            generation=self.generation,
            _deadline=self._deadline,
        )

    def escalated(self, factor: int = 4) -> "Budget":
        """A ``factor``-times-larger budget with a restarted deadline."""
        if factor < 1:
            raise ValueError(f"escalation factor must be >= 1, got {factor}")

        def scale(limit):
            return None if limit is None else limit * factor

        return Budget(
            max_nodes=scale(self.max_nodes),
            max_branches=scale(self.max_branches),
            max_ms=scale(self.max_ms),
            generation=self.generation + 1,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        def show(limit):
            return "∞" if limit is None else limit

        return (
            f"Budget(nodes={self.nodes}/{show(self.max_nodes)}, "
            f"branches={self.branches}/{show(self.max_branches)}, "
            f"max_ms={show(self.max_ms)}, gen={self.generation})"
        )
