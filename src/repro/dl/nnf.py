"""Negation normal form for DL concepts.

Pushes negation inward to atomic concepts using the standard dualities:
¬(C ⊓ D) ↝ ¬C ⊔ ¬D, ¬∃r.C ↝ ∀r.¬C, ¬≥n r.C ↝ ≤(n−1) r.C (and ⊥ for n=0),
¬≤n r.C ↝ ≥(n+1) r.C.  The tableau operates exclusively on NNF concepts.
"""

from __future__ import annotations

from ..obs import recorder as _obs
from .syntax import (
    BOTTOM,
    TOP,
    And,
    AtLeast,
    AtMost,
    Atomic,
    Concept,
    Exists,
    Forall,
    Not,
    Or,
    _Bottom,
    _Top,
)


# Concepts are immutable and hashable, so NNF is a pure function of the
# (concept, polarity) pair — memoize it process-wide.  Classification
# negates the same named concepts thousands of times (every subsumption
# test builds ``specific ⊓ ¬general``); interning makes each conversion
# happen once and, as a byproduct, returns the *same* object for equal
# inputs, which keeps the reasoner's concept-keyed caches compact.
_CACHE_CAP = 65536
_nnf_cache: dict[tuple[Concept, bool], Concept] = {}


def nnf_cache_clear() -> None:
    """Drop the process-wide NNF interning cache (tests, memory pressure)."""
    _nnf_cache.clear()


def nnf_cache_size() -> int:
    return len(_nnf_cache)


def to_nnf(concept: Concept) -> Concept:
    """The negation normal form of ``concept``."""
    return _nnf(concept, positive=True)


def negate(concept: Concept) -> Concept:
    """The NNF of ¬``concept``."""
    return _nnf(concept, positive=False)


def _nnf(c: Concept, positive: bool) -> Concept:
    key = (c, positive)
    cached = _nnf_cache.get(key)
    if cached is not None:
        _obs.incr("nnf.cache_hits")
        return cached
    result = _nnf_compute(c, positive)
    if len(_nnf_cache) >= _CACHE_CAP:
        # FIFO eviction: dicts iterate in insertion order, so dropping the
        # first key retires the oldest entry.  A wholesale clear() here
        # used to throw away 65k warm entries to admit one.  Another
        # thread may clear or evict meanwhile, so the key may be gone.
        _nnf_cache.pop(next(iter(_nnf_cache), None), None)
        _obs.incr("nnf.cache_evictions")
    _nnf_cache[key] = result
    return result


def _nnf_compute(c: Concept, positive: bool) -> Concept:
    if isinstance(c, Atomic):
        return c if positive else Not(c)
    if isinstance(c, _Top):
        return TOP if positive else BOTTOM
    if isinstance(c, _Bottom):
        return BOTTOM if positive else TOP
    if isinstance(c, Not):
        return _nnf(c.operand, not positive)
    if isinstance(c, And):
        parts = [_nnf(op, positive) for op in c.operands]
        return And.of(parts) if positive else Or.of(parts)
    if isinstance(c, Or):
        parts = [_nnf(op, positive) for op in c.operands]
        return Or.of(parts) if positive else And.of(parts)
    if isinstance(c, Exists):
        if positive:
            return Exists(c.role, _nnf(c.filler, True))
        return Forall(c.role, _nnf(c.filler, False))
    if isinstance(c, Forall):
        if positive:
            return Forall(c.role, _nnf(c.filler, True))
        return Exists(c.role, _nnf(c.filler, False))
    if isinstance(c, AtLeast):
        if positive:
            if c.n == 0:
                return TOP
            return AtLeast(c.n, c.role, _nnf(c.filler, True))
        if c.n == 0:
            return BOTTOM  # ¬(≥0 r.C) is unsatisfiable
        return AtMost(c.n - 1, c.role, _nnf(c.filler, True))
    if isinstance(c, AtMost):
        if positive:
            return AtMost(c.n, c.role, _nnf(c.filler, True))
        return AtLeast(c.n + 1, c.role, _nnf(c.filler, True))
    raise TypeError(f"unknown concept node {c!r}")


def is_nnf(concept: Concept) -> bool:
    """True iff negation occurs only directly on atomic concepts."""
    if isinstance(concept, (Atomic, _Top, _Bottom)):
        return True
    if isinstance(concept, Not):
        return isinstance(concept.operand, Atomic)
    if isinstance(concept, (And, Or)):
        return all(is_nnf(op) for op in concept.operands)
    if isinstance(concept, (Exists, Forall, AtLeast, AtMost)):
        return is_nnf(concept.filler)
    raise TypeError(f"unknown concept node {concept!r}")
