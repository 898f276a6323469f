"""B6 — substrate: the join-order planning ablation.

Join-order selection by index-backed selectivity estimates vs
most-bound-first vs static order on a skewed dataset.
"""

import pytest

from repro.store import Pattern, Query, TripleStore, Var


def skewed_store() -> TripleStore:
    store = TripleStore()
    for i in range(2000):
        store.add(f"s{i}", "common", f"o{i % 20}")
    for i in range(5):
        store.add(f"s{i}", "rare", "target")
    return store


@pytest.mark.parametrize("order", ["selectivity", "most-bound", "static"])
def test_b6_join_order_ablation(benchmark, order):
    store = skewed_store()
    x, y = Var("x"), Var("y")
    # written worst-order-first: the huge pattern leads the static plan
    query = Query(
        [Pattern(x, "common", y), Pattern(x, "rare", "target")],
        select=[x],
        order=order,
    )
    rows = benchmark(query.run, store)
    assert len(rows) == 5
