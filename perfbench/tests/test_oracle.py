"""The answer oracles on the paper's tiny vehicle TBox."""

from oracle import ComplexOracle, HierarchyOracle, InstanceOracle

VEHICLES = """
car [= motorvehicle & roadvehicle & some size.small
pickup [= motorvehicle & roadvehicle & some size.big
motorvehicle [= some uses.gasoline
roadvehicle [= >= 4 has.wheel
"""
EDITED = VEHICLES + "van [= car\n"


def test_hierarchy_oracle_answers_per_version():
    oracle = HierarchyOracle({1: VEHICLES, 2: EDITED})
    assert oracle.subsumes(1, "motorvehicle", "car") is True
    assert oracle.subsumes(1, "car", "motorvehicle") is False
    assert oracle.satisfiable(1, "pickup") is True
    assert oracle.subsumes(2, "motorvehicle", "van") is True
    # an unknown version is not guessed
    assert oracle.subsumes(3, "motorvehicle", "car") is None


def test_instance_oracle_follows_the_materialized_version():
    hierarchies = HierarchyOracle({1: VEHICLES, 2: EDITED})
    told = [("i0", "car"), ("i1", "van"), ("i2", "pickup"), ("i3", "roadvehicle")]
    oracle = InstanceOracle(told, [("i0", "has", "i3")], hierarchies)
    wanted = {1: {("motorvehicle", None), ("roadvehicle", 2)}, 2: {("car", None)}}
    answers = oracle.answers(wanted)
    # at v1 "van" is an unknown name, so i1 is only a van
    assert answers[1, "motorvehicle", None] == ["i0", "i2"]
    # a limit keeps the first ids in load order
    assert answers[1, "roadvehicle", 2] == ["i0", "i2"]
    assert answers[2, "car", None] == ["i0", "i1"]


def test_complex_oracle_decides_and_reports_undecided():
    oracle = ComplexOracle(VEHICLES, max_nodes=2000, max_ms=1000.0)
    assert oracle.decide("subsumes", ("some uses.gasoline", "car")) is True
    assert oracle.decide("subsumes", ("car", "pickup")) is False
    assert oracle.decide("satisfiable", ("car & <= 3 has.wheel",)) is False
    assert oracle.decide("satisfiable", ("car | ~car",)) is True
    starved = ComplexOracle(VEHICLES, max_nodes=2000, max_ms=1000.0)
    starved.max_nodes = 0
    assert starved.decide("satisfiable", ("car & all has.~wheel",)) is None
