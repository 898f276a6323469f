"""CLI resource-governance flags: --budget-nodes / --budget-ms / --escalate."""

import pytest

from repro.__main__ import EXIT_PARTIAL, main
from repro.robust import faults

#: the disjunction leaves a non-Horn residue, so classification builds
#: one tableau model per name; car's ≥12 wheel-successors need 13
#: completion-graph nodes, so a 10-node budget reliably exhausts its model
WIDE_TEXT = """
car [= motorvehicle & >= 12 has.wheel
motorvehicle [= some uses.gasoline & (petrol | diesel)
"""


@pytest.fixture(autouse=True)
def quiet_faults():
    with faults.suspended():
        yield


@pytest.fixture
def wide_file(tmp_path):
    path = tmp_path / "wide.tbox"
    path.write_text(WIDE_TEXT, encoding="utf-8")
    return str(path)


class TestBudgetFlags:
    def test_starved_run_exits_partial_and_reports_edges(self, wide_file, capsys):
        code = main(["classify", wide_file, "--budget-nodes", "10"])
        captured = capsys.readouterr()
        assert code == EXIT_PARTIAL == 3
        assert "PARTIAL" in captured.err
        assert "⊑" in captured.err and "?" in captured.err
        # the partial hierarchy is still printed on stdout
        assert captured.out.startswith("⊤")

    def test_escalate_resolves_and_exits_zero(self, wide_file, capsys):
        code = main(["classify", wide_file, "--budget-nodes", "10", "--escalate"])
        captured = capsys.readouterr()
        assert code == 0
        assert "PARTIAL" not in captured.err
        assert "motorvehicle" in captured.out

    def test_generous_budget_exits_zero(self, wide_file, capsys):
        assert main(["classify", wide_file, "--budget-nodes", "2000"]) == 0
        assert "PARTIAL" not in capsys.readouterr().err

    def test_unbudgeted_run_unchanged(self, wide_file, capsys):
        assert main(["classify", wide_file]) == 0
        assert capsys.readouterr().out.startswith("⊤")

    def test_stats_snapshot_shows_robust_counters(self, wide_file, capsys):
        code = main(["classify", wide_file, "--budget-nodes", "10", "--stats"])
        captured = capsys.readouterr()
        assert code == EXIT_PARTIAL
        assert "robust.exhaustions" in captured.out
