"""The CLI exit-code contract: 0 ok / 1 failure / 2 usage / 3 partial.

Scripts and CI depend on these four values; this file pins each one to
an observable behaviour and pins the ``--help`` epilog that documents
them (the table in README.md mirrors :data:`repro.__main__.EXIT_CODES`).
"""

import pytest

from repro.__main__ import (
    EXIT_CODES,
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_USAGE,
    exit_code_epilog,
    main,
)
from repro.robust import faults


@pytest.fixture(autouse=True)
def quiet_faults():
    with faults.suspended():
        yield


@pytest.fixture
def coherent_file(tmp_path):
    path = tmp_path / "ok.tbox"
    path.write_text("car [= motorvehicle\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def wide_file(tmp_path):
    # the disjunction leaves a residue, so car gets a tableau model; its
    # >= 12 successors need 13 nodes: reliably exhausts a 10-node budget
    path = tmp_path / "wide.tbox"
    path.write_text(
        "car [= motorvehicle & >= 12 has.wheel\n"
        "motorvehicle [= some uses.gasoline & (petrol | diesel)\n",
        encoding="utf-8",
    )
    return str(path)


class TestContract:
    def test_the_four_values(self):
        assert (EXIT_OK, EXIT_FAILURE, EXIT_USAGE, EXIT_PARTIAL) == (0, 1, 2, 3)
        assert sorted(EXIT_CODES) == [0, 1, 2, 3]

    def test_ok(self, coherent_file):
        assert main(["classify", coherent_file]) == EXIT_OK

    def test_failure_from_strict_critique(self, coherent_file, tmp_path, capsys):
        cyclic = tmp_path / "cyclic.tbox"
        cyclic.write_text("dog [= cat\ncat [= dog\n", encoding="utf-8")
        assert main(["critique", str(cyclic), "--strict"]) == EXIT_FAILURE
        capsys.readouterr()

    def test_usage_error_from_argparse(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["classify", "--no-such-flag"])
        assert info.value.code == EXIT_USAGE
        capsys.readouterr()

    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == EXIT_USAGE
        capsys.readouterr()

    def test_partial_from_starved_budget(self, wide_file, capsys):
        assert main(["classify", wide_file, "--budget-nodes", "10"]) == EXIT_PARTIAL
        capsys.readouterr()


class TestHelpEpilog:
    def test_epilog_documents_every_code(self):
        epilog = exit_code_epilog()
        for code, meaning in EXIT_CODES.items():
            assert f"{code} " in epilog
            # the epilog wraps the meaning verbatim
            assert meaning.split(":")[0] in epilog

    def test_help_output_carries_the_table(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == EXIT_OK
        out = capsys.readouterr().out
        assert "exit codes:" in out
        assert "partial: a budget or fault left UNKNOWN answers" in out
        assert "HTTP analogue: 206" in out

    def test_serve_help_documents_the_http_degradation_contract(self, capsys):
        """The serve epilog is the HTTP half of the exit-code contract:
        206/429/503 for queries, deferred/coalesced for throttled edits."""
        with pytest.raises(SystemExit) as info:
            main(["serve", "--help"])
        assert info.value.code == EXIT_OK
        out = capsys.readouterr().out
        assert "HTTP 206" in out
        assert "429/503" in out
        assert "swap_status deferred (queued) or coalesced" in out
        assert "Live traffic" in out
        # the knobs the epilog's edit contract depends on are real flags
        assert "--edit-log" in out
        assert "--min-swap-interval-ms" in out
        assert "--rebase-limit" in out

    def test_readme_table_matches_exit_codes(self):
        import pathlib

        readme = (
            pathlib.Path(__file__).resolve().parents[2] / "README.md"
        ).read_text(encoding="utf-8")
        for code in EXIT_CODES:
            assert f"| {code} |" in readme, (
                f"README.md exit-code table is missing code {code}"
            )
