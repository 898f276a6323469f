"""Tests for the command-line interface (python -m repro)."""

import pytest

from repro.__main__ import main
from repro.corpora.animals import ANIMAL_TEXT
from repro.corpora.vehicles import VEHICLE_TEXT


@pytest.fixture
def vehicle_file(tmp_path):
    path = tmp_path / "vehicles.tbox"
    path.write_text(VEHICLE_TEXT, encoding="utf-8")
    return str(path)


@pytest.fixture
def animal_file(tmp_path):
    path = tmp_path / "animals.tbox"
    path.write_text(ANIMAL_TEXT, encoding="utf-8")
    return str(path)


class TestCritiqueCommand:
    def test_basic_run(self, vehicle_file, capsys):
        code = main(["critique", vehicle_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "Critique of vehicles" in out
        assert "I. Syntactic" in out

    def test_contrast_finds_car_dog(self, vehicle_file, animal_file, capsys):
        main(["critique", vehicle_file, "--contrast", animal_file])
        out = capsys.readouterr().out
        assert "dog" in out

    def test_regress(self, vehicle_file, capsys):
        main(["critique", vehicle_file, "--regress", "car"])
        out = capsys.readouterr().out
        assert "differentiation regress" in out or "never escaped" in out

    def test_strict_exit_code(self, vehicle_file):
        assert main(["critique", vehicle_file, "--strict"]) == 1

    def test_artifact_only_drops_discipline_findings(self, vehicle_file, capsys):
        main(["critique", vehicle_file, "--artifact-only"])
        out = capsys.readouterr().out
        assert "Guarino" not in out


class TestClassifyCommand:
    def test_hierarchy_printed(self, vehicle_file, capsys):
        assert main(["classify", vehicle_file]) == 0
        out = capsys.readouterr().out
        assert "motorvehicle" in out
        assert out.startswith("⊤")


class TestStatsFlag:
    def test_critique_stats_prints_snapshot(self, vehicle_file, capsys):
        main(["critique", vehicle_file, "--stats"])
        out = capsys.readouterr().out
        assert "observability snapshot:" in out
        # vehicles is Horn/EL, so classification runs by saturation and
        # the tableau never opens
        assert '"saturation.rules_fired"' in out
        assert '"intern.table_size"' in out
        assert "phase timings:" in out

    def test_classify_stats_prints_snapshot(self, vehicle_file, capsys):
        assert main(["classify", vehicle_file, "--stats"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("⊤")
        assert "observability snapshot:" in out
        assert '"saturation.rules_fired"' in out

    def test_stats_snapshot_is_valid_json(self, vehicle_file, capsys):
        import json

        main(["classify", vehicle_file, "--stats"])
        out = capsys.readouterr().out
        payload = out.split("observability snapshot:", 1)[1]
        snapshot = json.loads(payload)
        assert snapshot["counters"]["hierarchy.classifications"] == 1

    def test_without_stats_no_snapshot(self, vehicle_file, capsys):
        main(["classify", vehicle_file])
        assert "observability snapshot:" not in capsys.readouterr().out

    def test_profile_prints_timer_and_counter_tables(self, vehicle_file, capsys):
        assert main(["classify", vehicle_file, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "timers by total time):" in out
        assert "counters by value):" in out
        # counter rows are "name value" pairs, largest first
        counter_section = out.split("counters by value):", 1)[1]
        rows = [line.split() for line in counter_section.strip().splitlines()[1:]]
        values = [int(row[1]) for row in rows]
        assert values == sorted(values, reverse=True)
        assert any(row[0] == "saturation.rules_fired" for row in rows)

    def test_stats_does_not_leak_recorder(self, vehicle_file, capsys):
        from repro.obs import NULL, get_recorder

        main(["critique", vehicle_file, "--stats"])
        capsys.readouterr()
        assert get_recorder() is NULL


class TestBenchCommand:
    def test_bench_writes_all_files(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_B10_SCALE", "tiny")
        monkeypatch.setenv("REPRO_B12_SCALE", "tiny")
        assert main(["bench", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        written = sorted(p.name for p in tmp_path.glob("BENCH_*.json"))
        # B8 retired with incremental reclassification; the serving
        # benches B7, B9, B11 and B13 with perfbench/ taking their place
        assert written == sorted(
            f"BENCH_B{i}.json" for i in (1, 2, 3, 4, 5, 6, 10, 12)
        )
        assert "non-zero counters" in out

    def test_bench_only_subset(self, tmp_path, capsys):
        assert main(["bench", "--out", str(tmp_path), "--only", "B4"]) == 0
        assert [p.name for p in tmp_path.glob("BENCH_*.json")] == ["BENCH_B4.json"]
        assert "B4: wrote" in capsys.readouterr().out

    def test_bench_output_validates(self, tmp_path, capsys):
        import json

        from repro.bench import validate_record

        main(["bench", "--out", str(tmp_path), "--only", "B1"])
        capsys.readouterr()
        record = json.loads((tmp_path / "BENCH_B1.json").read_text(encoding="utf-8"))
        assert validate_record(record) == []
        assert record["counters"]["tableau.expansions"] > 0

    def test_bench_rejects_unknown_id(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "--out", str(tmp_path), "--only", "B99"])


class TestCheckCommand:
    def test_coherent(self, vehicle_file, capsys):
        assert main(["check", vehicle_file]) == 0
        assert "coherent" in capsys.readouterr().out

    def test_incoherent(self, tmp_path, capsys):
        path = tmp_path / "bad.tbox"
        path.write_text("A [= B\nA [= ~B\n", encoding="utf-8")
        assert main(["check", str(path)]) == 1
        assert "INCOHERENT" in capsys.readouterr().out
