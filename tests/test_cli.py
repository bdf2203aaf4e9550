"""End-to-end command line tests: parsing, formats, exit codes, determinism."""

import ast
import csv
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

import groverline.cli
from groverline.absorb import ToleranceError
from groverline.cli import main


BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_cli_commands():
    """The ``CLI`` catalog of ``bench/workloads.py``, read without importing it."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "CLI" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError("bench/workloads.py defines no CLI catalog")


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestAbsorbCommand:
    def test_one_boundary_s_spinor(self, capsys):
        code, out = run_cli(capsys, ["absorb", "--left", "1", "--spinor", "0,1,0"])
        assert code == 0
        header, rows = parse_csv(out)
        record = dict(zip(header, rows[0]))
        assert float(record["p_left"]) == pytest.approx(0.5255, abs=5e-4)
        assert record["p_right"] == ""
        assert record["warning"] == "0"

    def test_two_boundary_table_row(self, capsys):
        code, out = run_cli(
            capsys, ["absorb", "--left", "2", "--right", "1", "--spinor", "0,0,1"]
        )
        assert code == 0
        _, rows = parse_csv(out)
        p_left, p_right = float(rows[0][0]), float(rows[0][1])
        assert p_left == pytest.approx(0.1529411765, abs=1e-9)
        assert p_right == pytest.approx(0.4470588235, abs=1e-9)

    def test_box(self, capsys):
        code, out = run_cli(capsys, ["absorb", "--left", "1", "--right", "1"])
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][0]) == pytest.approx(2 / 3, abs=1e-10)

    def test_complex_spinor_component(self, capsys):
        # a pure phase on the R component cannot change a basis probability
        code, out = run_cli(capsys, ["absorb", "--left", "1", "--spinor", "0,0,0:1"])
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][0]) == pytest.approx(0.6692653092, abs=1e-8)

    def test_unreachable_tolerance_flags_partial(self, capsys):
        code, out = run_cli(capsys, ["absorb", "--left", "2", "--tol", "1e-30"])
        assert code == 3
        header, rows = parse_csv(out)
        record = dict(zip(header, rows[0]))
        assert record["warning"] == "1"
        assert record["p_left"] == ""
        assert float(record["total"]) == pytest.approx(0.0940812419, abs=1e-6)

    def test_two_boundary_flag_reports_no_side(self, capsys, monkeypatch):
        # which of the two integrals failed is unknown, so the flagged row
        # keeps the error estimate and no probability; a real failing run
        # climbs the whole 2^22-node ladder, so the failure is injected
        def fail(query, spec):
            raise ToleranceError("stuck", value=0.161919993552, error=3.97e-13)

        monkeypatch.setattr(groverline.cli, "absorption_answer", fail)
        code, out = run_cli(
            capsys, ["absorb", "--left", "2", "--right", "5", "--tol", "1e-18"]
        )
        assert code == 3
        assert out.splitlines()[1] == ",,,,3.97e-13,1"

    def test_missing_boundary_rejected(self, capsys):
        code = main(["absorb"])
        capsys.readouterr()
        assert code == 2

    def test_bad_spinor_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["absorb", "--left", "1", "--spinor", "1,1,1"])
        capsys.readouterr()
        assert exc_info.value.code == 2

    def test_malformed_spinor_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["absorb", "--left", "1", "--spinor", "0,0"])
        capsys.readouterr()
        assert exc_info.value.code == 2


    def test_nan_spinor_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["absorb", "--left", "1", "--spinor", "nan,0,1"])
        capsys.readouterr()
        assert exc_info.value.code == 2

    @pytest.mark.parametrize("tol", ["0", "-0.5", "nan", "inf", "abc"])
    @pytest.mark.parametrize(
        "command",
        [["absorb", "--left", "1"], ["table1"], ["theorem4", "--crosscheck"],
         ["moving-boundary"]],
    )
    def test_bad_tolerance_exits_2(self, capsys, command, tol):
        with pytest.raises(SystemExit) as exc_info:
            main(command + ["--tol", tol])
        capsys.readouterr()
        assert exc_info.value.code == 2


class TestSimulateCommand:
    def test_long_run_reaches_limit(self, capsys):
        code, out = run_cli(
            capsys, ["simulate", "--steps", "400", "--left", "1"]
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 401
        assert float(rows[-1][1]) == pytest.approx(0.6693, abs=5e-3)

    def test_zero_steps(self, capsys):
        code, out = run_cli(capsys, ["simulate", "--steps", "0", "--left", "1"])
        assert code == 0
        _, rows = parse_csv(out)
        assert rows == [["0", "0", "0", "1"]]

    def test_mirror_swap(self, capsys):
        _, out_fwd = run_cli(
            capsys,
            ["simulate", "--steps", "20", "--left", "1", "--right", "1",
             "--spinor", "0,0,1"],
        )
        _, out_rev = run_cli(
            capsys,
            ["simulate", "--steps", "20", "--left", "1", "--right", "1",
             "--spinor", "1,0,0"],
        )
        _, fwd = parse_csv(out_fwd)
        _, rev = parse_csv(out_rev)
        for frow, rrow in zip(fwd, rev):
            assert float(frow[1]) == pytest.approx(float(rrow[2]), abs=1e-12)
            assert float(frow[2]) == pytest.approx(float(rrow[1]), abs=1e-12)

    def test_free_snapshot_sums_to_one(self, capsys):
        code, out = run_cli(
            capsys, ["simulate", "--steps", "30", "--snapshots", "15,30"]
        )
        assert code == 0
        _, rows = parse_csv(out)
        for t_want in ("15", "30"):
            total = sum(float(r[2]) for r in rows if r[0] == t_want)
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_snapshot_beyond_steps_rejected(self, capsys):
        code = main(["simulate", "--steps", "5", "--snapshots", "9"])
        capsys.readouterr()
        assert code == 2

    def test_snapshots_with_boundary_rejected(self, capsys):
        code = main(
            ["simulate", "--steps", "5", "--left", "1", "--snapshots", "2"]
        )
        capsys.readouterr()
        assert code == 2


class TestTableCommand:
    def test_matches_reference_rows(self, capsys):
        code, out = run_cli(capsys, ["table1", "--max-n", "3", "--tol", "1e-13"])
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][1]) == pytest.approx(0.1529411765, abs=1e-9)
        assert float(rows[0][4]) == pytest.approx(4040404040.404, abs=0.05)
        assert float(rows[1][2]) == pytest.approx(0.4343434343, abs=1e-9)
        # widest row has no deficit entries
        assert rows[-1][4] == "" and rows[-1][5] == ""


class TestTheorem4Command:
    def test_seed_and_first(self, capsys):
        code, out = run_cli(capsys, ["theorem4", "--max-n", "1"])
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0] == ["0", "0"]
        assert float(rows[1][1]) == pytest.approx(2 / 3, abs=1e-12)

    def test_crosscheck_column(self, capsys):
        code, out = run_cli(capsys, ["theorem4", "--max-n", "3", "--crosscheck"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n", "p_recurrence", "p_quadrature"]
        assert rows[0][2] == ""
        for row in rows[1:]:
            assert float(row[1]) == pytest.approx(float(row[2]), abs=1e-8)

    def test_tol_without_crosscheck_exits_2(self, capsys):
        code = main(["theorem4", "--max-n", "3", "--tol", "1e-9"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("groverline: ") and err.count("\n") == 1


class TestLocalizeCommand:
    def test_first_step(self, capsys):
        code, out = run_cli(capsys, ["localize", "--steps", "3"])
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 3
        assert float(rows[0][1]) == pytest.approx(4 / 9, abs=1e-10)
        assert float(rows[0][2]) == pytest.approx(4 / 9, abs=1e-10)


class TestMovingBoundaryCommand:
    def test_sharp_drop_then_decrease(self, capsys):
        code, out = run_cli(capsys, ["moving-boundary", "--max-m", "5"])
        assert code == 0
        _, rows = parse_csv(out)
        values = [float(r[1]) for r in rows]
        assert len(values) == 5
        assert values[0] / values[1] > 5
        assert all(a > b for a, b in zip(values, values[1:]))


class TestOutputHandling:
    def test_json_format(self, capsys):
        code, out = run_cli(
            capsys, ["theorem4", "--max-n", "1", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"] == ["n", "p_recurrence"]
        assert payload["rows"][0] == [0, 0.0]
        assert payload["rows"][1][1] == pytest.approx(2 / 3, abs=1e-11)

    def test_json_null_for_blank(self, capsys):
        code, out = run_cli(
            capsys,
            ["theorem4", "--max-n", "1", "--crosscheck", "--format", "json"],
        )
        payload = json.loads(out)
        assert payload["rows"][0][2] is None

    def test_determinism(self, capsys):
        args = ["absorb", "--left", "2", "--right", "2"]
        _, first = run_cli(capsys, args)
        _, second = run_cli(capsys, args)
        assert first == second

    def test_write_to_file(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code = main(["theorem4", "--max-n", "1", "--out", str(target)])
        capsys.readouterr()
        assert code == 0
        assert target.read_text().startswith("n,p_recurrence")

    def test_out_dir_env_var(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("GROVERLINE_OUT_DIR", str(tmp_path))
        code = main(["theorem4", "--max-n", "1", "--out", "rel.csv"])
        capsys.readouterr()
        assert code == 0
        assert (tmp_path / "rel.csv").exists()

    def test_absolute_out_ignores_env_var(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("GROVERLINE_OUT_DIR", str(tmp_path / "decoy"))
        target = tmp_path / "abs.csv"
        code = main(["theorem4", "--max-n", "1", "--out", str(target)])
        capsys.readouterr()
        assert code == 0
        assert target.exists()

    def test_twelve_significant_digits(self, capsys):
        _, out = run_cli(capsys, ["theorem4", "--max-n", "2"])
        _, rows = parse_csv(out)
        assert rows[2][1] == "0.705882352941"

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--help"])
        capsys.readouterr()
        assert exc_info.value.code == 0


def _exit_code(argv) -> int:
    """``main``'s status, whether it returns it or argparse exits with it."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestMalformedInput:
    """Bad input exits 2, writes nothing to stdout and one error line to stderr."""

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frobnicate"],
            ["theorem4", "--bogus"],
            ["theorem4", "--max-n", "-1"],
            ["theorem4", "--max-n", "x"],
            ["table1", "--max-n", "1"],
            ["absorb"],
            ["absorb", "--left", "0"],
            ["absorb", "--left", "1", "--spinor", "0,0"],
            ["absorb", "--left", "1", "--format", "xml"],
            ["simulate"],
            ["simulate", "--steps", "5", "--snapshots", "a,b"],
        ],
        ids=lambda argv: " ".join(argv) or "no-command",
    )
    def test_bad_argv(self, capsys, argv):
        code = _exit_code(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        errors = [ln for ln in captured.err.splitlines() if ln.startswith("groverline")]
        assert len(errors) == 1, captured.err

    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_unwritable_out(self, capsys, tmp_path, where):
        out = tmp_path / "missing" / "x.csv" if where == "missing_dir" else tmp_path
        code = _exit_code(["theorem4", "--max-n", "3", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("groverline: ")
        assert len(captured.err.splitlines()) == 1


class TestGoldenOutput:
    """The benchmark's CLI commands print exactly the bytes in ``bench/golden/cli``."""

    RC = json.loads((BENCH / "golden" / "cli" / "rc.json").read_text())

    @pytest.mark.parametrize("key,command", _bench_cli_commands())
    def test_bytes_and_exit_code(self, capsys, key, command):
        code, out = run_cli(capsys, command.split())
        assert code == self.RC[key]
        assert out.encode() == (BENCH / "golden" / "cli" / f"{key}.out").read_bytes()
