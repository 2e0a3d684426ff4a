"""Golden-output and exit-code tests for the command-line front end."""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

import procurelab
from procurelab import oracle_solver
from procurelab.cli import RunConfig, main
from procurelab.game_core import critical_p


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage failures
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _miss_every_certificate(monkeypatch):
    real = oracle_solver._step_certificate
    monkeypatch.setattr(oracle_solver, "_step_certificate",
                        lambda D, r, c: (real(D, r, c)[0], 1.0))


def run_json(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code in (0, 1), err
    return code, json.loads(out)


class TestRunConfig:
    def test_defaults(self):
        rc = RunConfig()
        assert (rc.A, rc.B, rc.E) == (0.0, 1.5, 1.0)
        assert rc.seed == 42 and rc.tol == 1e-6
        assert rc.format == "csv"

    def test_config_file_applies_and_flags_win(self, capsys, tmp_path):
        path = tmp_path / "rc.json"
        path.write_text(json.dumps({"p": 0.3, "seed": 7}))
        _, d = run_json(["regimes", "--config", str(path)], capsys)
        assert d["p"] == 0.3 and d["run_config"]["seed"] == 7
        _, d = run_json(["regimes", "--config", str(path), "--p", "0.45"], capsys)
        assert d["p"] == 0.45

    def test_unknown_config_field_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "rc.json"
        path.write_text('{"bogus": 1}')
        code, _, err = run_cli(["regimes", "--config", str(path)], capsys)
        assert code == 2 and "bogus" in err

    def test_malformed_config_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "rc.json"
        path.write_text("not json")
        assert run_cli(["regimes", "--config", str(path)], capsys)[0] == 2

    @pytest.mark.parametrize("command, loaded", [
        ("regimes", {"n": "5"}),
        ("regimes", {"tol": "x"}),
        ("solve-grid", {"n": 5.0}),
        ("solve-grid", {"n": True}),
        ("simulate --row log --col log", {"seed": 1.5}),
        ("regimes", {"A": False}),
        ("regimes", {"output": 3}),
        ("regimes", {"format": None}),
    ], ids=["n-str", "tol-str", "n-float", "n-bool", "seed-float", "A-bool",
            "output-int", "format-null"])
    def test_mistyped_config_field_is_usage_error(self, capsys, tmp_path, command, loaded):
        path = tmp_path / "rc.json"
        path.write_text(json.dumps(loaded))
        code, out, err = run_cli([*command.split(), "--config", str(path)], capsys)
        (field,) = loaded
        assert code == 2 and out == ""
        assert f"config field {field} must be" in err

    def test_int_config_value_is_accepted_for_float_field(self, capsys, tmp_path):
        path = tmp_path / "rc.json"
        path.write_text('{"A": 0, "output": null}')
        code, d = run_json(["regimes", "--config", str(path)], capsys)
        assert code == 0 and d["run_config"]["A"] == 0

    def test_int_config_value_echoes_like_the_flag(self, capsys, tmp_path):
        path = tmp_path / "rc.json"
        path.write_text('{"A": 0, "p": 0, "tol": 1}')
        code, from_config, _ = run_cli(["regimes", "--format", "json", "--config", str(path)],
                                       capsys)
        assert code == 0
        code, from_flags, _ = run_cli(
            ["regimes", "--format", "json", "--A", "0", "--p", "0", "--tol", "1"], capsys)
        assert code == 0 and from_config == from_flags
        assert json.loads(from_config)["run_config"]["A"] == 0.0

    def test_int_config_value_beyond_float_range_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "rc.json"
        path.write_text('{"A": 1' + "0" * 400 + "}")
        code, out, err = run_cli(["regimes", "--config", str(path)], capsys)
        assert code == 2 and out == ""
        assert "config field A" in err

    @pytest.mark.parametrize("command", [
        "verify --strategy log", "solve-grid", "cutpoints3 --y 0.9 --z 0.8", "regimes",
        "simulate --row log --col log", "pure-ne-scan", "ddpm-probe", "br-dynamics"])
    def test_csv_is_refused_where_only_json_is_written(self, capsys, command):
        code, out, err = run_cli([*command.split(), "--format", "csv"], capsys)
        assert code == 2 and out == ""
        assert "value-curve" in err and "region-grid" in err

    def test_config_format_csv_still_writes_json(self, capsys, tmp_path):
        path = tmp_path / "rc.json"
        path.write_text('{"format": "csv"}')
        code, d = run_json(["regimes", "--config", str(path)], capsys)
        assert code == 0 and d["run_config"]["format"] == "json"

    def test_invalid_market_is_usage_error(self, capsys):
        assert run_cli(["regimes", "--A", "2", "--B", "1"], capsys)[0] == 2

    def test_output_flag_writes_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out, _ = run_cli(["regimes", "--p", "0.1", "--output", str(path)], capsys)
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["regime"] == "LowP"

    def test_every_output_echoes_run_config(self, capsys):
        _, d = run_json(["cutpoints3", "--y", "0.9", "--z", "0.8", "--seed", "9"], capsys)
        echo = d["run_config"]
        assert set(echo) == {"A", "B", "E", "p", "n", "samples", "seed", "tol",
                             "output", "format"}
        assert echo["seed"] == 9


class TestValueCurve:
    def test_symmetric_row_golden(self, capsys):
        code, out, _ = run_cli(["value-curve", "--p-min", "0.5", "--p-max", "0.5"], capsys)
        lines = out.splitlines()
        assert code == 0
        assert lines[0].startswith("# run_config: {")
        assert lines[1] == "p,v_formula,regime,m,epsilon_p"
        assert lines[2] == "0.5,0.5,Symmetric,,0"

    def test_near_critical_input_snaps(self, capsys):
        code, out, _ = run_cli(
            ["value-curve", "--p-min", "0.232408", "--p-max", "0.232408"], capsys)
        row = out.splitlines()[2].split(",")
        assert code == 0
        assert row[2] == "Critical"
        assert abs(float(row[0]) - critical_p()) < 1e-9
        assert abs(float(row[1]) - 1.0 / 3.0) < 1e-9

    def test_low_p_row_reports_m(self, capsys):
        _, out, _ = run_cli(["value-curve", "--p-min", "0.1", "--p-max", "0.1"], capsys)
        assert out.splitlines()[2].split(",")[2:4] == ["LowP", "2"]

    def test_ladder_columns(self, capsys):
        code, out, _ = run_cli(
            ["value-curve", "--p-min", "0.5", "--p-max", "0.5", "--n-ladder", "51,101"],
            capsys)
        lines = out.splitlines()
        assert code == 0
        assert lines[1] == "p,v_formula,regime,m,epsilon_p,value_n51,value_n101"
        cells = lines[2].split(",")
        assert abs(float(cells[5]) - 0.5) < 1e-9
        assert abs(float(cells[6]) - 0.5) < 1e-9

    def test_ladder_order_and_repeats_do_not_matter(self, capsys):
        argv = ["value-curve", "--p-min", "0.5", "--p-max", "0.5", "--n-ladder"]
        up = run_cli(argv + ["51,101"], capsys)
        assert up[0] == 0
        assert run_cli(argv + ["101,51"], capsys) == up
        assert run_cli(argv + ["101,51,101"], capsys) == up

    def test_certificate_miss_exits_1(self, capsys, monkeypatch):
        _miss_every_certificate(monkeypatch)
        code, out, err = run_cli(
            ["value-curve", "--p-min", "0.3", "--p-max", "0.4", "--steps", "2",
             "--n-ladder", "11,21"], capsys)
        assert code == 1
        assert out.splitlines()[1] == "p,v_formula,regime,m,epsilon_p,value_n11,value_n21"
        assert err.splitlines() == [
            f"procurelab value-curve: error: grid solve at p={p}, n={n} "
            "missed its certificate tolerance"
            for p in ("0.3", "0.4") for n in (11, 21)]

    def test_ladder_reads_tol(self, capsys):
        # no LP certificate reaches 1e-30, so the one ladder solve misses it
        code, out, err = run_cli(
            ["value-curve", "--p-min", "0.3", "--p-max", "0.3", "--n-ladder", "51",
             "--tol", "1e-30"], capsys)
        assert code == 1
        assert out.splitlines()[1] == "p,v_formula,regime,m,epsilon_p,value_n51"
        assert err.splitlines() == [
            "procurelab value-curve: error: grid solve at p=0.3, n=51 "
            "missed its certificate tolerance"]

    def test_steps_sweep(self, capsys):
        code, out, _ = run_cli(
            ["value-curve", "--p-min", "0.3", "--p-max", "0.4", "--steps", "3"], capsys)
        lines = out.splitlines()
        assert code == 0 and len(lines) == 5
        assert [row.split(",")[0] for row in lines[2:]] == ["0.3", "0.35", "0.4"]

    def test_json_format(self, capsys):
        _, d = run_json(
            ["value-curve", "--p-min", "0.3", "--p-max", "0.3", "--format", "json"],
            capsys)
        assert d["rows"][0]["v_formula"] == pytest.approx(0.376991849031, abs=1e-9)
        assert d["rows"][0]["m"] is None

    def test_bad_ranges_are_usage_errors(self, capsys):
        assert run_cli(["value-curve", "--p-min", "0.6", "--p-max", "0.7"], capsys)[0] == 2
        assert run_cli(["value-curve", "--p-min", "0.4", "--p-max", "0.3"], capsys)[0] == 2
        assert run_cli(["value-curve", "--p-min", "0", "--p-max", "0.3"], capsys)[0] == 2
        assert run_cli(["value-curve", "--p-min", "0.3", "--p-max", "0.4",
                        "--steps", "0"], capsys)[0] == 2
        assert run_cli(["value-curve", "--p-min", "0.3", "--p-max", "0.4",
                        "--n-ladder", "51,x"], capsys)[0] == 2

    def test_deterministic(self, capsys):
        argv = ["value-curve", "--p-min", "0.25", "--p-max", "0.45", "--steps", "5"]
        first = run_cli(argv, capsys)
        second = run_cli(argv, capsys)
        assert first == second


class TestVerify:
    def test_log_passes(self, capsys):
        code, d = run_json(["verify", "--strategy", "log"], capsys)
        assert code == 0 and d["pass"] is True
        assert [r["check"] for r in d["reports"]] == [
            "normalization", "payoff-inequalities", "functional-residuals", "joint-value"]
        assert all(r["pass"] for r in d["reports"])
        assert d["reports"][1]["max_violation"] <= 1e-6

    def test_uniform_and_critical_pass(self, capsys):
        for name in ("uniform", "critical"):
            code, d = run_json(["verify", "--strategy", name], capsys)
            assert code == 0 and d["pass"] is True
            assert [r["check"] for r in d["reports"]] == [
                "normalization", "payoff-inequalities", "joint-value"]

    def test_weighted_passes_at_p03(self, capsys):
        code, d = run_json(["verify", "--strategy", "weighted", "--p", "0.3"], capsys)
        assert code == 0 and d["pass"] is True
        assert d["p"] == 0.3
        assert len(d["reports"]) == 4

    @pytest.mark.parametrize("p", ["0.05", "0.1", "0.2"])
    def test_weighted_passes_below_critical(self, capsys, p):
        code, d = run_json(["verify", "--strategy", "weighted", "--p", p], capsys)
        assert code == 0 and d["pass"] is True
        assert len(d["reports"]) == 4 and all(r["pass"] for r in d["reports"])

    def test_incompatible_p_is_usage_error(self, capsys):
        assert run_cli(["verify", "--strategy", "weighted", "--p", "0.7"], capsys)[0] == 2
        assert run_cli(["verify", "--strategy", "log", "--p", "0.3"], capsys)[0] == 2

    def test_unknown_strategy_is_usage_error(self, capsys):
        assert run_cli(["verify", "--strategy", "bogus"], capsys)[0] == 2

    def test_nan_payoff_fails(self, capsys, monkeypatch):
        from procurelab import experiments

        monkeypatch.setattr(experiments, "expect_vs", lambda xs, *a, **k: np.full(len(xs), np.nan))
        code, d = run_json(["verify", "--strategy", "log"], capsys)
        assert code == 1 and d["pass"] is False
        failed = [r for r in d["reports"] if not r["pass"]]
        assert [r["check"] for r in failed] == ["payoff-inequalities"]
        assert math.isnan(failed[0]["max_violation"])


class TestSolveGrid:
    def test_symmetric_value(self, capsys):
        code, d = run_json(["solve-grid", "--p", "0.5", "--n", "51"], capsys)
        assert code == 0
        assert abs(d["value"] - 0.5) <= 1e-6
        assert d["converged"] is True
        assert d["v_formula"] == 0.5
        assert d["grid_n"] >= 51 and d["requested_n"] == 51
        assert "method" not in d

    def test_weighted_value_anchor(self, capsys):
        _, d = run_json(["solve-grid", "--p", "0.3", "--n", "101"], capsys)
        # frozen from the breakpoint-enriched 101-point grid
        assert d["value"] == pytest.approx(0.372519372552, abs=1e-6)
        assert d["exploitability"] <= 1e-6

    def test_tiny_weight_solves(self, capsys):
        # m = 38 here, so the landmarks read d_hat up to index 78
        code, d = run_json(["solve-grid", "--p", "1e-12", "--n", "101"], capsys)
        assert code == 0 and d["converged"] is True
        assert d["grid_n"] > 101

    def test_certificate_miss_exits_1(self, capsys, monkeypatch):
        _miss_every_certificate(monkeypatch)
        code, out, err = run_cli(["solve-grid", "--p", "0.3", "--n", "11"], capsys)
        assert code == 1
        assert json.loads(out)["converged"] is False
        assert err == ("procurelab solve-grid: error: grid solve at p=0.3, n=11 "
                       "missed its certificate tolerance\n")

    def test_solver_failure_exits_1(self, capsys, monkeypatch):
        failed = OptimizeResult(success=False, status=4, message="numerical difficulties")
        monkeypatch.setattr(oracle_solver, "linprog", lambda *a, **k: failed)
        code, out, err = run_cli(["solve-grid", "--p", "0.3", "--n", "11"], capsys)
        assert code == 1 and out == ""
        assert "status 4" in err and "numerical difficulties" in err


class TestCutpoints3:
    def test_anchor(self, capsys):
        _, d = run_json(["cutpoints3", "--y", "0.9", "--z", "0.8"], capsys)
        assert (d["t"], d["p_y"], d["p_z"]) == (0.94, 0.7, 0.1)
        assert d["cell"] == "O1" and d["mirrored"] is True
        assert set(d["jump_signs"]) == {"y", "z", "t", "p_y", "p_z"}

    def test_boundary_pair_has_no_cell(self, capsys):
        _, d = run_json(["cutpoints3", "--y", "0.8", "--z", "0.8"], capsys)
        assert d["cell"] is None
        assert d["t"] == pytest.approx((1.6 + 3.0) / 5.0, abs=1e-12)

    def test_out_of_range_bid_fails(self, capsys):
        code, _, err = run_cli(["cutpoints3", "--y", "9", "--z", "0.8"], capsys)
        assert code == 1 and err


class TestRegimes:
    def test_low_p_anchor(self, capsys):
        _, d = run_json(["regimes", "--p", "0.1"], capsys)
        assert d["regime"] == "LowP" and d["m"] == 2
        assert d["benchmark"] == 0.25

    def test_symmetric(self, capsys):
        _, d = run_json(["regimes", "--p", "0.5"], capsys)
        assert d["regime"] == "Symmetric" and d["v"] == 0.5

    def test_snap_to_critical(self, capsys):
        _, d = run_json(["regimes", "--p", "0.232409"], capsys)
        assert d["regime"] == "Critical"

    def test_out_of_range_is_usage_error(self, capsys):
        assert run_cli(["regimes", "--p", "0.7"], capsys)[0] == 2


class TestSimulate:
    def test_log_pair(self, capsys):
        code, d = run_json(
            ["simulate", "--row", "log", "--col", "log", "--samples", "20000"], capsys)
        assert code == 0
        assert abs(d["means"][0] + d["means"][1] - 1.0) < 1e-12
        assert abs(d["means"][0] - 0.5) <= 4.0 * d["stderrs"][0]

    def test_seed_controls_draws(self, capsys):
        argv = ["simulate", "--row", "log", "--col", "uniform", "--samples", "5000"]
        first = run_cli(argv, capsys)
        second = run_cli(argv, capsys)
        other = run_cli(argv + ["--seed", "43"], capsys)
        assert first == second
        assert first[1] != other[1]

    def test_weighted_needs_valid_p(self, capsys):
        code, _, _ = run_cli(
            ["simulate", "--row", "weighted", "--col", "log", "--p", "0.7"], capsys)
        assert code == 2


class TestScansAndProbes:
    def test_pure_ne_scan_two_player(self, capsys):
        code, d = run_json(["pure-ne-scan", "--N", "2", "--n", "51"], capsys)
        assert code == 0
        assert d["count"] == 0 and d["found"] == []
        assert (d["sup_inf"], d["inf_sup"]) == (0.0, 1.0)

    def test_pure_ne_scan_three_player(self, capsys):
        _, d = run_json(["pure-ne-scan", "--N", "3", "--n", "15"], capsys)
        assert d["count"] == 0
        assert "sup_inf" not in d

    def test_ddpm_probe_passes(self, capsys):
        code, d = run_json(["ddpm-probe", "--samples", "200"], capsys)
        assert code == 0 and d["pass"] is True
        assert d["check"] == "ddpm-one-sided-limits"
        assert d["max_violation"] == 0.0

    def test_br_dynamics_never_settles(self, capsys):
        code, d = run_json(["br-dynamics", "--steps", "500"], capsys)
        assert code == 0
        assert d["fixed_point_step"] is None
        assert d["min_winner_payoff"] == 1.0

    @pytest.mark.parametrize("start, want", [("0.2,abc", 2), (",0.3", 2), ("0.2,9", 1)])
    def test_br_dynamics_bad_start(self, capsys, start, want):
        # malformed is a usage error naming the flag; out of range, as for
        # cutpoints3, a library failure
        code, _, err = run_cli(["br-dynamics", "--start", start, "--steps", "5"], capsys)
        assert code == want and err
        assert ("start" in err) == (want == 2)


class TestRegionGrid:
    def test_csv_golden(self, capsys):
        code, out, _ = run_cli(
            ["region-grid", "--kind", "WeightedP", "--p", "0.1", "--resolution", "4"],
            capsys)
        lines = out.splitlines()
        assert code == 0
        assert lines[0].startswith("# run_config: {")
        assert lines[1] == "kind=WeightedP,p=0.1,resolution=4,A=0,B=1.5,E=1"
        assert len(lines) == 6
        assert lines[2].split(",")[0] == "0.1"

    def test_two_player_json(self, capsys):
        _, d = run_json(
            ["region-grid", "--kind", "TwoPlayer", "--resolution", "4",
             "--format", "json"], capsys)
        assert len(d["matrix"]) == 4
        assert [d["matrix"][i][i] for i in range(4)] == [0.5] * 4

    def test_slice_needs_x(self, capsys):
        assert run_cli(["region-grid", "--kind", "ThreePlayerSlice"], capsys)[0] == 2
        assert run_cli(["region-grid", "--kind", "TwoPlayer", "--x", "1.0"],
                       capsys)[0] == 2

    def test_resolution_cap_fails_cleanly(self, capsys):
        code, _, err = run_cli(
            ["region-grid", "--kind", "TwoPlayer", "--resolution", "5000"], capsys)
        assert code == 1 and "4096" in err


def run_child(*args):
    # the child imports the package under test, wherever pytest found it
    src = str(Path(procurelab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )


def test_module_entry_point():
    proc = run_child("-m", "procurelab.cli", "regimes", "--p", "0.1")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["m"] == 2


_IMPORT_GUARD = """
import io, sys
from contextlib import redirect_stdout
import procurelab
assert "scipy" not in sys.modules, "import procurelab"
from procurelab import cli
for argv in (["regimes", "--p", "0.1"], ["br-dynamics", "--steps", "50"],
             ["simulate", "--row", "log", "--col", "log", "--samples", "1000"],
             ["verify", "--strategy", "log", "--grid", "50"],
             ["verify", "--strategy", "weighted", "--p", "0.05", "--grid", "50"]):
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    assert "scipy" not in sys.modules, argv
with redirect_stdout(io.StringIO()):
    assert cli.main(["solve-grid", "--n", "11"]) == 0
assert "scipy.optimize" in sys.modules, "solve-grid"
"""


def test_scipy_loads_only_where_used():
    proc = run_child("-c", _IMPORT_GUARD)
    assert proc.returncode == 0, proc.stderr
