"""Config schema and CLI surface tests: strict key validation, every
subcommand end to end, exit codes, manifests, atomic outputs, and bit-for-bit
reproducibility."""

import contextlib
import io
import json
import math
import re
import shlex
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsteer import __version__
from fracsteer.cli import run
from fracsteer.config import load_cost, load_problem, load_target, problem_from_dict
from fracsteer.control import grammian
from fracsteer.errors import ConfigError
from fracsteer.solver import ControlSignal, Grid, solve_mild

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def minimal_config(**overrides):
    cfg = {
        "alpha": 1.5,
        "omega": 0.0,
        "N": 1,
        "T": 1.0,
        "r": 0.0,
        "impulses": [],
        "nonlocal": [],
        "phi": {"kind": "constant", "params": {"coeffs": [1.0]}},
        "f": {"kind": "zero", "p": 0.25},
        "B": {"kind": "identity"},
    }
    cfg.update(overrides)
    return cfg


class TestConfigSchema:
    def test_loads_flagship(self):
        spec = load_problem(CONFIGS / "flagship.json")
        assert spec.n_modes == 16
        assert spec.alpha == 1.5
        assert len(spec.impulses) == 1
        assert spec.constants.l_g == 0.25

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            problem_from_dict(minimal_config(extra=1))

    def test_unknown_nested_key(self):
        cfg = minimal_config()
        cfg["phi"] = {"kind": "constant", "params": {"coeffs": [1.0], "huh": 2}}
        with pytest.raises(ConfigError, match="unknown key"):
            problem_from_dict(cfg)

    def test_missing_required_key(self):
        cfg = minimal_config()
        del cfg["alpha"]
        with pytest.raises(ConfigError, match="missing key"):
            problem_from_dict(cfg)

    def test_short_phi_vector_zero_padded(self):
        cfg = minimal_config(N=4)
        spec = problem_from_dict(cfg)
        np.testing.assert_array_equal(spec.phi.coeffs, [1.0, 0.0, 0.0, 0.0])

    def test_b_kinds(self):
        cfg = minimal_config(N=2, B={"kind": "diag", "params": {"entries": [1.0, 0.5]}})
        spec = problem_from_dict(cfg)
        np.testing.assert_array_equal(spec.B, np.diag([1.0, 0.5]))
        assert spec.constants.M_B == pytest.approx(1.0)

    @pytest.mark.parametrize("B, matrix", [
        ({"kind": "scale", "params": {"value": 2.0}}, [[2.0, 0.0], [0.0, 2.0]]),
        ({"kind": "matrix", "params": {"rows": [[1.0, 0.5], [-0.5, 2.0]]}},
         [[1.0, 0.5], [-0.5, 2.0]]),
    ])
    def test_scale_and_matrix_b_kinds(self, B, matrix):
        spec = problem_from_dict(minimal_config(N=2, B=B))
        np.testing.assert_array_equal(spec.B, matrix)

    def test_b_scale_steers_like_identity_at_scaled_eps(self, tmp_path):
        # B = c I gives u = c D (eps + c^2 Gamma)^{-1} p, which is 1/c times
        # the identity map's control at eps/c^2: the same terminal error and
        # 1/c^2 of its energy (c = 2 here)
        reports = []
        for name, B, eps in [("scale", {"kind": "scale", "params": {"value": 2.0}}, "0.4"),
                             ("identity", {"kind": "identity"}, "0.1")]:
            cfg, out = tmp_path / f"{name}.json", tmp_path / f"{name}.out"
            cfg.write_text(json.dumps(minimal_config(B=B)))
            assert run([
                "steer", "--config", str(cfg), "--dt", "0.05",
                "--target", str(CONFIGS / "target_1d.json"), "--eps", eps, "--out", str(out),
            ]) == 0
            reports.append(json.loads(out.read_text()))
        scaled, identity = reports
        assert scaled["terminal_error"] == pytest.approx(identity["terminal_error"], rel=1e-12)
        assert scaled["control_energy"] == pytest.approx(identity["control_energy"] / 4, rel=1e-12)

    # phi is the history on [-r, 0]; with f = 0 and no nonlocal term the
    # forward path depends on phi(0) alone, so a zero or linear phi runs
    # forward like the constant phi of its coeffs
    @pytest.mark.parametrize("phi, coeffs, slope", [
        ({"kind": "zero"}, 0.0, 0.0),
        ({"kind": "linear", "params": {"coeffs": [1.0], "slope": [2.0]}}, 1.0, 2.0),
    ])
    def test_zero_and_linear_phi_through_solve(self, tmp_path, phi, coeffs, slope):
        constant = {"kind": "constant", "params": {"coeffs": [coeffs]}}
        rows = {}
        for name, data in [("phi", phi), ("constant", constant)]:
            cfg, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
            cfg.write_text(json.dumps(minimal_config(r=0.5, phi=data)))
            assert run(["solve", "--config", str(cfg), "--dt", "0.125", "--out", str(out)]) == 0
            lines = out.read_text().splitlines()[1:]
            rows[name] = [[float(c) for c in ln.split(",")] for ln in lines]
        history = [(t, x) for t, x, _ in rows["phi"] if t <= 0.0]
        assert [t for t, _ in history] == [-0.5, -0.375, -0.25, -0.125, 0.0]
        assert [x for _, x in history] == [coeffs + t * slope for t, _ in history]
        forward = [row for row in rows["phi"] if row[0] > 0.0]
        assert forward == [row for row in rows["constant"] if row[0] > 0.0]

    def test_target_loading(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_text('{"coeffs": [1.0, 2.0]}')
        np.testing.assert_array_equal(load_target(path, 4), [1.0, 2.0, 0.0, 0.0])

    def test_cost_loading(self):
        cost = load_cost(CONFIGS / "cost_quadratic.json")
        assert cost.w_state == 1.0 and cost.f_u == 1.0

    def test_invalid_json_reports_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            load_problem(path)


class TestCliMl:
    def test_exponential_row(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = run(["ml", "--alpha", "1", "--beta", "1", "--z", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "2.718281828459045" in out

    def test_grid_sweep_csv(self, tmp_path):
        out = tmp_path / "ml.csv"
        code = run([
            "ml", "--alpha", "1.5", "--beta", "1", "--grid=-2,0,5",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "alpha,beta,z,value"
        assert len(lines) == 6

    def test_bad_parameters_exit_2(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["ml", "--alpha", "3.0", "--beta", "1", "--z", "1"]) == 2

    # 1 / Gamma(200) underflows, and Gamma(200) itself overflows
    @pytest.mark.parametrize("z", ["-1", "5"])
    def test_alpha_one_at_large_beta_prints_zero(self, tmp_path, z):
        out = tmp_path / "ml.csv"
        assert run(["ml", "--alpha=1", "--beta=200", f"--z={z}", f"--out={out}"]) == 0
        assert out.read_text().splitlines()[1] == f"1.0,200.0,{float(z)},0.0"

    # lgamma overflows past beta = 2.5e305; a beta above 1e305 is refused
    # (1/Gamma(beta) reads 0.0 from 178 on, and E_{alpha,beta}(-1) does)
    @pytest.mark.parametrize("alpha", ["1.5", "1"])
    def test_huge_beta_exits_2(self, tmp_path, alpha):
        out = tmp_path / "ml.csv"
        code, err = _run_captured(
            ["ml", f"--alpha={alpha}", "--beta=1e306", "--z=-1", f"--out={out}"]
        )
        assert (code, err) == (2, "error: beta must lie in (0, 1e305], got 1e+306\n")
        assert not out.exists()
        assert run(["ml", f"--alpha={alpha}", "--beta=1e305", "--z=-1", f"--out={out}"]) == 0
        assert out.read_text().splitlines()[1] == f"{float(alpha)},1e+305,-1.0,0.0"

    # points that no route evaluates: the series at alpha = 2 needs over 600
    # terms at z = 2e5 (cosh(447)), and beta = 7 is 700 reductions of
    # alpha = 0.01 from (0, alpha]
    @pytest.mark.parametrize("alpha, beta, z, message", [
        ("2", "1", "2e5", "no route certifies alpha=2.0, beta=1.0, z=200000.0 [regime=table]"),
        ("0.01", "7", "-100", "beta=7.0 needs over 600 reductions for alpha=0.01 [regime=table]"),
    ])
    def test_unevaluable_point_exits_3(self, tmp_path, alpha, beta, z, message):
        out = tmp_path / "ml.csv"
        code, err = _run_captured(
            ["ml", f"--alpha={alpha}", f"--beta={beta}", f"--z={z}", f"--out={out}"]
        )
        assert (code, err) == (3, f"error: {message}\n")
        assert not out.exists()

    def test_missing_points_exit_2(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["ml", "--alpha", "1.5", "--beta", "1"]) == 2

    # argparse alone reads a token such as -1e4 as an unknown option, and
    # the run ends with "argument --z: expected one argument"
    @pytest.mark.parametrize("points, zs", [
        (["--z", "-1e4"], [-1e4]),
        (["--grid", "-50,5,3"], [-50.0, -22.5, 5.0]),
    ])
    def test_negative_value_with_an_exponent_or_a_list(self, tmp_path, points, zs):
        out = tmp_path / "ml.csv"
        assert run(["ml", "--alpha", "1.5", "--beta", "1", *points, "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert [float(row.split(",")[2]) for row in rows] == zs


class TestCliSolve:
    def test_csv_columns_and_left_limits(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(minimal_config(
            impulses=[{"t": 0.5, "kind": "linear", "scale": -1.0}]
        )))
        out = tmp_path / "traj.csv"
        code = run([
            "solve", "--config", str(cfg), "--dt", "0.125", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,mode_1,is_left_limit"
        flagged = [ln for ln in lines[1:] if ln.endswith(",1")]
        assert len(flagged) == 1  # exactly one left-limit row, at the impulse
        t_imp = [float(ln.split(",")[0]) for ln in lines[1:] if ln.endswith(",1")][0]
        assert t_imp == 0.5
        # the duplicated node appears once as left limit and once as right value
        assert sum(1 for ln in lines[1:] if float(ln.split(",")[0]) == 0.5) == 2

    def test_flagship_cells_parse_as_the_trajectory(self, tmp_path):
        # every cell is a plain float literal; a grid row holds traj.values,
        # and the row after an impulse node's left limit its right value
        out = tmp_path / "traj.csv"
        assert run([
            "solve", "--config", str(CONFIGS / "flagship.json"), "--dt", "0.05", "--out", str(out),
        ]) == 0
        rows = [[float(c) for c in ln.split(",")] for ln in out.read_text().splitlines()[1:]]
        spec = load_problem(CONFIGS / "flagship.json")
        grid = Grid(spec, 0.05)
        traj = solve_mild(spec, ControlSignal.zeros(grid), tol=1e-10)
        impulse_rows = {grid.fwd_row(m): m for m, _ in grid.kicks}
        assert len(impulse_rows) == 1
        expected = []
        for row, t in enumerate(grid.times):
            expected.append([t, *traj.values[row], float(row in impulse_rows)])
            if row in impulse_rows:
                expected.append([t, *traj.right_value(impulse_rows[row]), 0.0])
        assert rows == expected

    def test_manifest_written(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(minimal_config()))
        out = tmp_path / "traj.csv"
        assert run(["solve", "--config", str(cfg), "--dt", "0.25", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "traj.csv.manifest.json").read_text())
        for key in ("subcommand", "tool_version", "config", "parameters",
                    "outputs", "duration_s"):
            assert key in manifest
        assert manifest["subcommand"] == "solve"
        assert manifest["outputs"] == [str(out)]

    def test_missing_config_exit_2(self, tmp_path):
        assert run([
            "solve", "--config", str(tmp_path / "nope.json"), "--dt", "0.25",
            "--out", str(tmp_path / "t.csv"),
        ]) == 2

    def test_nonconvergent_exit_3(self, tmp_path):
        # f = 12 x on dt = 0.25: the trapezoid's half weight at each node
        # gives the sweep a gain of 12 * 0.125 = 1.5 there, so Picard diverges
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(minimal_config(
            f={"kind": "linear", "params": {"gain": 12.0}, "L1": 12.0, "p": 0.25}
        )))
        assert run([
            "solve", "--config", str(cfg), "--dt", "0.25",
            "--out", str(tmp_path / "t.csv"), "--max-iter", "10",
        ]) == 3

    def test_undetermined_start_exit_3(self, tmp_path):
        # x(0) = phi(0) - x(0) has the unique answer phi(0) / 2, but
        # x(0) = phi(0) + x(0) has none: refused before the first sweep
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(minimal_config(**{"nonlocal": [{"c": -1.0, "tau": 0.0}]})))
        out = tmp_path / "t.csv"
        code, err = _run_captured(["solve", f"--config={cfg}", "--dt=0.25", f"--out={out}"])
        assert code == 3
        assert err == (
            "error: nonlocal condition leaves x(0) undetermined in mode 1: "
            "1 + sum_i c_i Phi(tau_i) = 0 [regime=nonlocal]\n"
        )
        assert not out.exists()


class TestCliSteerSweep:
    def test_failed_factorization_exit_3(self, tmp_path, monkeypatch):
        import fracsteer.control as control

        def refuse(a):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(control, "cho_factor", refuse)
        code, err = _run_captured(FLAG_RUNS["steer"] + [f"--out={tmp_path / 'r.json'}"])
        assert code == 3
        assert err == "error: factorization of (eps I + Gamma) failed for eps=0.1 [regime=cholesky]\n"

    def test_infinite_grammian_exit_3(self, tmp_path):
        # B = 1e200 overflows Gamma to inf; a factor of inf must not pass as c = 0
        cfg = json.loads((CONFIGS / "linear1d.json").read_text())
        cfg["B"] = {"kind": "diag", "params": {"entries": [1e200]}}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        common = [f"--config={tmp_path / 'cfg.json'}", "--dt=0.1",
                  f"--target={CONFIGS / 'target_1d.json'}"]
        out = tmp_path / "r.json"
        code, err = _run_captured(["steer", *common, "--eps=0.1", f"--out={out}"])
        assert (code, err) == (
            3, "error: factorization of (eps I + Gamma) failed for eps=0.1 [regime=cholesky]\n"
        )
        assert not out.exists()
        out = tmp_path / "s.csv"
        code, err = _run_captured(["sweep", *common, "--eps-list=0.1,0.01", f"--out={out}"])
        assert (code, err) == (3, "")
        assert out.read_text().splitlines()[1:] == [
            f"{e},failed,failed,factorization of (eps I + Gamma) failed for eps={e} [regime=cholesky]"
            for e in ("0.1", "0.01")
        ]

    def test_singular_grammian_steers(self, tmp_path):
        # 64 modes on 11 forward nodes with every B entry 100: Gamma has rank
        # 11 and rounding leaves its least eigenvalue near -4e-10, but
        # eps I + Gamma factors.  With phi = 0 and f = 0 the free path is 0,
        # so x(T) = Gamma c for c = (eps I + Gamma)^{-1} h and the terminal
        # error is eps |c|
        n, eps = 64, 1e-2
        cfg, target, out = tmp_path / "cfg.json", tmp_path / "h.json", tmp_path / "r.json"
        cfg.write_text(json.dumps(minimal_config(
            N=n, phi={"kind": "zero"}, B={"kind": "matrix", "params": {"rows": [[100.0] * n] * n}},
        )))
        target.write_text(json.dumps({"coeffs": [0.3, -0.2]}))
        code, err = _run_captured([
            "steer", f"--config={cfg}", "--dt=0.1", f"--target={target}", f"--eps={eps}",
            f"--out={out}",
        ])
        assert (code, err) == (0, "")
        report = json.loads(out.read_text())
        spec = load_problem(cfg)
        h = load_target(target, n)
        c = np.linalg.solve(grammian(spec, Grid(spec, 0.1)) + eps * np.eye(n), h)
        assert report["terminal_error"] == pytest.approx(eps * np.linalg.norm(c), rel=1e-8)
        assert report["outer_iters"] == 2

    # the CLI, not the steer report, carries the contraction warning, right
    # before terminal_state
    @pytest.mark.parametrize("config, target, warnings", [
        ("flagship.json", "target_flagship.json",
         ["contraction factor 1.35 >= 1: convergence not guaranteed"]),
        ("linear1d.json", "target_1d.json", []),
    ])
    def test_steer_json_carries_the_warning(self, tmp_path, config, target, warnings):
        out = tmp_path / "report.json"
        assert run([
            "steer", f"--config={CONFIGS / config}", "--dt=0.05",
            f"--target={CONFIGS / target}", "--eps=0.1", f"--out={out}",
        ]) == 0
        report = json.loads(out.read_text())
        assert list(report) == ["eps", "terminal_error", "control_energy", "outer_iters",
                                "inner_residuals", "converged", "warnings", "terminal_state"]
        assert report["warnings"] == warnings

    def test_steer_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = run([
            "steer", "--config", str(CONFIGS / "linear1d.json"), "--dt", "0.01",
            "--target", str(CONFIGS / "target_1d.json"), "--eps", "1e-3",
            "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["converged"]
        assert 0.0 < report["terminal_error"] < 0.01
        assert report["control_energy"] > 0.0

    def test_flagship_config_matches_golden(self, tmp_path):
        # configs/flagship.json is the golden flagship: all 16 coefficients
        # phi_k = 2^-k, as in tests/golden/flagship.json
        golden = json.loads(
            (Path(__file__).parent / "golden" / "flagship.json").read_text()
        )["steer_eps_1e-2"]["200"]
        out = tmp_path / "report.json"
        assert run([
            "steer", "--config", str(CONFIGS / "flagship.json"), "--dt", "0.005",
            "--target", str(CONFIGS / "target_flagship.json"), "--eps", "1e-2",
            "--out", str(out),
        ]) == 0
        report = json.loads(out.read_text())
        assert report["terminal_error"] == pytest.approx(golden["terminal_error"], rel=1e-9)
        assert report["control_energy"] == pytest.approx(golden["control_energy"], rel=1e-9)
        assert report["outer_iters"] == golden["outer_iters"] == 11

    def test_sweep_csv_and_closed_form(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run([
            "sweep", "--config", str(CONFIGS / "linear1d.json"), "--dt", "0.01",
            "--target", str(CONFIGS / "target_1d.json"),
            "--eps-list", "1e-1,1e-2", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "eps,terminal_error,control_energy,outer_iters"
        assert len(lines) == 3
        errs = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert errs[1] < errs[0]

    def test_sweep_rows_match_scalar_closed_form(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run([
            "sweep", "--config", str(CONFIGS / "linear1d.json"), "--dt", "0.01",
            "--target", str(CONFIGS / "target_1d.json"),
            "--eps-list", "1e-1,1e-2", "--out", str(out),
        ]) == 0
        from oracles import residual_p

        spec = load_problem(CONFIGS / "linear1d.json")
        grid = Grid(spec, 0.01)
        G = grammian(spec, grid)[0, 0]
        free = solve_mild(spec, ControlSignal.zeros(grid), tol=1e-13)
        p = abs(residual_p(spec, grid.h, free.values, np.array([2.0]))[0])
        rows = out.read_text().strip().splitlines()[1:]
        for row, eps in zip(rows, (1e-1, 1e-2)):
            err = float(row.split(",")[1])
            assert err == pytest.approx(eps / (eps + G) * p, rel=1e-6)

    def test_sweep_reproducible_bit_for_bit(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert run([
                "sweep", "--config", str(CONFIGS / "linear1d.json"), "--dt", "0.01",
                "--target", str(CONFIGS / "target_1d.json"),
                "--eps-list", "1e-1,1e-2,1e-3", "--out", str(out),
            ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_increasing_eps_list_exit_2(self, tmp_path):
        assert run([
            "sweep", "--config", str(CONFIGS / "linear1d.json"), "--dt", "0.01",
            "--target", str(CONFIGS / "target_1d.json"),
            "--eps-list", "1e-3,1e-2", "--out", str(tmp_path / "s.csv"),
        ]) == 2


class TestCliOptimizeCheck:
    def test_optimize_output(self, tmp_path):
        out = tmp_path / "opt.json"
        code = run([
            "optimize", "--config", str(CONFIGS / "linear1d.json"), "--dt", "0.02",
            "--cost", str(CONFIGS / "cost_quadratic.json"),
            "--intervals", "2", "--max-evals", "150", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert "J_opt" in payload and len(payload["parameters"]) == 2
        assert payload["history"] == sorted(payload["history"], reverse=True)

    def test_optimize_shares_the_picard_budget(self, tmp_path):
        # a nonlocal weight of 0.9 makes the u = 0 solve take 219 sweeps at
        # dt 0.02; every solve of the cost runs under the budget of solve,
        # steer and sweep
        cfg, out = tmp_path / "cfg.json", tmp_path / "opt.json"
        raw = json.loads((CONFIGS / "linear1d.json").read_text())
        cfg.write_text(json.dumps({**raw, "nonlocal": [{"c": 0.9, "tau": 0.0}]}))
        code = run([
            "optimize", "--config", str(cfg), "--dt", "0.02",
            "--cost", str(CONFIGS / "cost_quadratic.json"), "--intervals", "2", "--out", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["converged"]

    def test_optimize_box_is_the_bound_magnitude(self, tmp_path):
        # the box is [-|b|, |b|], and the optimum of this run lies inside
        # |theta| < 3: a bound of -3, 1e300 or inf gives the bytes of 3
        def optimize(*bound):
            out = tmp_path / "opt.json"
            assert run(FLAG_RUNS["optimize"] + [*bound, f"--out={out}"]) == 0
            return out.read_bytes()

        three = optimize("--bound=3")
        for bound in ("-3", "1e300", "inf"):
            assert optimize(f"--bound={bound}") == three
        # a negative value after a space, also with an exponent or as -inf
        for bound in ("-3", "-1e1", "-inf"):
            assert optimize("--bound", bound) == three

    # one interval per grid step: in floats t / T * P put node 29 of 100
    # in interval 28, and node 3 of 7 in interval 2, leaving one empty
    @pytest.mark.parametrize("dt, intervals", [("0.01", "100"), ("0.14285714285714285", "7")])
    def test_optimize_takes_one_interval_per_step(self, tmp_path, dt, intervals):
        out = tmp_path / "opt.json"
        assert run([
            "optimize", "--config", str(CONFIGS / "linear1d.json"), "--dt", dt,
            "--cost", str(CONFIGS / "cost_quadratic.json"), "--intervals", intervals,
            "--out", str(out),
        ]) == 0
        assert len(json.loads(out.read_text())["parameters"]) == int(intervals)

    def test_optimize_zero_bound_pins_the_control_at_zero(self, tmp_path):
        out = tmp_path / "opt.json"
        assert run(FLAG_RUNS["optimize"] + ["--bound=0", f"--out={out}"]) == 0
        payload = json.loads(out.read_text())
        assert payload["converged"]
        assert payload["parameters"] == [[0.0], [0.0]]

    def test_check_prints_factor(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(minimal_config(
            impulses=[{"t": 0.5, "kind": "linear", "scale": 0.1}],
            **{"nonlocal": [{"c": 0.1, "tau": 0.5}]}
        )))
        code = run(["check", "--config", str(cfg), "--eps", "1.0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "contraction factor" in out
        factor = float(out.splitlines()[0].split(":")[1])
        assert factor == pytest.approx(0.4, abs=1e-12)

    def test_check_flagship_matches_golden(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        golden = json.loads(
            (Path(__file__).parent / "golden" / "flagship.json").read_text()
        )
        code = run(["check", "--config", str(CONFIGS / "flagship.json"), "--eps", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        factor = float(out.splitlines()[0].split(":")[1])
        assert factor == golden["contraction_factor_eps_0p1"]

    def test_unknown_subcommand_exit_2(self):
        assert run(["frobnicate"]) == 2

    def test_no_subcommand_exit_2(self):
        assert run([]) == 2


def _field_paths(obj, path=()):
    """Path of every value below the root: leaves, lists and objects."""
    if path:
        yield path
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _field_paths(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _field_paths(value, path + (i,))


def _mutated(obj, path, value):
    obj = json.loads(json.dumps(obj))
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return obj


def _run_captured(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


class TestNonFiniteInputs:
    @pytest.mark.parametrize("path, value, field", [
        (("r",), math.inf, "r"),
        (("phi", "params", "coeffs", 2), math.nan, "phi.coeffs"),
        (("omega",), math.nan, "omega"),
        (("T",), math.nan, "T"),
        (("impulses", 0, "scale"), -math.inf, "impulses[0].scale"),
        (("f", "params", "f1_gain"), math.nan, "f.params.f1_gain"),
        (("f",), {"kind": "linear", "params": {"gain": math.nan}, "p": 0.4}, "f.params.gain"),
    ])
    def test_solve_exits_2_naming_the_field(self, tmp_path, path, value, field):
        cfg = tmp_path / "cfg.json"
        raw = json.loads((CONFIGS / "flagship.json").read_text())
        cfg.write_text(json.dumps(_mutated(raw, path, value)))
        code, err = _run_captured([
            "solve", "--config", str(cfg), "--dt", "0.05", "--out", str(tmp_path / "t.csv"),
        ])
        assert code == 2
        assert err.count("\n") == 1 and err.startswith(f"error: {field} must be finite")

    def test_non_finite_picard_iterate_exits_3_at_once(self, tmp_path):
        # a huge nonlocal weight overflows the first sweep; the solver stops
        # there instead of spending its whole sweep budget
        cfg = tmp_path / "cfg.json"
        raw = json.loads((CONFIGS / "flagship.json").read_text())
        cfg.write_text(json.dumps(_mutated(raw, ("nonlocal", 0, "c"), 1e300)))
        code, err = _run_captured([
            "solve", "--config", str(cfg), "--dt", "0.05", "--out", str(tmp_path / "t.csv"),
        ])
        assert code == 3
        assert err == "error: Picard iteration produced a non-finite iterate at sweep 1\n"


class TestKinds:
    # every f kind is a special case of "memory": the same numbers solve to
    # the same bytes
    @pytest.mark.parametrize("f, memory", [
        ({"kind": "linear", "params": {"gain": 0.2}}, {"f1_gain": 0.2, "f2_gain": 0.0}),
        ({"kind": "zero"}, {"f1_gain": 0.0, "f2_gain": 0.0}),
    ])
    def test_f_kind_solves_like_memory(self, tmp_path, f, memory):
        raw = json.loads((CONFIGS / "flagship.json").read_text())
        csvs = []
        for name, data in [("kind", f), ("memory", {"kind": "memory", "params": memory})]:
            cfg, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
            cfg.write_text(json.dumps(_mutated(raw, ("f",), dict(data, p=0.4))))
            assert run(["solve", "--config", str(cfg), "--dt", "0.05", "--out", str(out)]) == 0
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1]

    @pytest.mark.parametrize("path, message", [
        (("phi", "kind"), "unknown phi kind 'bogus'"),
        (("f", "kind"), "unknown nonlinearity kind 'bogus'"),
        (("impulses", 0, "kind"), "unknown impulse kind 'bogus'"),
    ])
    def test_unknown_kind_exits_2(self, tmp_path, path, message):
        cfg = tmp_path / "cfg.json"
        raw = json.loads((CONFIGS / "flagship.json").read_text())
        cfg.write_text(json.dumps(_mutated(raw, path, "bogus")))
        code, err = _run_captured([
            "solve", "--config", str(cfg), "--dt", "0.05", "--out", str(tmp_path / "t.csv"),
        ])
        assert code == 2
        assert err == f"error: {message}\n"


class TestInvalidFields:
    # a field of the wrong JSON type, or a horizon whose lambda_N T^alpha
    # overflows before any grid is built
    @pytest.mark.parametrize("name, path, value, field", [
        ("flagship.json", ("T",), 1e300, "T"),
        ("flagship.json", ("phi", "params", "coeffs"), "abc", "phi.coeffs"),
        ("flagship.json", ("phi", "params", "coeffs", 1), None, "phi.coeffs[1]"),
        ("flagship.json", ("f", "L1"), [1], "f.L1"),
        ("flagship.json", ("f", "params", "f1_gain"), True, "f.params.f1_gain"),
        ("flagship.json", ("f", "params"), [1], "f.params"),
        ("flagship.json", ("impulses",), 5, "impulses"),
        ("flagship.json", ("impulses", 0), "x", "impulses[0]"),
        ("flagship.json", ("nonlocal", 0, "tau"), {}, "nonlocal[0].tau"),
        ("flagship.json", ("N",), True, "N"),
        ("flagship.json", ("omega",), 10**400, "omega"),  # an integer no float holds
        ("flagship.json", ("B",), {"kind": "diag", "params": {"entries": "ab"}},
         "B.params.entries"),
        ("flagship.json", ("phi",), 1.0, "phi"),
        ("cost_quadratic.json", ("weights",), 5, "cost.weights"),
        ("cost_quadratic.json", ("coercivity", "d"), "x", "cost.coercivity.d"),
        ("target_1d.json", ("coeffs",), "abc", "target coeffs"),
        ("flagship.json", ("f", "params", "f1_form"), "bogus", "f.params.f1_form"),
        ("flagship.json", ("f", "params", "f2_form"), 3, "f.params.f2_form"),
    ])
    def test_exits_2_naming_the_field(self, tmp_path, name, path, value, field):
        raw = json.loads((CONFIGS / name).read_text())
        cfg = tmp_path / name
        cfg.write_text(json.dumps(_mutated(raw, path, value)))
        argv = [a.replace("{cfg}", str(cfg)) for a in FUZZ_RUNS[name]]
        code, err = _run_captured(argv + ["--out", str(tmp_path / "out")])
        assert code == 2
        assert err.count("\n") == 1 and err.startswith(f"error: {field} must be ")

    # a value of the right type outside its range, or a vector or matrix of
    # the wrong size: one error line naming the rule
    @pytest.mark.parametrize("name, path, value, message", [
        ("flagship.json", ("alpha",), 2.5, "alpha must lie in (1, 2), got 2.5"),
        ("flagship.json", ("omega",), -1.0, "omega must be >= 0"),
        ("flagship.json", ("T",), 0.0, "T must be > 0"),
        ("flagship.json", ("r",), -0.1, "r must be >= 0"),
        ("flagship.json", ("f", "L1"), -1.0, "Lipschitz/bound constants must be >= 0"),
        ("flagship.json", ("phi", "params", "coeffs"), [1.0] * 17,
         "phi.coeffs: expected a scalar or a vector of length <= N=16"),
        ("flagship.json", ("B",), {"kind": "diag", "params": {"entries": [1.0] * 3}},
         "B.diag entries must have length N=16"),
        ("flagship.json", ("B",), {"kind": "matrix", "params": {"rows": [[1.0] * 16] * 15}},
         "B.matrix rows must be 16x16"),
        ("flagship.json", ("B",), {"kind": "matrix", "params": {"rows": [[1.0] * 15] * 16}},
         "B.matrix rows must be 16x16"),
        ("cost_quadratic.json", ("weights", "state"), -1.0, "cost weights must be >= 0"),
        ("cost_quadratic.json", ("weights", "history"), -1.0, "cost weights must be >= 0"),
        ("cost_quadratic.json", ("weights", "control"), -1.0, "cost weights must be >= 0"),
        ("cost_quadratic.json", ("weights", "state"), math.nan, "cost w_state must be finite, got nan"),
    ])
    def test_out_of_range_exits_2(self, tmp_path, name, path, value, message):
        raw = json.loads((CONFIGS / name).read_text())
        cfg = tmp_path / name
        cfg.write_text(json.dumps(_mutated(raw, path, value)))
        argv = [a.replace("{cfg}", str(cfg)) for a in FUZZ_RUNS[name]]
        code, err = _run_captured(argv + ["--out", str(tmp_path / "out")])
        assert (code, err) == (2, f"error: {message}\n")
        assert not (tmp_path / "out").exists()

    # a problem, target or cost file that is not UTF-8, or that nests past
    # the decoder's recursion limit, reads as invalid JSON
    @pytest.mark.parametrize("name, data", [
        ("flagship.json", b"\xff{}"),
        ("target_1d.json", b"\xff{}"),
        ("cost_quadratic.json", b"\xff{}"),
        ("flagship.json", b"[" * 100_000),
    ])
    def test_undecodable_file_exits_2(self, tmp_path, name, data):
        cfg = tmp_path / name
        cfg.write_bytes(data)
        argv = [a.replace("{cfg}", str(cfg)) for a in FUZZ_RUNS[name]]
        code, err = _run_captured(argv + ["--out", str(tmp_path / "out")])
        assert code == 2
        assert err.count("\n") == 1 and err.startswith(f"error: invalid JSON in {cfg}: ")
        assert not (tmp_path / "out").exists()


# one cheap run per subcommand; each flag case below sets one of its flags
FLAG_RUNS = {
    "ml": ["ml", "--alpha=1.5", "--beta=1", "--z=-1"],
    "solve": ["solve", f"--config={CONFIGS / 'flagship.json'}", "--dt=0.05"],
    "steer": [
        "steer", f"--config={CONFIGS / 'linear1d.json'}", "--dt=0.05",
        f"--target={CONFIGS / 'target_1d.json'}", "--eps=0.1",
    ],
    "sweep": [
        "sweep", f"--config={CONFIGS / 'linear1d.json'}", "--dt=0.05",
        f"--target={CONFIGS / 'target_1d.json'}", "--eps-list=0.1,0.01",
    ],
    "optimize": [
        "optimize", f"--config={CONFIGS / 'linear1d.json'}", "--dt=0.02",
        f"--cost={CONFIGS / 'cost_quadratic.json'}", "--intervals=2",
    ],
    "check": ["check", f"--config={CONFIGS / 'flagship.json'}", "--eps=0.1"],
}


class TestInvalidFlags:
    # refused on entry, before any solve: an iteration budget below 1, an
    # evaluation budget below 2 P N + 2 (the start, one gradient and one
    # trial point; FLAG_RUNS has P N = 2), a NaN tolerance, eps or bound, a
    # zero step, eps or tolerance, an infinite beta and an empty or
    # non-numeric eps list
    @pytest.mark.parametrize("sub, flag, value, name", [
        ("solve", "--dt", "0", "dt"),
        ("steer", "--eps", "0", "eps"),
        ("steer", "--tol", "0", "eps"),
        ("sweep", "--eps-list", "0.1,x", "--eps-list"),
        ("solve", "--max-iter", "0", "max_iter"),
        ("solve", "--max-iter", "-1", "max_iter"),
        ("solve", "--tol", "nan", "tol"),
        ("steer", "--max-outer", "0", "max_outer"),
        ("steer", "--max-outer", "-1", "max_outer"),
        ("sweep", "--max-outer", "0", "max_outer"),
        ("sweep", "--max-outer", "-1", "max_outer"),
        ("sweep", "--eps-list", ",", "eps list"),
        ("optimize", "--max-evals", "0", "max_evals"),
        ("optimize", "--max-evals", "-1", "max_evals"),
        ("optimize", "--max-evals", "4", "max_evals"),
        ("optimize", "--max-evals", "5", "max_evals"),
        ("optimize", "--bound", "nan", "box bounds"),
        ("check", "--eps", "nan", "eps"),
        ("ml", "--beta", "inf", "beta"),
    ])
    def test_exits_2_naming_the_option(self, tmp_path, sub, flag, value, name):
        argv = [a for a in FLAG_RUNS[sub] if not a.startswith(f"{flag}=")]
        code, err = _run_captured(argv + [f"{flag}={value}", "--out", str(tmp_path / "out")])
        assert code == 2
        assert err.count("\n") == 1 and err.startswith(f"error: {name} must ")
        assert not (tmp_path / "out").exists()

    # check refuses every eps that steer refuses, and a factor that
    # overflows, which its manifest could only hold as the non-JSON Infinity
    @pytest.mark.parametrize("eps, code, message", [
        ("inf", 2, "error: eps must be finite and > 0, got eps=inf\n"),
        ("nan", 2, "error: eps must be finite and > 0, got eps=nan\n"),
        ("1e-320", 3, "error: contraction factor overflows at eps=1e-320 [regime=contraction]\n"),
    ])
    def test_check_eps_without_a_finite_factor(self, tmp_path, eps, code, message):
        argv = [a for a in FLAG_RUNS["check"] if not a.startswith("--eps=")]
        out = tmp_path / "out"
        assert _run_captured(argv + [f"--eps={eps}", f"--out={out}"]) == (code, message)
        assert list(tmp_path.iterdir()) == []

    # JSON has no inf or NaN: a run whose result holds one exits 3 with one
    # line and writes nothing
    def test_non_finite_result_exits_3(self, tmp_path, monkeypatch):
        import fracsteer.cli as cli
        from fracsteer.optimal import MinimizeResult

        monkeypatch.setattr(cli, "minimize", lambda *a, **k: MinimizeResult(
            J_opt=math.inf, theta_opt=np.zeros((2, 1)), history=[math.inf],
            converged=True, n_evals=6))
        code, err = _run_captured(FLAG_RUNS["optimize"] + [f"--out={tmp_path / 'out'}"])
        assert code == 3
        assert err.count("\n") == 1
        assert err.startswith("error: cannot write a non-finite number as JSON: ")
        assert err.endswith(" [regime=output]\n")
        assert list(tmp_path.iterdir()) == []

    # a flag value JSON cannot hold is recorded as its repr, so the
    # manifest stays JSON
    def test_infinite_bound_recorded_as_a_string(self, tmp_path):
        out = tmp_path / "out"
        assert run(FLAG_RUNS["optimize"] + ["--bound=-inf", f"--out={out}"]) == 0
        manifest = json.loads((tmp_path / "out.manifest.json").read_text(),
                              parse_constant=pytest.fail)
        assert manifest["parameters"]["bound"] == "-inf"

    # a z sweep of no points, or of more points than a grid may have
    @pytest.mark.parametrize("steps", ["0", "-1", "1000001"])
    def test_grid_step_count_out_of_range(self, tmp_path, steps):
        argv = ["ml", "--alpha=1.5", "--beta=1", f"--grid=0,1,{steps}"]
        code, err = _run_captured(argv + ["--out", str(tmp_path / "out")])
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: grid steps must ")
        assert not (tmp_path / "out").exists()

    # dt = 1e-9 would give the flagship's delay r = 0.25 a quarter of a
    # billion steps
    def test_grid_span_step_count_out_of_range(self, tmp_path):
        argv = [a for a in FLAG_RUNS["solve"] if not a.startswith("--dt=")]
        code, err = _run_captured(argv + ["--dt=1e-9", "--out", str(tmp_path / "out")])
        assert code == 2
        assert err == "error: delay r=0.25 spans more than 1000000 steps of dt=1e-09\n"
        assert not (tmp_path / "out").exists()

    # N = 1024 modes on 10,001 rows is past the grid's 10^7 cells: refused
    # before any array of the grid's size is allocated (one is 82 MB)
    def test_grid_cell_count_out_of_range(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(minimal_config(N=1024)))
        tracemalloc.start()
        try:
            code, err = _run_captured([
                "solve", f"--config={cfg}", "--dt=1e-4", "--out", str(tmp_path / "out"),
            ])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert err == "error: grid of 10001 rows x N=1024 modes exceeds 10000000 cells\n"
        assert peak < 40e6
        assert not (tmp_path / "out").exists()

    # at dt = 0.1 a horizon of 1e-12 rounds to no step, impulse times 1e-12
    # and 1 - 1e-12 to the end nodes 0 and 10, where a kick moves nothing,
    # and impulse times 0.5 and 0.5 + 1e-12 to one node, where the second
    # kick would be lost
    @pytest.mark.parametrize("overrides, message", [
        (dict(T=1e-12), "horizon T=1e-12 spans no step of dt=0.1"),
        (dict(impulses=[{"t": 1e-12, "kind": "linear", "scale": -0.5}]),
         "impulse times must fall on strictly increasing nodes inside (0, T) at dt=0.1, "
         "got nodes [0]"),
        (dict(impulses=[{"t": 1.0 - 1e-12, "kind": "linear", "scale": -0.5}]),
         "impulse times must fall on strictly increasing nodes inside (0, T) at dt=0.1, "
         "got nodes [10]"),
        (dict(impulses=[{"t": 0.5, "kind": "linear", "scale": -0.5},
                        {"t": 0.5 + 1e-12, "kind": "linear", "scale": -0.5}]),
         "impulse times must fall on strictly increasing nodes inside (0, T) at dt=0.1, "
         "got nodes [5, 5]"),
    ], ids=["no-step", "impulse-at-0", "impulse-at-T", "impulses-on-one-node"])
    def test_grid_nodes_that_collapse_exit_2(self, tmp_path, overrides, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(minimal_config(**overrides)))
        argv = [a for a in FLAG_RUNS["steer"] if not a.startswith(("--config=", "--dt="))]
        code, err = _run_captured(argv + [f"--config={cfg}", "--dt=0.1",
                                          "--out", str(tmp_path / "out")])
        assert (code, err) == (2, f"error: {message}\n")
        assert not (tmp_path / "out").exists()

    # P*N = 10^6 parameters would need a 10^12-cell BFGS matrix (7.28 TiB):
    # refused before anything is allocated
    @pytest.mark.parametrize("intervals", [10**6, 10**7])
    def test_bfgs_cell_count_out_of_range(self, tmp_path, intervals):
        argv = [a for a in FLAG_RUNS["optimize"] if not a.startswith("--intervals=")]
        tracemalloc.start()
        try:
            code, err = _run_captured(
                argv + [f"--intervals={intervals}", "--out", str(tmp_path / "out")]
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert err == (
            f"error: BFGS matrix of P*N={intervals} parameters squared exceeds 10000000 cells\n"
        )
        assert peak < 40e6
        assert not (tmp_path / "out").exists()

    # the extremes of optimize's --intervals and --max-evals on FLAG_RUNS
    # (P N = 2, so 2 P N + 2 = 6 evaluations is the least budget, and
    # P N = 3,163 is one past the BFGS matrix's cap): each run exits 0 or 2
    # with at most one line on stderr and no traceback
    @pytest.mark.parametrize("flag, value, want", [
        ("--intervals", "0", 2),
        ("--intervals", "-1", 2),
        ("--intervals", "3163", 2),
        ("--intervals", str(10**6), 2),
        ("--max-evals", "5", 2),
        ("--max-evals", "6", 0),
        ("--max-evals", str(10**18), 0),
    ])
    def test_optimize_flag_extremes_end_cleanly(self, tmp_path, flag, value, want):
        argv = [a for a in FLAG_RUNS["optimize"] if not a.startswith(f"{flag}=")]
        out = tmp_path / "out"
        code, err = _run_captured(argv + [f"{flag}={value}", f"--out={out}"])
        assert code == want
        assert "Traceback" not in err
        assert err.count("\n") == (code != 0)
        assert code == 0 or err.startswith("error: ")
        assert out.exists() == (code == 0)

    # at dt 0.1 on T = 1, 16 intervals leave 5 of them without a forward
    # node, whose parameters could never move (such a run used to exit 0
    # after 429 evaluations); at 11 intervals every one holds a node
    @pytest.mark.parametrize("intervals, want", [(16, 2), (11, 0)])
    def test_interval_without_grid_node(self, tmp_path, intervals, want):
        argv = [
            "optimize", f"--config={CONFIGS / 'linear1d.json'}", "--dt=0.1",
            f"--cost={CONFIGS / 'cost_quadratic.json'}", f"--intervals={intervals}",
        ]
        code, err = _run_captured(argv + ["--out", str(tmp_path / "out")])
        assert code == want
        if want == 2:
            assert err == "error: 5 of P=16 control intervals hold no grid node\n"
        assert (tmp_path / "out").exists() == (want == 0)

    # a z sweep that is not from,to,steps
    @pytest.mark.parametrize("grid", ["0,1", "0,1,2,3", "a,1,5", "0,1,2.5"])
    def test_malformed_grid(self, tmp_path, grid):
        argv = ["ml", "--alpha=1.5", "--beta=1", f"--grid={grid}"]
        code, err = _run_captured(argv + ["--out", str(tmp_path / "out")])
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: --grid must be from,to,steps: ")
        assert not (tmp_path / "out").exists()

    # argparse's own usage errors: a value of the wrong type, a missing
    # required flag, no subcommand, a flag the subcommand does not take
    @pytest.mark.parametrize("argv, message", [
        (FLAG_RUNS["solve"] + ["--max-iter=nan"], "argument --max-iter: invalid int value"),
        (FLAG_RUNS["optimize"] + ["--max-evals=inf"], "argument --max-evals: invalid int value"),
        ([a for a in FLAG_RUNS["steer"] if not a.startswith("--eps=")],
         "the following arguments are required: --eps"),
        ([], "the following arguments are required: subcommand"),
        (FLAG_RUNS["steer"] + ["--theta=1"], "unrecognized arguments: --theta=1"),
        (FLAG_RUNS["optimize"] + ["--step=0.5"], "unrecognized arguments: --step=0.5"),
        (FLAG_RUNS["optimize"] + ["--fd-step=1e-5"], "unrecognized arguments: --fd-step=1e-5"),
    ])
    def test_usage_error_is_one_line(self, argv, message):
        code, err = _run_captured(argv)
        assert code == 2
        assert err.count("\n") == 1 and err.startswith(f"error: {message}")


MANIFEST_KEYS = ["subcommand", "tool_version", "config", "parameters", "outputs", "duration_s"]

# the manifest parameters of each FLAG_RUNS run, in the order they are written
MANIFEST_PARAMETERS = {
    "ml": {"alpha": 1.5, "beta": 1.0, "z": [-1.0]},
    "solve": {"dt": 0.05, "tol": 1e-10, "picard_iters": 6,
              "warnings": ["contraction factor 1.35 >= 1: convergence not guaranteed"]},
    "steer": {"dt": 0.05, "eps": 0.1, "tol": 1e-8},
    "sweep": {"dt": 0.05, "eps_list": [0.1, 0.01], "tol": 1e-8, "errors_non_increasing": True},
    "optimize": {"dt": 0.02, "intervals": 2, "bound": 10.0, "converged": True},
    "check": {"eps": 0.1, "factor": 14.850000000000001},
}


class TestManifests:
    def check_manifest(self, path, sub, argv, outputs):
        manifest = json.loads(path.read_text())
        assert list(manifest) == MANIFEST_KEYS
        assert manifest["subcommand"] == sub
        assert manifest["tool_version"] == __version__
        config = [a.split("=", 1)[1] for a in argv if a.startswith("--config=")]
        assert manifest["config"] == (config[0] if config else None)
        assert list(manifest["parameters"].items()) == list(MANIFEST_PARAMETERS[sub].items())
        assert manifest["outputs"] == outputs
        duration = manifest["duration_s"]
        assert isinstance(duration, float) and duration >= 0.0

    @pytest.mark.parametrize("sub", sorted(FLAG_RUNS))
    def test_stdout_and_out_runs(self, tmp_path, capsys, monkeypatch, sub):
        # a stdout run writes <subcommand>.manifest.json in the working
        # directory; an --out run writes the same text to the file and the
        # manifest next to it
        monkeypatch.chdir(tmp_path)
        argv = FLAG_RUNS[sub]
        assert run(argv) == 0
        text = capsys.readouterr().out
        self.check_manifest(tmp_path / f"{sub}.manifest.json", sub, argv, [])
        out = tmp_path / "new" / "result"
        assert run(argv + [f"--out={out}"]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == text.encode()
        self.check_manifest(tmp_path / "new" / "result.manifest.json", sub, argv, [str(out)])

    def test_manifest_flag_sets_the_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = FLAG_RUNS["check"]
        out, manifest = tmp_path / "check.txt", tmp_path / "new" / "run.json"
        assert run(argv + [f"--out={out}", f"--manifest={manifest}"]) == 0
        self.check_manifest(manifest, "check", argv, [str(out)])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["check.txt", "new"]

    # an output or manifest path below a regular file cannot be written, nor
    # an output path that names a directory; no temp file or manifest is left
    @pytest.mark.parametrize("flag, name", [
        pytest.param("--out", "file/x", id="--out"),
        pytest.param("--manifest", "file/x", id="--manifest"),
        pytest.param("--out", "dir", id="--out-directory"),
    ])
    def test_unwritable_path_exits_2(self, tmp_path, monkeypatch, flag, name):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "file").write_text("")
        (tmp_path / "dir").mkdir()
        code, err = _run_captured(FLAG_RUNS["check"] + [f"{flag}={tmp_path / name}"])
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: cannot write output: ")
        assert str(tmp_path / name.split("/")[0]) in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]
        assert list((tmp_path / "dir").iterdir()) == []

    def test_failed_sweep_writes_csv_and_manifest(self, tmp_path):
        argv = FLAG_RUNS["sweep"] + ["--max-outer=1"]
        out = tmp_path / "sweep.csv"
        code, err = _run_captured(argv + [f"--out={out}"])
        assert code == 3 and err == ""
        rows = out.read_text().splitlines()
        assert rows[0] == "eps,terminal_error,control_energy,outer_iters"
        assert [row.split(",")[:3] for row in rows[1:]] == [
            ["0.1", "failed", "failed"], ["0.01", "failed", "failed"],
        ]
        assert all("did not converge in 1 iterations" in row for row in rows[1:])
        self.check_manifest(tmp_path / "sweep.csv.manifest.json", "sweep", argv, [str(out)])


# every config file, with a cheap run that reads it
FUZZ_RUNS = {
    "flagship.json": ["solve", "--config", "{cfg}", "--dt", "0.05"],
    "linear1d.json": ["solve", "--config", "{cfg}", "--dt", "0.05"],
    "target_flagship.json": [
        "steer", "--config", str(CONFIGS / "flagship.json"), "--dt", "0.05",
        "--target", "{cfg}", "--eps", "0.1",
    ],
    "target_1d.json": [
        "steer", "--config", str(CONFIGS / "linear1d.json"), "--dt", "0.05",
        "--target", "{cfg}", "--eps", "0.1",
    ],
    "cost_quadratic.json": [
        "optimize", "--config", str(CONFIGS / "linear1d.json"), "--dt", "0.05",
        "--cost", "{cfg}", "--intervals", "2", "--max-evals", "20",
    ],
}


def test_fuzz_runs_cover_every_config():
    assert sorted(FUZZ_RUNS) == sorted(p.name for p in CONFIGS.glob("*.json"))


@given(data=st.data())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_fuzzed_configs_exit_cleanly(data):
    # one field of one config (a leaf, a list or an object) set to NaN,
    # +-Infinity, a huge value or a value of the wrong JSON type: the run
    # either succeeds or exits 2/3 with an error line, never raises
    name = data.draw(st.sampled_from(sorted(FUZZ_RUNS)))
    raw = json.loads((CONFIGS / name).read_text())
    path = data.draw(st.sampled_from(list(_field_paths(raw))))
    value = data.draw(st.sampled_from(
        [math.nan, math.inf, -math.inf, 1e300, -1e300, "x", [1], {}, True, None]
    ))
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / name
        cfg.write_text(json.dumps(_mutated(raw, path, value)))
        argv = [a.replace("{cfg}", str(cfg)) for a in FUZZ_RUNS[name]]
        code, err = _run_captured(argv + ["--out", str(Path(tmp) / "out")])
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code:
        assert err.startswith("error: ")


def test_readme_commands_exit_0(tmp_path, monkeypatch):
    # every `fracsteer` command of the README's bash blocks, continued lines
    # joined, runs as written from a fresh working directory, its configs/
    # paths pointed at the repo's: a renamed or dropped flag fails here
    readme = (CONFIGS.parent / "README.md").read_text()
    lines = "".join(re.findall(r"```bash\n(.*?)```", readme, re.S)).replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in lines.splitlines()
                if line.startswith("fracsteer ")]
    assert len(commands) == 7
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        argv = [str(CONFIGS.parent / a) if a.startswith("configs/") else a for a in argv]
        assert run(argv) == 0, argv
