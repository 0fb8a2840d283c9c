"""End-to-end command-line checks: JSON-line outputs, exit codes, file
outputs, determinism, and the config plumbing."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from heisvisc.cli import main
from heisvisc.fields import Domain, parse_field, sample
from heisvisc.gridio import load_problem, read_grid_csv, write_grid_csv
from heisvisc.perron import solve

BOX1 = np.array([[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]])
SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


# -- gauge / group -------------------------------------------------------------


def test_gauge_known_point(capsys):
    code, out, _ = run(capsys, "gauge", "--n", "1", "--point", "0,0,4")
    assert code == 0
    assert last_json(out) == {"gauge": 2.0, "point": [0.0, 0.0, 4.0]}


def test_gauge_rejects_malformed_point(capsys):
    code, _, err = run(capsys, "gauge", "--point", "1,banana,0")
    assert code == 2
    assert "malformed point" in err


def test_gauge_rejects_wrong_dimension(capsys):
    code, _, err = run(capsys, "gauge", "--n", "2", "--point", "1,0,0")
    assert code == 2
    assert "expected 5" in err


def test_gauge_rejects_n_below_one(capsys):
    code, _, err = run(capsys, "gauge", "--n", "-2", "--point=-1,0,0")
    assert code == 2
    assert "--n must be at least 1" in err


@pytest.mark.parametrize("coord", ["nan", "inf", "-inf"])
def test_gauge_and_group_reject_non_finite_point(capsys, coord):
    code, _, err = run(capsys, "gauge", f"--point={coord},0,0")
    assert code == 2
    assert "finite" in err
    code, _, err = run(capsys, "group", "mul", "--a", "1,0,0", f"--b=0,{coord},0")
    assert code == 2
    assert "finite" in err


def test_gauge_and_dist_of_huge_points_are_finite_json(capsys):
    def strict_json(stdout):
        def refuse(name):
            raise ValueError(f"not JSON: {name}")
        return json.loads(stdout.strip().splitlines()[-1], parse_constant=refuse)

    code, out, err = run(capsys, "gauge", "--point", "1e300,0,0")
    assert (code, err) == (0, "")
    assert strict_json(out)["gauge"] == 1e300
    code, out, err = run(capsys, "group", "dist", "--a", "1e300,1e300,0", "--b", "-1e300,1e300,5")
    assert (code, err) == (0, "")
    assert strict_json(out)["result"] == pytest.approx(32**0.25 * 1e300)
    # a gauge past the float range itself is refused, not printed as Infinity
    code, out, err = run(capsys, "gauge", "--point", "1.5e308,1.5e308,0")
    assert code == 2
    assert out == ""
    assert "out of range" in err.lower()


def test_point_flags_take_negative_coordinates(capsys):
    code, out, _ = run(capsys, "group", "dist", "--a", "1,2,3", "--b", "-0.5,0.25,7")
    assert code == 0
    code_eq, out_eq, _ = run(capsys, "group", "dist", "--a", "1,2,3", "--b=-0.5,0.25,7")
    assert last_json(out) == last_json(out_eq)
    code, out, _ = run(capsys, "group", "mul", "--a", "-1,0,0", "--b", "0,1,0")
    assert code == 0
    assert last_json(out)["result"] == [-1.0, 1.0, 2.0]
    code, out, _ = run(capsys, "gauge", "--point", "-.5,0,0")
    assert code == 0
    assert last_json(out) == {"gauge": 0.5, "point": [-0.5, 0.0, 0.0]}
    code, _, err = run(capsys, "gauge", "--point", "-inf,0,0")
    assert code == 2
    assert "finite" in err


def test_group_mul_example(capsys):
    code, out, _ = run(capsys, "group", "mul", "--a", "1,0,0", "--b", "0,1,0")
    assert code == 0
    assert last_json(out)["result"] == [1.0, 1.0, -2.0]


def test_group_inv_and_dist(capsys):
    code, out, _ = run(capsys, "group", "inv", "--a", "0.5,-1,2")
    assert code == 0
    inv = last_json(out)["result"]
    code, out, _ = run(capsys, "group", "mul", "--a", "0.5,-1,2", "--b=" + ",".join(map(repr, inv)))
    assert last_json(out)["result"] == [0.0, 0.0, 0.0]
    code, out, _ = run(capsys, "group", "dist", "--a", "1,0,0", "--b", "1,0,0")
    assert last_json(out)["result"] == 0.0


def test_group_mul_requires_b(capsys):
    code, _, err = run(capsys, "group", "mul", "--a", "1,0,0")
    assert code == 2
    assert "--b" in err


# -- envelope ------------------------------------------------------------------


def spike_csv(path):
    vals = np.zeros((7, 7, 7))
    vals[3, 3, 3] = 1.0
    from heisvisc.fields import GridField

    write_grid_csv(GridField(1, BOX1.copy(), vals), path)


def test_envelope_writes_outputs_and_passes(capsys, tmp_path):
    src = tmp_path / "spike.csv"
    spike_csv(src)
    out_dir = tmp_path / "out"
    code, out, _ = run(
        capsys, "envelope", "--input", str(src), "--eps", "0.5",
        "--out-dir", str(out_dir), "--prefix", "spike",
    )
    assert code == 0
    assert last_json(out)["passed"] is True
    env = read_grid_csv(out_dir / "spike_envelope.csv")
    assert env.values[3, 3, 3] == 1.0
    assert (env.values >= 0.0).all()
    assert (out_dir / "spike_witness.csv").exists()
    report = json.loads((out_dir / "spike_report.json").read_text())
    assert report["passed"] is True
    assert set(report["checks"]) == {"witness_identity", "dominates_source", "semiconvex_bound"}


def test_envelope_outputs_are_deterministic(capsys, tmp_path):
    src = tmp_path / "spike.csv"
    spike_csv(src)
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        run(capsys, "envelope", "--input", str(src), "--eps", "0.25", "--out-dir", str(d))
    for name in ("field_envelope.csv", "field_witness.csv", "field_report.json"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_envelope_rejects_zero_eps(capsys, tmp_path):
    src = tmp_path / "spike.csv"
    spike_csv(src)
    code, _, err = run(
        capsys, "envelope", "--input", str(src), "--eps", "0", "--out-dir", str(tmp_path)
    )
    assert code == 2
    assert "eps" in err


@pytest.mark.parametrize("index", ["0,0,0", "3,3,-1", "9,3,3", "0,0,1,5.0,7.0,-9.0",
                                   "0,0,99999999999999999999"],
                         ids=["repeated", "negative", "too_large", "off_lattice", "past_int64"])
def test_envelope_rejects_bad_grid_index(capsys, tmp_path, index):
    src = tmp_path / "spike.csv"
    spike_csv(src)
    lines = src.read_text().splitlines()
    k = index.count(",") + 1
    lines[5] = index + "," + lines[5].split(",", k)[k]   # data row 2, node (0, 0, 1)
    src.write_text("\n".join(lines) + "\n")
    code, _, err = run(
        capsys, "envelope", "--input", str(src), "--eps", "0.5", "--out-dir", str(tmp_path)
    )
    assert code == 2
    assert "data row 2" in err


def test_envelope_rejects_grid_with_n_zero(capsys, tmp_path):
    # a one-axis grid (only t) is no Heisenberg group grid
    src = tmp_path / "n0.csv"
    src.write_text("# n=0\n# box=-1.0..1.0\n# res=3\ni1,t,value\n"
                   "0,-1.0,0.0\n1,0.0,1.0\n2,1.0,0.0\n")
    code, out, err = run(
        capsys, "envelope", "--input", str(src), "--eps", "0.5", "--out-dir", str(tmp_path)
    )
    assert code == 2
    assert out == ""
    assert "n must be at least 1" in err


def test_envelope_missing_input_is_io_error(capsys, tmp_path):
    code, _, _ = run(
        capsys, "envelope", "--input", str(tmp_path / "nope.csv"), "--eps", "0.5",
        "--out-dir", str(tmp_path),
    )
    assert code == 2


# -- problem-driven commands -----------------------------------------------------


def write_problem(tmp_path, boundary="x1", explicit=None):
    data = {
        "domain": {"n": 1, "box": [[-1.0, 1.0]] * 3},
        "resolution": [7, 7, 7],
        "operator": {"alpha": 0.0, "beta": 0.0, "gamma": 0.0, "m": 2.0},
        "cone": {"family": "trace"},
        "boundary": boundary,
    }
    if explicit is None:
        data["bracket"] = {"scale": 0.3}
    else:
        g = sample(parse_field(explicit, 1), Domain(BOX1), (7, 7, 7))
        write_grid_csv(g, tmp_path / "v.csv")
        write_grid_csv(g, tmp_path / "w.csv")
        data["sub"] = "v.csv"
        data["sup"] = "w.csv"
    p = tmp_path / "prob.json"
    p.write_text(json.dumps(data))
    return p


def test_solve_linear_problem(capsys, tmp_path):
    prob = write_problem(tmp_path)
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "solve", "--problem", str(prob), "--out-dir", str(out_dir))
    assert code == 0
    line = last_json(out)
    assert set(line) == {"passed", "gap", "out_dir"}
    assert line["passed"] is True
    report = json.loads((out_dir / "solve_report.json").read_text())
    assert set(report) == {"problem", "passed", "gap", "gap_tol", "sub", "super"}
    assert report["passed"] is True and report["gap"] == line["gap"]
    # 1e-6 of the bracket width, 2 * 0.3 at the box centre
    assert report["gap"] <= report["gap_tol"] == pytest.approx(0.6e-6)
    exact = sample(parse_field("x1", 1), Domain(BOX1), (7, 7, 7))
    for side in ("sub", "super"):
        rec = report[side]
        assert set(rec) == {"converged", "iterations", "final_residual", "held"}
        assert rec["converged"] is True
        assert rec["held"] == 0
        u = read_grid_csv(out_dir / side / "solution.csv")
        assert np.abs(u.values - exact.values).max() <= 1e-9
        lines = (out_dir / side / "residuals.csv").read_text().splitlines()
        assert lines[0] == "sweep,residual"
        assert len(lines) == rec["iterations"] + 1


def test_solve_writes_each_side_as_its_one_sided_solve(capsys, tmp_path):
    path = write_problem(tmp_path)
    out_dir = tmp_path / "out"
    assert run(capsys, "solve", "--problem", str(path), "--out-dir", str(out_dir))[0] == 0
    prob = load_problem(path)
    for side in ("sub", "super"):
        write_grid_csv(solve(prob, start=side).u, tmp_path / f"{side}.csv")
        assert ((out_dir / side / "solution.csv").read_bytes()
                == (tmp_path / f"{side}.csv").read_bytes())


def test_solve_is_deterministic(capsys, tmp_path):
    prob = write_problem(tmp_path)
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert run(capsys, "solve", "--problem", str(prob), "--out-dir", str(d))[0] == 0
    for name in ("solve_report.json", "sub/solution.csv", "sub/residuals.csv",
                 "super/solution.csv", "super/residuals.csv"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_solve_nonconvergence_exits_1(capsys, tmp_path):
    prob = write_problem(tmp_path)
    out_dir = tmp_path / "out"
    code, out, _ = run(
        capsys, "solve", "--problem", str(prob), "--out-dir", str(out_dir),
        "--max-iter", "1",
    )
    assert code == 1
    assert last_json(out)["passed"] is False
    report = json.loads((out_dir / "solve_report.json").read_text())
    assert report["passed"] is False
    for side in ("sub", "super"):
        assert report[side]["converged"] is False
        assert report[side]["iterations"] == 1
        assert (out_dir / side / "solution.csv").exists()
        assert (out_dir / side / "residuals.csv").exists()


def test_solve_has_no_start_option(capsys, tmp_path):
    prob = write_problem(tmp_path)
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--problem", str(prob), "--out-dir", str(out_dir), "--start", "sub"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --start sub" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"start": "super"}))
    code, out, err = run(capsys, "solve", "--config", str(cfg), "--problem", str(prob),
                         "--out-dir", str(out_dir))
    assert code == 2
    assert err == "error: config key 'start' is not a flag of this command\n"
    assert out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_solve_refuses_a_tolerance_it_could_never_meet(capsys, tmp_path, tol):
    prob = write_problem(tmp_path)
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, "solve", "--problem", str(prob), "--out-dir", str(out_dir),
                       f"--tol={tol}")
    assert code == 2
    assert "tol must be a positive finite number" in err
    assert not out_dir.exists()


def test_solve_refuses_a_negative_step_count(capsys, tmp_path):
    prob = write_problem(tmp_path)
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "solve", "--problem", str(prob), "--out-dir", str(out_dir),
                         "--max-iter", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: max_iter must be a non-negative number of Newton steps, got -1\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("flag", ["--tol=0", "--max-iter=-1"])
def test_refused_solve_leaves_no_output_directory(capsys, tmp_path, flag):
    prob = write_problem(tmp_path)
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "solve", "--problem", str(prob), "--out-dir", str(out_dir), flag)
    assert code == 2
    assert out == ""
    assert not out_dir.exists()


def test_solve_refuses_a_bracket_that_overflows(tmp_path):
    # exp(800) is inf, so the bracket is inf on the face x1 = 1
    data = json.loads(write_problem(tmp_path, boundary="exp(800*x1)").read_text())
    data["resolution"] = [5, 5, 5]
    p = tmp_path / "overflow.json"
    p.write_text(json.dumps(data))
    out_dir = tmp_path / "out"
    # numpy's overflow warning goes to the real stderr, which capsys does
    # not see once pytest has taken the warning, so the CLI runs on its own
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "heisvisc", "solve", "--problem", str(p),
                           "--out-dir", str(out_dir)], capture_output=True, text=True, env=env)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "error: lower bracket is not finite at node (4, 0, 0): inf\n"
    assert not out_dir.exists()


def test_solve_missing_problem_field_exits_2(capsys, tmp_path):
    data = json.loads(write_problem(tmp_path).read_text())
    del data["cone"]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    code, _, err = run(capsys, "solve", "--problem", str(p), "--out-dir", str(tmp_path))
    assert code == 2
    assert "cone" in err


def test_solve_fractional_problem_integer_exits_2(capsys, tmp_path):
    data = json.loads(write_problem(tmp_path).read_text())
    data["cone"] = {"family": "sigma_k", "k": 2.7}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    code, _, err = run(capsys, "solve", "--problem", str(p), "--out-dir", str(tmp_path))
    assert code == 2
    assert "cone.k" in err


def _set(path, value):
    """An edit of the problem JSON that sets dotted ``path`` to ``value``."""
    def edit(data):
        *outer, key = path.split(".")
        for name in outer:
            data = data[name]
        data[key] = value
    return edit


def _explicit_grids(data):
    del data["bracket"]
    data["sub"] = data["sup"] = 5


@pytest.mark.parametrize(
    "edit, path",
    [
        (_set("resolution", 5), "resolution must be a list, got 5"),
        (_set("resolution", None), "resolution must be a list, got None"),
        (_set("boundary", 5), "boundary must be a string, got 5"),
        (_set("cone", {"family": "spectral", "g": 5}), "cone.g must be a string, got 5"),
        (_set("operator", 5), "operator must be an object, got 5"),
        (_explicit_grids, "sub must be a string, got 5"),
        (_set("operator.alpha", 10**400), "operator.alpha must be a finite number"),
        (_set("operator.m", float("nan")), "operator.m must be a finite number, got nan"),
        (_set("operator.m", float("inf")), "operator.m must be a finite number, got inf"),
        (_set("operator.alpha", float("nan")), "operator.alpha must be a finite number"),
        (_set("operator.beta", float("inf")), "operator.beta must be a finite number"),
        (_set("operator.alpha", "0.1*x1"),
         "operator.alpha must be a finite number (the solver path requires constant"),
        (_set("cone", {"family": "sigmak"}), "cone.family must be one of"),
        (_set("boundary", "x1 + z"), "boundary: unknown identifier 'z'"),
        (_set("cone", {"family": "spectral", "g": "l1 +"}), "cone.g: expected an operand"),
        (_set("cone", {"family": "spectral", "g": "l1 + l3"}), "cone.g: unknown identifier 'l3'"),
        (_set("cone", {"family": "spectral"}), "cone.g must be given for the spectral family"),
    ],
    ids=["resolution_number", "resolution_null", "boundary_number", "cone_g_number",
         "operator_number", "sub_sup_numbers", "alpha_past_float_range", "m_nan", "m_inf",
         "alpha_nan", "beta_inf", "alpha_expression", "cone_family_unknown",
         "boundary_unparsable", "cone_g_unparsable", "cone_g_past_d", "cone_g_missing"],
)
def test_malformed_problem_exits_2_naming_its_path(capsys, tmp_path, edit, path):
    data = json.loads(write_problem(tmp_path).read_text())
    edit(data)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))   # NaN and Infinity as the JSON literals
    code, out, err = run(capsys, "classify", "--problem", str(p), "--out-dir", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: problem JSON: {path}")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_classify_on_boundary_solution_passes(capsys, tmp_path):
    prob = write_problem(tmp_path, explicit="x1")
    out_dir = tmp_path / "cls"
    code, out, _ = run(capsys, "classify", "--problem", str(prob), "--out-dir", str(out_dir))
    assert code == 0
    report = json.loads((out_dir / "classify_report.json").read_text())
    assert report["passed"] is True
    assert report["sides"]["sub"]["counts"].get("OnBoundary", 0) == 5**3
    assert (out_dir / "sub_classification.csv").exists()
    assert (out_dir / "sup_classification.csv").exists()


def test_classify_violating_sub_exits_1(capsys, tmp_path):
    expr = "0.0 - x1*x1 - y1*y1 - t*t"
    prob = write_problem(tmp_path, boundary=expr, explicit=expr)
    code, out, _ = run(
        capsys, "classify", "--problem", str(prob), "--out-dir", str(tmp_path / "cls")
    )
    assert code == 1
    assert last_json(out)["passed"] is False


def test_compare_bracket_pair_consistent(capsys, tmp_path):
    prob = write_problem(tmp_path)
    code, out, _ = run(capsys, "compare", "--problem", str(prob))
    assert code == 0
    rep = last_json(out)
    assert set(rep) == {"boundary_gap", "touching_count", "components", "verdict"}
    assert rep["verdict"] == "CONSISTENT"


# -- check ---------------------------------------------------------------------


def test_check_core_suite_passes(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "check", "--suite", "core", "--seed", "42", "--count", "500",
        "--report", str(report_path),
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] is True
    assert rep["suite"] == "core"
    assert rep["seed"] == 42
    assert report_path.read_text() == out


@pytest.mark.parametrize("suite", ["core", "calculus", "lemma35", "envelopes", "all"])
@pytest.mark.parametrize("count", ["0", "-5"])
def test_check_refuses_count_below_one(capsys, suite, count):
    code, out, err = run(capsys, "check", "--suite", suite, "--count", count)
    assert code == 2
    assert out == ""
    assert f"count must be at least 1, got {count}" in err


@pytest.mark.parametrize("suite", ["core", "cones", "structural", "envelopes", "all"])
def test_check_refuses_a_negative_seed(capsys, suite):
    code, out, err = run(capsys, "check", "--suite", suite, "--seed", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: seed must be a non-negative integer, got -1\n"


def test_check_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--suite", "nosuch"])
    assert exc.value.code == 2


def test_check_tampered_cone_fails_with_witness(capsys):
    code, out, _ = run(
        capsys, "check", "--suite", "cones", "--seed", "42", "--count", "300", "--tamper"
    )
    assert code == 1
    rep = json.loads(out)
    assert rep["passed"] is False
    trace = next(c for c in rep["checks"] if c["name"] == "axioms_trace")
    assert trace["passed"] is False
    assert trace["detail"]["witness"] is not None


# -- config file -----------------------------------------------------------------


def test_config_supplies_defaults_and_flags_win(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"point": "0,0,4", "n": 1}))
    code, out, _ = run(capsys, "gauge", "--config", str(cfg), "--point", "0,0,1")
    assert code == 0
    assert last_json(out)["gauge"] == 1.0

    cfg.write_text(json.dumps({"seed": 13, "count": 200}))
    code, out, _ = run(capsys, "check", "--suite", "core", "--config", str(cfg))
    assert code == 0
    rep = json.loads(out)
    assert rep["seed"] == 13
    assert rep["checks"][0]["checked"] == 200


def test_config_supplies_required_flags(capsys, tmp_path):
    src = tmp_path / "spike.csv"
    spike_csv(src)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": str(src), "eps": 0.25, "out-dir": str(tmp_path / "out")}))
    code, out, err = run(capsys, "envelope", "--config", str(cfg))
    assert code == 0, err
    report = json.loads((tmp_path / "out" / "field_report.json").read_text())
    assert report["eps"] == 0.25
    assert report["passed"] is True


def test_abbreviated_flag_beats_config(capsys, tmp_path):
    src = tmp_path / "spike.csv"
    spike_csv(src)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eps": 5.0}))
    code, _, err = run(capsys, "envelope", "--config", str(cfg), "--input", str(src),
                       "--ep", "0.5", "--out-dir", str(tmp_path))
    assert code == 0, err
    assert json.loads((tmp_path / "field_report.json").read_text())["eps"] == 0.5


def test_config_rejects_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"wat": 1}))
    code, _, err = run(capsys, "gauge", "--config", str(cfg), "--point", "0,0,1")
    assert code == 2
    assert "wat" in err


def test_config_rejects_positional_key(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"op": "inv"}))
    code, out, err = run(capsys, "group", "mul", "--config", str(cfg),
                         "--a", "1,0,0", "--b", "0,1,0")
    assert code == 2
    assert "'op'" in err
    assert out == ""


def test_config_value_must_be_a_choice(capsys, tmp_path):
    src = tmp_path / "spike.csv"
    spike_csv(src)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "sideways"}))
    code, out, err = run(capsys, "envelope", "--config", str(cfg), "--input", str(src),
                         "--eps", "0.5", "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert "'sideways' is not one of 'upper', 'lower'" in err
    assert not (tmp_path / "out").exists()


def test_config_that_is_not_json_names_the_file(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{seed: 3}")
    code, out, err = run(capsys, "check", "--suite", "core", "--config", str(cfg))
    assert code == 2
    assert err.startswith(f"error: config file: {cfg} is not valid JSON (Expecting property")
    assert out == ""


@pytest.mark.parametrize(
    "config, message",
    [
        ({"seed": "many"}, "config key 'seed': invalid value 'many'"),
        ({"seed": 2.5}, "config key 'seed': invalid value 2.5"),
        ({"count": None}, "config key 'count' must be a string or a number"),
        ({"tamper": "yes"}, "config key 'tamper' must be true or false"),
    ],
    ids=["word_for_int", "fraction_for_int", "null", "switch"],
)
def test_config_values_pass_flag_type_checks(capsys, config, message, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, "check", "--suite", "core", "--config", str(cfg))
    assert code == 2
    assert message in err
    assert out == ""
