"""Acceptance gate: fourteen numbered end-to-end checks, one test and one
printed PASS/FAIL line each.

The numbered tests pin the package-level guarantees: randomized algebra
and calculus identities at fixed tolerances, the structural and cone
gates with their deliberate negative controls, envelope fixtures against
byte-stable golden files, the perturbation and envelope-shift
certificates, solver exactness/order/uniqueness on the linear and
translated-pole harmonic families, the touching harness verdicts, and
byte-identical repeated suite runs.
"""

import math

import numpy as np
import pytest

from heisvisc import cli
from heisvisc.comparison import touching_harness
from heisvisc.cones import ConeSpec
from heisvisc.envelopes import lower_envelope, upper_envelope
from heisvisc.fields import Domain, GridField, parse_field, sample
from heisvisc.gridio import write_grid_csv, write_witness_csv
from heisvisc.operators import OperatorSpec
from heisvisc.perron import Problem, bracket_from_boundary, solve, uniqueness_gap
from heisvisc.suites import run_suite
from heisvisc.viscosity import key_lemma_certificate

from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"
BOX1 = np.array([[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]])
DOM = Domain(BOX1)
ZERO = OperatorSpec(0.0, 0.0, 0.0)
TRACE = ConeSpec("trace")
SEED = 42

# pole at (2.5, 0, 0), outside the closed box; the field is the inverse
# square of the left-translated gauge, smooth and harmonic on the box
HARMONIC_EXPR = "exp(-0.5*log((((x1 - 2.5)^2 + y1^2))^2 + (t + 5.0*y1)^2))"
RESOLUTIONS = (11, 21, 41)


def _line(num, label, ok, detail=""):
    print(f"[{num:02d}] {label}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"[{num:02d}] {label}: {detail}"


def _solve_family(expr):
    g = parse_field(expr, 1)
    out = {}
    for r in RESOLUTIONS:
        res = (r, r, r)
        v, w = bracket_from_boundary(g, DOM, res, 0.3)
        prob = Problem(ZERO, TRACE, g, v, w)
        out[r] = (prob, solve(prob), sample(g, DOM, res))
    return out


@pytest.fixture(scope="module")
def linear_family():
    return _solve_family("x1")


@pytest.fixture(scope="module")
def harmonic_family():
    return _solve_family(HARMONIC_EXPR)


@pytest.fixture(scope="module")
def calculus_report():
    return run_suite("calculus", SEED, count=100)


def test_01_group_and_gauge_algebra():
    rep = run_suite("core", SEED, count=10000)
    worst = max(c.error for c in rep.checks)
    ok = rep.passed and all(c.checked == 10000 and c.tol == 1e-12 for c in rep.checks)
    _line(1, "group/gauge identities, 1e4 samples each, tol 1e-12", ok,
          f"worst error {worst:.3e}")


def test_02_frame_hessian_antisymmetry(calculus_report):
    c = calculus_report.check("hessian_commutator")
    ok = c.passed and c.checked >= 100 and c.tol == 1e-10
    _line(2, "frame Hessian antisymmetric part = 4 u_t J on 100 polynomials", ok,
          f"residual {c.error:.3e}")


def test_03_gauge_harmonic_trace(calculus_report):
    c = calculus_report.check("gauge_harmonic_trace")
    ok = c.passed and c.checked >= 1000 and c.tol == 1e-6
    _line(3, "inverse-square gauge field is trace-harmonic at 1e3 points", ok,
          f"residual {c.error:.3e}")


def test_04_conformal_change_of_variables(calculus_report):
    c = calculus_report.check("conformal_change_of_variables")
    ok = c.passed and c.checked >= 100 and c.tol == 1e-8
    _line(4, "conformal substitution identity on 100 random fields", ok,
          f"residual {c.error:.3e}")


def test_05_structural_gate_with_negative_control():
    rep = run_suite("structural", SEED, count=10000)
    good = rep.check("distinguished_spec_passes")
    bad = rep.check("falling_coefficient_detected")
    ok = (
        good.passed and good.checked == 10000 and good.error == 0.0
        and bad.passed and bad.detail["witness"] is not None
    )
    _line(5, "structural gate: distinguished spec clean at 1e4, falling spec caught", ok,
          f"branch {good.detail['branch']}, caught {bad.detail['failing_conditions']}")


def test_06_cone_axioms_with_non_cone_control():
    rep = run_suite("cones", SEED, count=10000)
    families = [rep.check(f"axioms_{n}") for n in ("trace", "posdef", "sigma_1", "sigma_2")]
    control = rep.check("non_cone_detected")
    ok = (
        all(c.passed for c in families)
        and all(c.checked >= 10000 for c in families)
        and control.passed and control.detail["witness"] is not None
    )
    _line(6, "cone axioms at 1e4 triples x 4 families, shifted trace rejected", ok,
          f"violations {[c.error for c in families]}")


def test_07_envelope_fixtures_and_goldens(tmp_path):
    rep = run_suite("envelopes", 0)
    violations = sum(c.error for c in rep.checks)

    constant = GridField(1, BOX1.copy(), np.full((7, 7, 7), 0.75))
    spike_vals = np.zeros((9, 9, 9))
    spike_vals[4, 4, 4] = 1.0
    spike = GridField(1, BOX1.copy(), spike_vals)
    write_grid_csv(upper_envelope(constant, 0.5).out, tmp_path / "constant_upper_envelope.csv")
    write_grid_csv(lower_envelope(constant, 0.5).out, tmp_path / "constant_lower_envelope.csv")
    write_grid_csv(upper_envelope(spike, 0.5).out, tmp_path / "spike_upper_envelope.csv")
    write_witness_csv(upper_envelope(spike, 0.5), tmp_path / "spike_upper_witness.csv")
    stale = [path.name for path in sorted(tmp_path.iterdir())
             if (GOLDEN / path.name).read_bytes() != path.read_bytes()]
    ok = rep.passed and violations == 0.0 and not stale
    _line(7, "envelope fixtures clean, golden files byte-stable", ok,
          f"violations {violations:g}, stale {stale}")


def test_08_perturbation_gain_certificates():
    rep = run_suite("lemma35", SEED, count=400)
    ok = rep.passed and all(
        c.detail["k0_max"] > 0.0 and c.error <= 1e-8 for c in rep.checks
    )
    couplings = {c.name: round(c.detail["k0_max"], 4) for c in rep.checks}
    _line(8, "strict-perturbation gain holds with positive coupling, both directions", ok,
          f"k0_max {couplings}")


def test_09_envelope_shift_certificate():
    w = sample(parse_field("0.0 - (x1*x1 + y1*y1 + t*t)", 1), DOM, (17, 17, 17))
    details = []
    ok = True
    for eps in (0.5, 0.25):
        rep = key_lemma_certificate(w, eps, ZERO, TRACE, mode="super")
        ok = ok and rep.passed and rep.interior_failures == 0 and rep.coverage >= 0.99
        details.append(f"eps {eps}: coverage {rep.coverage:.4f}, min_a {rep.min_a:.1f}")
    _line(9, "envelope-shift certificate at a=1000, failures confined to collar", ok,
          "; ".join(details))


def test_10_solver_exact_on_linear_data(linear_family):
    errs = {}
    ok = True
    for r, (prob, sol, exact) in linear_family.items():
        errs[r] = float(np.abs(sol.u.values - exact.values).max())
        ok = ok and sol.converged and errs[r] <= 1e-9
    _line(10, "solver reproduces linear data to 1e-9 at 11/21/41 cubed", ok,
          f"errors {({r: f'{e:.2e}' for r, e in errs.items()})}")


def test_11_solver_convergence_order(harmonic_family):
    inner = (slice(1, -1),) * 3
    errs = []
    converged = True
    for r in RESOLUTIONS:
        prob, sol, exact = harmonic_family[r]
        converged = converged and sol.converged
        errs.append(float(np.abs(sol.u.values[inner] - exact.values[inner]).max()))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    ok = converged and min(orders) >= 1.5
    _line(11, "interior error order >= 1.5 on the translated-pole harmonic field", ok,
          f"errors {[f'{e:.2e}' for e in errs]}, orders {[f'{o:.2f}' for o in orders]}")


def test_12_two_sided_uniqueness_gap(linear_family, harmonic_family):
    details = []
    ok = True
    for name, family in (("linear", linear_family), ("harmonic", harmonic_family)):
        prob = family[21][0]
        rep = uniqueness_gap(prob)
        ok = ok and rep.passed and rep.gap <= rep.tol
        details.append(f"{name} gap {rep.gap:.2e} (tol {rep.tol:.2e})")
    _line(12, "ascend/descend solutions agree within 1e-6 of the bracket width", ok,
          "; ".join(details))


def test_13_touching_harness_verdicts():
    v = sample(parse_field("x1", 1), DOM, (9, 9, 9))
    w_above = GridField(1, BOX1.copy(), v.values + 1.0)
    gap = touching_harness(w_above, v, ZERO, TRACE)
    equal = touching_harness(v.copy(), v, ZERO, TRACE)
    ok = (
        gap.verdict == "CONSISTENT" and gap.boundary_gap > 0.0
        and equal.verdict == "CONSISTENT"
        and equal.touching_count == 9**3
        and all(c.touches_boundary for c in equal.components)
    )
    _line(13, "touching verdicts: strict gap consistent, full contact reaches the boundary",
          ok, f"gap components {len(gap.components)}, equal components {len(equal.components)}")


def test_14_repeated_check_runs_byte_identical(capsys):
    code_a = cli.main(["check", "--suite", "all", "--seed", "42"])
    out_a = capsys.readouterr().out
    code_b = cli.main(["check", "--suite", "all", "--seed", "42"])
    out_b = capsys.readouterr().out
    ok = code_a == 0 and code_b == 0 and out_a == out_b and len(out_a) > 0
    _line(14, "check --suite all --seed 42 is byte-identical across runs", ok,
          f"{len(out_a)} bytes")
