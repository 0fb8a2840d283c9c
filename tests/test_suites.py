"""Direct checks of the packaged verification suites (the CLI tests cover
the same code through the `check` command)."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from heisvisc import suites
from heisvisc.fields import (Add, AnalyticField, Const, Mul, Neg, Var, coordinate_names, exp_of,
                             parse_field)
from heisvisc.operators import (OperatorSpec, conformal_operator_spec, contract, eval_F,
                                gradient_term)
from heisvisc.rng import stream
from heisvisc.suites import SUITE_NAMES, report_json, run_suite

GOLDEN = Path(__file__).parent / "golden"


def test_unknown_suite_raises():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("bogus", 1)


def test_count_below_one_raises():
    for name in SUITE_NAMES:
        with pytest.raises(ValueError, match="count must be at least 1"):
            run_suite(name, 1, count=0)


def test_calculus_suite_at_small_counts():
    # at count 1 the commutator check draws no n = 2 polynomial
    rep = run_suite("calculus", 3, count=1)
    assert rep.passed
    assert [c.checked for c in rep.checks[:2]] == [1, 10]


def test_calculus_checks_look_at_something_at_count_one():
    rep = run_suite("calculus", 3, count=1)
    assert all(c.checked >= 1 for c in rep.checks), [(c.name, c.checked) for c in rep.checks]


def test_suite_names_cover_dispatch():
    assert set(SUITE_NAMES) == {
        "core", "calculus", "cones", "envelopes", "structural",
        "lemma35", "keylemma", "all",
    }


def test_structural_suite_detects_falling_coefficient():
    rep = run_suite("structural", 3, count=300)
    assert rep.passed
    caught = rep.check("falling_coefficient_detected")
    assert caught.passed
    assert caught.detail["failing_conditions"]
    assert caught.detail["witness"] is not None


def test_lemma35_suite_reports_positive_couplings():
    rep = run_suite("lemma35", 5, count=120)
    assert rep.passed
    for c in rep.checks:
        assert c.detail["k0_max"] > 0.0


def test_keylemma_suite_certificate_details():
    rep = run_suite("keylemma", 0)
    assert rep.passed
    for c in rep.checks:
        assert c.detail["min_a"] is not None and c.detail["min_a"] < 1000.0


def test_all_suite_prefixes_check_names():
    rep = run_suite("all", 9, count=40)
    assert rep.suite == "all"
    assert rep.passed
    prefixes = {c.name.split(".")[0] for c in rep.checks}
    assert prefixes == set(SUITE_NAMES) - {"all"}
    assert report_json(rep).startswith("{")


def test_tampered_cones_suite_fails():
    rep = run_suite("cones", 11, count=200, tamper=True)
    assert not rep.passed
    assert not rep.check("axioms_trace").passed
    assert rep.check("non_cone_detected").passed


@pytest.mark.parametrize(
    "suite, seed, tamper, golden",
    [
        ("cones", 42, False, "check_cones_seed42.json"),
        ("cones", 42, True, "check_cones_seed42_tamper.json"),
        ("structural", 42, False, "check_structural_seed42.json"),
        ("keylemma", 0, False, "check_keylemma_seed0.json"),
        ("calculus", 42, False, "check_calculus_seed42.json"),
        ("lemma35", 42, False, "check_lemma35_seed42.json"),
    ],
    ids=["plain", "tamper", "structural", "keylemma", "calculus", "lemma35"],
)
def test_cones_report_matches_golden(suite, seed, tamper, golden):
    # byte for byte: the cones cases pin the axiom sampler's draw order, the
    # structural and keylemma cases the gradient term L and the grid
    # operator that feed their margins (both get their spectra from the
    # closed form at d = 2, so the files do not depend on LAPACK), the
    # calculus case the polynomial draws and the exact jets, and the lemma35
    # case the margin pencil and its bisection
    expected = (GOLDEN / golden).read_bytes()
    text = report_json(run_suite(suite, seed, tamper=tamper))
    assert text.encode() == expected


def _choice_polynomial_text(gen, n, degree=3, terms=8):
    """The polynomial text as the calculus suite drew it with ``gen.choice``."""
    names = coordinate_names(n)
    parts = ["%.6f" % gen.uniform(-1, 1)]
    for _ in range(terms):
        deg = int(gen.integers(1, degree + 1))
        mono = "*".join(gen.choice(names) for _ in range(deg))
        parts.append("%.6f*%s" % (gen.uniform(-1, 1), mono))
    return " + ".join(parts)


def _polynomial_trees(poly, n):
    """The trees parse_field builds of the drawn polynomials' texts: a Const
    coefficient, or Neg(Const) for a negative one, a left-nested Mul per
    term and a left-nested Add."""
    names = coordinate_names(n)
    coef, deg, factors = poly

    def coefficient(c):
        return Neg(Const(-c)) if math.copysign(1.0, c) < 0 else Const(c)

    trees = []
    for p in range(len(coef)):
        root = coefficient(coef[p, 0])
        for k in range(deg.shape[1]):
            term = coefficient(coef[p, k + 1])
            for a in factors[p, k, :deg[p, k]]:
                term = Mul(term, Var(names[a]))
            root = Add(root, term)
        trees.append(AnalyticField(root, n))
    return trees


def test_coefficient_draw_is_what_uniform_drew():
    # the polynomials' coefficients are drawn as -1 + 2 * random(), which is
    # how uniform(-1, 1) draws; the generators end in the same state
    gen, ref = stream(5, stream_id=21), stream(5, stream_id=21)
    drawn = np.array([-1.0 + 2.0 * gen.random() for _ in range(10_000)])
    want = np.array([ref.uniform(-1, 1) for _ in range(10_000)])
    assert drawn.tobytes() == want.tobytes()
    state = [json.dumps(g.bit_generator.state, default=np.ndarray.tolist) for g in (gen, ref)]
    assert state[0] == state[1]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("degree", [2, 3])
def test_random_polynomial_draws_what_choice_drew(n, degree):
    # the suite's draws, rebuilt as trees, against the parse of the
    # gen.choice texts node for node, and its points against the points
    # drawn after them; the next draw shows both consumed the same stretch
    # of the stream
    for seed in range(20):
        gen, ref = stream(seed, stream_id=21), stream(seed, stream_id=21)
        poly, points = suites._random_polynomials(gen, n, 3, 1.5, degree)
        for tree, point in zip(_polynomial_trees(poly, n), points, strict=True):
            assert tree == parse_field(_choice_polynomial_text(ref, n, degree=degree), n)
            assert point.tobytes() == ref.uniform(-1.5, 1.5, size=2 * n + 1).tobytes()
        assert gen.random() == ref.random()


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("degree", [2, 3])
@pytest.mark.parametrize("count", [1, 2, 7, 67])
def test_polynomial_jets_have_the_bits_of_tree_walks(n, degree, count):
    # the reference is the walk the suite no longer makes: each parsed
    # gen.choice text's jets at its own point, stacked on the last axis;
    # bytes, so signed zeros count
    for seed in range(20):
        poly, points = suites._random_polynomials(stream(seed, stream_id=21), n, count, 1.5,
                                                  degree)
        ref = stream(seed, stream_id=21)
        walks = []
        for _ in range(count):
            psi = parse_field(_choice_polynomial_text(ref, n, degree=degree), n)
            walks.append(psi.jets(ref.uniform(-1.5, 1.5, size=2 * n + 1)))
        got = suites._polynomial_jets(poly, points)
        for part, want in zip(got, zip(*walks), strict=True):
            want = np.stack(want, axis=-1)
            assert part.shape == want.shape and part.tobytes() == want.tobytes(), seed


def _pointwise_A_u(u, coords):
    """A^u at one point as eval_A_u computed it from a field: u's value is a
    numpy scalar, so its powers are scalar powers."""
    value, grad, H = u.jets(coords)
    q2 = 2.0 * u.n
    Q = q2 + 2.0
    hess, g = contract(OperatorSpec(), coords, value, H, grad)
    L = gradient_term(
        OperatorSpec(alpha=2.0 * Q / q2**2, beta=2.0 / q2**2, gamma=4.0 / q2**2), coords, value, g
    )
    return (-(2.0 / q2) * value ** (-(Q + 2.0) / q2)) * np.array(hess) + \
        value ** (-2.0 * Q / q2) * np.array(L)


def _pointwise_conformal_error(seed, count):
    """The conformal check one field and one point at a time, the u tree
    walked whole, on the parsed gen.choice texts."""
    worst = 0.0
    gen = stream(seed, stream_id=23)
    per_n = max(1, count // 2)
    for n in (1, 2):
        Q = 2 * n + 2
        for _ in range(per_n):
            psi = parse_field(_choice_polynomial_text(gen, n, degree=2), n)
            u = AnalyticField(exp_of(Const(-(Q - 2.0) / 2.0) * psi.root), n)
            coords = gen.uniform(-0.8, 0.8, size=2 * n + 1)
            lhs = _pointwise_A_u(u, coords)
            rhs = np.exp(2.0 * psi(coords)) * eval_F(conformal_operator_spec(), psi, coords)[0]
            scale = 1.0 + float(np.abs(rhs).max())
            worst = max(worst, float(np.abs(lhs - rhs).max()) / scale)
    return worst


@pytest.mark.parametrize("count", [1, 2, 7, 100])
def test_batched_conformal_check_matches_pointwise_bits(count):
    # at count 100, seeds 4, 9 and 123 move (123: 9.108e-16 to 6.965e-16)
    # when u's powers are numpy array powers instead of scalar ones
    for seed in [*range(10), 123]:
        rep = run_suite("calculus", seed, count=count)
        got = rep.check("conformal_change_of_variables").error
        assert got == _pointwise_conformal_error(seed, count), seed
