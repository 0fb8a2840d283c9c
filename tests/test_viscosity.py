"""Tests for grid classification and the envelope-shift certificate."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import ndimage

from heisvisc.cones import ConeSpec, entries, newton_values
from heisvisc.fields import Domain, GridField, parse_field, sample
from heisvisc.operators import OperatorSpec, conformal_operator_spec, eval_F
from heisvisc.rng import stream
from heisvisc.viscosity import (
    TAG_NAMES,
    GridOperator,
    _untestable_mask,
    classify_grid,
    key_lemma_certificate,
)

BOX = Domain(np.array([[-1.0, 1.0]] * 3))
TRACE = ConeSpec("trace")
ZERO_SPEC = OperatorSpec()


def grid_of(text, res=9):
    return sample(parse_field(text, 1), BOX, res)


def tags_of_testable(cls):
    """Names of the tags a classification gives its testable nodes."""
    return {TAG_NAMES[c] for c in np.unique(cls.tags)} - {"Untestable"}


# -- classify_grid ---------------------------------------------------------------


def test_constant_field_is_on_boundary_for_any_spec():
    g = GridField(1, BOX.box, np.full((7, 7, 7), 3.25))
    for spec in (ZERO_SPEC, conformal_operator_spec()):
        for side in ("sub", "super"):
            cls = classify_grid(g, spec, TRACE, side)
            assert cls.count("OnBoundary") == 5 * 5 * 5
            assert cls.count("Untestable") == 7**3 - 5**3
            assert tags_of_testable(cls) == {"OnBoundary"}


def test_linear_field_is_on_boundary_for_zero_spec():
    for side in ("sub", "super"):
        cls = classify_grid(grid_of("x1"), ZERO_SPEC, TRACE, side)
        assert tags_of_testable(cls) == {"OnBoundary"}
        assert abs(cls.worst["OnBoundary"]["rho"]) < 1e-12


def test_square_norm_fields_classify_strictly():
    up = classify_grid(grid_of("x1*x1 + y1*y1 + t*t"), ZERO_SPEC, TRACE, "sub")
    assert tags_of_testable(up) == {"SubOK"}
    down = classify_grid(grid_of("0.0 - (x1*x1 + y1*y1 + t*t)"), ZERO_SPEC, TRACE, "super")
    assert tags_of_testable(down) == {"SuperOK"}
    # the other side's view names the same nodes as violations
    sup_view = classify_grid(grid_of("x1*x1 + y1*y1 + t*t"), ZERO_SPEC, TRACE, "super")
    assert tags_of_testable(sup_view) == {"SuperViolated"}
    sub_view = classify_grid(
        grid_of("0.0 - (x1*x1 + y1*y1 + t*t)"), ZERO_SPEC, TRACE, "sub"
    )
    assert tags_of_testable(sub_view) == {"SubViolated"}


def test_negation_duality_on_trace_cone():
    g = grid_of("x1*x1 + y1*y1 + t*t")
    sub = classify_grid(g, ZERO_SPEC, TRACE, side="sub")
    assert tags_of_testable(sub) == {"SubOK"}
    neg = GridField(g.n, g.box, -g.values)
    sup = classify_grid(neg, ZERO_SPEC, TRACE, side="super")
    assert tags_of_testable(sup) == {"SuperOK"}


def test_grid_verdict_matches_exact_jets_on_quadratics():
    # FD jets are exact on quadratics, so the grid verdict must coincide with
    # the classical pointwise classification
    gen = stream(61)
    names = ["x1", "y1", "t"]
    terms = ["%.4f" % gen.uniform(-1, 1)]
    for i in range(3):
        terms.append("%.4f*%s" % (gen.uniform(-1, 1), names[i]))
        for j in range(i, 3):
            terms.append("%.4f*%s*%s" % (gen.uniform(-1, 1), names[i], names[j]))
    f = parse_field(" + ".join(terms), 1)
    g = sample(f, BOX, 7)
    spec = conformal_operator_spec()
    cone = ConeSpec("posdef")
    nodes = [(1, 1, 1), (3, 2, 4), (5, 5, 5), (2, 4, 3)]
    coords = g.coords_full()[tuple(np.array(nodes).T)]
    rho_exact = newton_values(cone, entries(eval_F(spec, f, coords)[0]))[0]
    for side in ("sub", "super"):
        cls = classify_grid(g, spec, cone, side)
        for node, rho in zip(nodes, rho_exact):
            assert cls.rho[node] == pytest.approx(rho, abs=1e-9)


def random_quadratic(gen, n):
    names = [f"x{i}" for i in range(1, n + 1)] + [f"y{i}" for i in range(1, n + 1)] + ["t"]
    terms = ["%.4f" % gen.uniform(-1, 1)]
    for i, a in enumerate(names):
        terms.append("%.4f*%s" % (gen.uniform(-1, 1), a))
        for b in names[i:]:
            terms.append("%.4f*%s*%s" % (gen.uniform(-1, 1), a, b))
    return parse_field(" + ".join(terms), n)


@pytest.mark.parametrize("n, res", [(1, 7), (2, 5)], ids=["n1", "n2"])
@pytest.mark.parametrize("coefficients", ["zero", "conformal", "field"])
def test_grid_operator_matches_exact_frame_calculus(n, res, coefficients):
    # FD jets are exact on quadratics, so the grid's F and p must equal F
    # from the field's exact jets at every interior node
    spec = {
        "zero": ZERO_SPEC,
        "conformal": conformal_operator_spec(),
        "field": OperatorSpec(
            alpha=parse_field("0.5 + 0.1*x1*s", n, extra_vars=("s",)), beta=0.25, gamma=0.5
        ),
    }[coefficients]
    f = random_quadratic(stream(62, n), n)
    g = sample(f, Domain(np.array([[-1.0, 1.0]] * (2 * n + 1))), res)
    op = GridOperator(g, spec, TRACE, gradient=True)
    F, p = op(g.values)
    m = 2 * n
    exact_F, exact_p = eval_F(spec, f, op.coords)
    for at in np.ndindex(op.shape):
        exact = exact_F[at]
        got = np.array([[F[i][j][at] for j in range(m)] for i in range(m)])
        np.testing.assert_allclose(got, exact, rtol=0, atol=1e-10 * (1 + np.abs(exact).max()))
        np.testing.assert_allclose([q[at] for q in p], exact_p[at], rtol=0, atol=1e-12)


def test_kink_nodes_are_untestable():
    g = sample(parse_field("min(x1, y1)", 1), BOX, 9)
    assert g.jet_invalid is not None
    cls = classify_grid(g, ZERO_SPEC, TRACE, "sub")
    # the diagonal sheet x1 == y1 and its one-cell dilation must be masked
    assert cls.count("Untestable") > 9**3 - 7**3
    assert np.isnan(cls.rho[4, 4, 4])
    total = sum(cls.counts.values())
    assert total == 9**3


@pytest.mark.parametrize("d", [3, 5])
def test_kink_flags_grow_to_their_jet_cubes(d):
    rng = stream(12, d)
    flags = [np.zeros((2,) * d, dtype=bool), np.ones((3,) * d, dtype=bool)]
    for _ in range(40):
        shape = tuple(rng.integers(2, 8 if d == 3 else 5, size=d))
        flags.append(rng.random(shape) < rng.uniform(0.01, 0.3))
    cube = np.ones((3,) * d, dtype=bool)
    for flag in flags:
        # no boundary ring, so the growth is seen on the lattice's edges too
        g = SimpleNamespace(jet_invalid=flag, boundary_mask=lambda: np.zeros(flag.shape, bool))
        expected = ndimage.binary_dilation(flag, structure=cube)
        np.testing.assert_array_equal(_untestable_mask(g), expected)


def test_classification_bookkeeping():
    for side in ("sub", "super"):
        cls = classify_grid(grid_of("x1*x1"), ZERO_SPEC, TRACE, side)
        assert set(cls.counts) <= set(TAG_NAMES)
        assert cls.tags.size - cls.count("Untestable") == 7**3
        assert sum(cls.counts.values()) == 9**3
    for side in ("both", "everything"):
        with pytest.raises(ValueError, match="side must be 'sub' or 'super'"):
            classify_grid(grid_of("x1"), ZERO_SPEC, TRACE, side)


# -- key lemma certificate ----------------------------------------------------------


@pytest.fixture(scope="module")
def quadratic_supersolution():
    return sample(parse_field("0.0 - (x1*x1 + y1*y1 + t*t)", 1), BOX, 17)


def test_certificate_constant_field():
    g = GridField(1, BOX.box, np.full((9, 9, 9), 2.0))
    rep = key_lemma_certificate(g, 0.5, ZERO_SPEC, TRACE, a=0.0, M=10.0, mode="super")
    assert rep.passed
    assert rep.min_a == 0.0
    assert rep.coverage == 1.0
    assert rep.failures == 0


# bisection minima for the quadratic supersolution fixture at 17^3; frozen
# regression values
PINNED_MIN_A = {0.5: 102.97160912893672, 0.25: 194.48893075311426}


@pytest.mark.parametrize("eps", [0.5, 0.25])
def test_certificate_quadratic_fixture(quadratic_supersolution, eps):
    rep = key_lemma_certificate(
        quadratic_supersolution, eps, ZERO_SPEC, TRACE, a=1000.0, M=10.0, mode="super"
    )
    assert rep.passed
    assert rep.interior_failures == 0
    assert rep.failures == rep.collar_failures
    assert rep.coverage >= 0.99
    assert rep.min_a == pytest.approx(PINNED_MIN_A[eps], rel=1e-6)


def test_certificate_monotone_in_a(quadratic_supersolution):
    reports = [
        key_lemma_certificate(
            quadratic_supersolution, 0.5, ZERO_SPEC, TRACE, a=a, M=10.0, mode="super"
        )
        for a in (50.0, 200.0, 800.0)
    ]
    covers = [r.coverage for r in reports]
    assert covers == sorted(covers)
    fails = [r.failures for r in reports]
    assert fails == sorted(fails, reverse=True)
    # the bisection minimum does not depend on where the doubling search starts
    for r in reports:
        assert r.min_a == pytest.approx(PINNED_MIN_A[0.5], rel=1e-6)


def test_certificate_reports_with_collar_failures_are_pinned():
    # every field, exactly, of two certificates whose collar fails at the
    # given a; the bisection decides on the body nodes alone, so neither
    # min_a nor anything else may move when it stops looking at the collar
    quadratic = sample(parse_field("0.0 - (x1*x1 + y1*y1 + t*t)", 1), BOX, 13)
    rep = key_lemma_certificate(quadratic, 0.25, ZERO_SPEC, TRACE, a=20.0, M=10.0)
    assert dataclasses.asdict(rep) == {
        "mode": "super", "eps": 0.25, "a": 20.0, "passed": True,
        "min_a": 11.970415194206835, "testable": 1331, "excluded_bound": 0,
        "coverage": 0.9218632607062359, "failures": 104, "collar_failures": 104,
        "interior_failures": 0,
        "worst": {"node": (11, 2, 10), "rho": 43.544920320411904,
                  "shift": 2.1534657657200045, "in_collar": True},
    }
    tilted = grid_of("x1*x1 - 0.5*y1*y1 + 0.3*t + 0.2*x1*t", res=11)
    rep = key_lemma_certificate(tilted, 0.5, conformal_operator_spec(), ConeSpec("posdef"),
                                a=10.0, M=1.0, mode="sub")
    assert dataclasses.asdict(rep) == {
        "mode": "sub", "eps": 0.5, "a": 10.0, "passed": False,
        "min_a": 31.623914308172235, "testable": 729, "excluded_bound": 499,
        "coverage": 0.8782608695652174, "failures": 28, "collar_failures": 22,
        "interior_failures": 6,
        "worst": {"node": (2, 9, 1), "rho": -5.757924015724331,
                  "shift": 0.5237917506187045, "in_collar": True},
    }


def test_certificate_sub_mode_mirror():
    v = sample(parse_field("x1*x1 + y1*y1 + t*t", 1), BOX, 13)
    rep = key_lemma_certificate(v, 0.5, ZERO_SPEC, TRACE, a=1000.0, M=10.0, mode="sub")
    assert rep.interior_failures == 0
    assert rep.min_a is not None


def test_certificate_magnitude_cut(quadratic_supersolution):
    # a small M excludes nodes with large values but keeps the verdict sound
    rep = key_lemma_certificate(
        quadratic_supersolution, 0.5, ZERO_SPEC, TRACE, a=1000.0, M=1.0, mode="super"
    )
    assert rep.excluded_bound > 0
    with pytest.raises(ValueError):
        key_lemma_certificate(
            quadratic_supersolution, 0.5, ZERO_SPEC, TRACE, a=1.0, M=1e-9, mode="super"
        )


def test_certificate_validation(quadratic_supersolution):
    g = quadratic_supersolution
    with pytest.raises(ValueError):
        key_lemma_certificate(g, -0.5, ZERO_SPEC, TRACE, a=1.0, M=1.0)
    with pytest.raises(ValueError):
        key_lemma_certificate(g, 0.5, ZERO_SPEC, TRACE, a=-1.0, M=1.0)
    with pytest.raises(ValueError):
        key_lemma_certificate(g, 0.5, ZERO_SPEC, TRACE, a=1.0, M=1.0, mode="down")
