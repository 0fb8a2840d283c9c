"""Tests for the bracketed relaxation solver."""

import numpy as np
import pytest

from heisvisc.cones import ConeSpec, newton_values, spectrum, values_from_eigenvalues
from heisvisc.fields import Domain, GridField, parse_field, sample
from heisvisc.operators import OperatorSpec, conformal_operator_spec
from heisvisc.perron import (
    Problem,
    _bicgstab,
    _forcing,
    boundary_bump,
    bracket_from_boundary,
    solve,
    uniqueness_gap,
)
from heisvisc.viscosity import TAG_NAMES, GridOperator, classify_grid

BOX1 = np.array([[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]])
ZERO = OperatorSpec(0.0, 0.0, 0.0)
TRACE = ConeSpec("trace")
X1 = parse_field("x1", 1)


def tags_of_testable(cls):
    """Names of the tags a classification gives its testable nodes."""
    return {TAG_NAMES[c] for c in np.unique(cls.tags)} - {"Untestable"}


def linear_problem(r=11, scale=0.3, shift=0.0, n=1):
    dom = Domain(np.array([[-1.0, 1.0]] * (2 * n + 1)))
    g = parse_field(f"x1 + {shift!r}", n) if shift else parse_field("x1", n)
    v, w = bracket_from_boundary(g, dom, (r,) * (2 * n + 1), scale)
    return Problem(spec=ZERO, cone=TRACE, boundary=g, sub=v, sup=w)


# -- sub/supersolution structure ------------------------------------------------


def test_max_of_subsolutions_stays_subsolution():
    dom = Domain(BOX1)
    res = (9, 9, 9)
    # both fields have strictly positive horizontal trace everywhere
    a = sample(parse_field("x1*x1 + y1*y1", 1), dom, res)
    b = sample(parse_field("0.5*(x1*x1 + y1*y1) + x1", 1), dom, res)
    merged = GridField(1, BOX1, np.maximum(a.values, b.values))
    cls = classify_grid(merged, ZERO, TRACE, side="sub")
    assert tags_of_testable(cls) == {"SubOK"}


# -- bracket construction ------------------------------------------------------


def test_boundary_bump_vanishes_on_boundary_positive_inside():
    dom = Domain(BOX1)
    bump = sample(boundary_bump(dom), dom, (9, 9, 9))
    bmask = bump.boundary_mask()
    assert np.abs(bump.values[bmask]).max() == 0.0
    assert bump.values[~bmask].min() > 0.0


def test_bracket_from_boundary_orders_and_agrees():
    dom = Domain(BOX1)
    v, w = bracket_from_boundary(X1, dom, (9, 9, 9), 0.25)
    assert (v.values <= w.values).all()
    bmask = v.boundary_mask()
    np.testing.assert_allclose(v.values[bmask], w.values[bmask], atol=1e-14)
    with pytest.raises(ValueError, match="scale"):
        bracket_from_boundary(X1, dom, (9, 9, 9), 0.0)


# -- problem validation --------------------------------------------------------


def test_problem_rejects_unordered_bracket():
    p = linear_problem()
    with pytest.raises(ValueError, match="bracket"):
        Problem(spec=ZERO, cone=TRACE, boundary=X1, sub=p.sup, sup=p.sub)


def test_problem_rejects_boundary_disagreement():
    p = linear_problem()
    lifted = p.sup.copy()
    lifted.values += 0.5
    with pytest.raises(ValueError, match="boundary"):
        Problem(spec=ZERO, cone=TRACE, boundary=X1, sub=p.sub, sup=lifted)


def test_problem_rejects_wrong_boundary_data():
    p = linear_problem()
    other = parse_field("x1 + 1.0", 1)
    with pytest.raises(ValueError, match="boundary data"):
        Problem(spec=ZERO, cone=TRACE, boundary=other, sub=p.sub, sup=p.sup)


@pytest.mark.parametrize("bad", [-np.inf, np.nan], ids=["minus_inf", "nan"])
def test_problem_rejects_non_finite_interior_node(bad):
    # -inf keeps the bracket ordered and NaN fails the order test, so each
    # must be refused for what it is before either ordering check
    p = linear_problem(r=5)
    low = p.sub.copy()
    low.values[2, 1, 3] = bad
    with pytest.raises(ValueError, match=r"lower bracket is not finite at node \(2, 1, 3\)"):
        Problem(spec=ZERO, cone=TRACE, boundary=X1, sub=low, sup=p.sup)
    with pytest.raises(ValueError, match=r"upper bracket is not finite at node \(2, 1, 3\)"):
        Problem(spec=ZERO, cone=TRACE, boundary=X1, sub=p.sub, sup=low)


def test_problem_rejects_boundary_data_that_is_nan():
    # inf - inf on the face x1 = 1: the ring gap is NaN, which compares
    # false against any tolerance
    zero = sample(parse_field("0.0", 1), Domain(BOX1), (5, 5, 5))
    nan_data = parse_field("exp(800*x1) - exp(800*x1)", 1)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="boundary data differs from the bracket by nan"):
        Problem(spec=ZERO, cone=TRACE, boundary=nan_data, sub=zero, sup=zero.copy())


def test_problem_rejects_coefficient_fields():
    p = linear_problem()
    varying = OperatorSpec(alpha=parse_field("x1", 1), beta=0.0, gamma=0.0)
    with pytest.raises(ValueError, match="constant"):
        Problem(spec=varying, cone=TRACE, boundary=X1, sub=p.sub, sup=p.sup)


def test_problem_rejects_structurally_bad_operator():
    p = linear_problem()
    wild = OperatorSpec(alpha=50.0, beta=25.0, gamma=50.0)
    with pytest.raises(ValueError, match="structural"):
        Problem(spec=wild, cone=TRACE, boundary=X1, sub=p.sub, sup=p.sup)


# -- solving -------------------------------------------------------------------


@pytest.mark.parametrize("n, r", [(1, 11), (2, 5)], ids=["n1", "n2"])
def test_solve_recovers_exact_linear_solution(n, r):
    p = linear_problem(r, n=n)
    res = solve(p)
    assert res.converged
    exact = sample(parse_field("x1", n), p.domain, p.res).values
    assert np.abs(res.u.values - exact).max() <= 1e-9
    assert res.final_residual < 1e-10
    assert res.iterations > 0
    # bracketing and boundary pin
    assert (res.u.values >= p.sub.values).all()
    assert (res.u.values <= p.sup.values).all()
    bmask = p.sub.boundary_mask()
    np.testing.assert_array_equal(res.u.values[bmask], p.sub.values[bmask])


def test_solve_descends_to_same_solution():
    p = linear_problem(11)
    down = solve(p, start="super")
    assert down.converged
    exact = sample(X1, p.domain, p.res).values
    assert np.abs(down.u.values - exact).max() <= 1e-9


def test_solve_pinned_bracket_returns_immediately():
    dom = Domain(BOX1)
    g = sample(X1, dom, (9, 9, 9))
    p = Problem(spec=ZERO, cone=TRACE, boundary=X1, sub=g, sup=g.copy())
    res = solve(p)
    assert res.converged
    assert res.iterations == 0
    np.testing.assert_array_equal(res.u.values, g.values)


def test_solve_constant_boundary_gives_constant():
    dom = Domain(BOX1)
    g = parse_field("0.25", 1)
    v, w = bracket_from_boundary(g, dom, (9, 9, 9), 0.2)
    p = Problem(spec=ZERO, cone=TRACE, boundary=g, sub=v, sup=w)
    res = solve(p)
    assert res.converged
    assert np.abs(res.u.values - 0.25).max() <= 1e-9


def test_solve_residual_decreases():
    p = linear_problem(11)
    res = solve(p)
    assert res.final_residual < res.residuals[0]


def test_solve_ordered_boundary_data_orders_solutions():
    hi = solve(linear_problem(9, shift=0.3))
    lo = solve(linear_problem(9))
    assert hi.converged and lo.converged
    assert (hi.u.values - lo.u.values).min() >= -1e-12


def test_solve_reports_nonconvergence():
    p = linear_problem(11)
    res = solve(p, max_iter=1)
    assert not res.converged
    assert res.iterations == 1
    assert (res.u.values >= p.sub.values).all()
    assert (res.u.values <= p.sup.values).all()


def test_bicgstab_returns_a_start_that_already_solves():
    # only the apply that measures x0's residual is spent, and x0 comes back
    gen = np.random.default_rng(4)
    A = np.eye(30) * 3.0 + 0.2 * gen.standard_normal((30, 30))
    x0 = gen.standard_normal(30)
    calls = []

    def apply(x):
        calls.append(x)
        return A @ x

    x = _bicgstab(apply, A @ x0, np.diag(A).copy(), 1e-4, 100, x0)
    np.testing.assert_array_equal(x, x0)
    assert len(calls) == 1


def test_forcing_terms_follow_the_outer_progress():
    tol = 1e-10
    assert _forcing(None, 1.0, None, tol, False) == 0.1
    # 0.9 (res_k / res_k-1)^2, clipped to [1e-4, 0.5]
    assert _forcing(0.1, 0.1, 1.0, tol, False) == pytest.approx(9e-3)
    assert _forcing(0.1, 2.0, 1.0, tol, False) == 0.5
    assert _forcing(0.1, 1e-6, 1.0, tol, False) == 1e-4
    # the safeguard keeps 0.9 eta^2 when that exceeds 0.1
    assert _forcing(0.5, 1e-3, 1.0, tol, False) == pytest.approx(0.225)
    # a halved step does not loosen the tolerance
    assert _forcing(0.1, 2.0, 1.0, tol, True) == 0.1
    # no step is solved past tol
    assert _forcing(0.1, 2e-10, 1e-6, tol, False) == pytest.approx(0.25)


def test_solve_rejects_bad_arguments():
    p = linear_problem(9)
    with pytest.raises(ValueError, match="start"):
        solve(p, start="middle")
    # the residual bottoms out at exactly 0, so with tol <= 0 even the
    # exact solution would end unconverged
    for tol in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tol must be a positive finite number"):
            solve(p, tol=tol)
    # a negative step count is a usage error, not a convergence failure
    with pytest.raises(ValueError, match="max_iter must be a non-negative"):
        solve(p, max_iter=-1)
    assert solve(p, max_iter=0).iterations == 0


# -- uniqueness ----------------------------------------------------------------


def test_uniqueness_gap_linear():
    p = linear_problem(11)
    rep = uniqueness_gap(p)
    assert rep.passed
    assert rep.gap <= 1e-9
    assert rep.sides["sub"].converged and rep.sides["super"].converged


def test_uniqueness_gap_pinned_bracket_is_zero():
    dom = Domain(BOX1)
    g = sample(X1, dom, (9, 9, 9))
    p = Problem(spec=ZERO, cone=TRACE, boundary=X1, sub=g, sup=g.copy())
    rep = uniqueness_gap(p)
    assert rep.gap == 0.0
    assert rep.passed


def test_uniqueness_gap_reports_nonconvergence():
    p = linear_problem(11)
    rep = uniqueness_gap(p, max_iter=1)
    assert not rep.passed
    assert [rep.sides[s].converged for s in ("sub", "super")] == [False, False]


def test_uniqueness_gap_passes_tol_to_both_sides():
    p = linear_problem(11)
    rep = uniqueness_gap(p, tol=1e-3)
    for start, res in rep.sides.items():
        assert res.final_residual < 1e-3
        assert res.iterations == solve(p, tol=1e-3, start=start).iterations
    assert rep.sides["sub"].iterations < solve(p, start="sub").iterations


# -- the Newton Jacobian -----------------------------------------------------------

JACOBIAN_FIELDS = {
    1: "0.4*x1^2 + 0.8*y1^2 + 0.05*x1*y1 + 0.02*t^2 + 0.02*x1*t",
    2: "0.3*x1^2 + 0.45*x2^2 + 0.6*y1^2 + 0.75*y2^2 + 0.02*x1*y2 + 0.01*t^2",
}


@pytest.mark.parametrize("n, r", [(1, 9), (2, 5)], ids=["n1", "n2"])
@pytest.mark.parametrize("spec", [ZERO, conformal_operator_spec()], ids=["zero", "conformal"])
@pytest.mark.parametrize("cone", [TRACE, ConeSpec("posdef"), ConeSpec("sigma_k", k=2),
                                  ConeSpec("spectral", g="l1 + 0.5*l2 + 0.1*l1*l2")],
                         ids=["trace", "posdef", "sigma_2", "spectral"])
def test_jacobian_matches_finite_differences(n, r, spec, cone):
    dom = Domain(np.array([[-0.5, 0.5]] * (2 * n + 1)))
    g = sample(parse_field(JACOBIAN_FIELDS[n], n), dom, (r,) * (2 * n + 1))
    op = GridOperator(g, spec, cone)
    F, p, rho, r0, _ = op.evaluate(g.values)
    # away from eigenvalue crossings, and inside the sigma_2 cone, where its
    # linearisation is the exact derivative of e_2
    lams = spectrum(F)
    assert np.diff(lams, axis=-1).min() > 0.1
    assert lams.min() > 0.1
    J, _ = op.jacobian(F, g.values[op.inner], p)
    gen = np.random.default_rng(7)
    eps = 1e-6
    for _ in range(3):
        d = gen.standard_normal(op.shape)
        moved = []
        for sign in (1.0, -1.0):
            values = g.values.copy()
            values[op.inner] += sign * eps * d
            moved.append(newton_values(cone, op(values)[0])[1])
        fd = (moved[0] - moved[1]) / (2.0 * eps)
        err = np.abs(op.apply(J, d).reshape(d.shape) - fd).max()
        assert err <= 1e-6 * (1.0 + np.abs(fd).max())
    # rho is the defining value, and except for sigma_k r is rho itself
    if cone.family == "trace":
        np.testing.assert_array_equal(rho, sum(F[i][i] for i in range(len(F))))
    else:
        np.testing.assert_array_equal(rho, values_from_eigenvalues(cone, lams))
    if cone.family != "sigma_k":
        np.testing.assert_array_equal(r0, rho)


@pytest.mark.parametrize("n, r, offsets, pairs, trace_kept",
                         [(1, 9, 19, 27, 15), (2, 5, 51, 65, 27)], ids=["n1", "n2"])
@pytest.mark.parametrize("spec", [ZERO, conformal_operator_spec()], ids=["zero", "conformal"])
def test_jacobian_keeps_only_offsets_that_carry_weight(n, r, offsets, pairs, trace_kept, spec):
    # under trace the mixed horizontal Hessian entries have zero coefficients,
    # so their diagonal offsets drop; posdef weights every offset
    dom = Domain(np.array([[-0.5, 0.5]] * (2 * n + 1)))
    g = sample(parse_field(JACOBIAN_FIELDS[n], n), dom, (r,) * (2 * n + 1))
    for cone, kept in ((TRACE, trace_kept), (ConeSpec("posdef"), offsets)):
        op = GridOperator(g, spec, cone)
        F, p = op(g.values)
        (rows, neighbours), _ = op.jacobian(F, g.values[op.inner], p)
        assert len(op.pairs) == offsets
        assert sum(map(len, op.pairs)) == pairs
        assert rows.shape == (kept, np.prod(op.shape))
        assert neighbours.shape == rows.shape
        assert np.abs(rows).max(axis=1).min() > 0.0


def test_classification_builds_no_gather_table(monkeypatch):
    def refuse(op):
        raise AssertionError("the offset table was built")

    monkeypatch.setattr(GridOperator, "_build_table", refuse)
    p = linear_problem(9)
    c = classify_grid(p.sub, p.spec, p.cone, "sub")
    assert c.count("Untestable") < p.sub.values.size
    # a solve does build it
    with pytest.raises(AssertionError, match="offset table"):
        solve(p)


# -- exact solutions beyond the linear trace problem ----------------------------------


def _exact_problem(expr, r, spec, cone):
    dom = Domain(BOX1)
    g = parse_field(expr, 1)
    v, w = bracket_from_boundary(g, dom, (r, r, r), 0.3)
    return Problem(spec=spec, cone=cone, boundary=g, sub=v, sup=w), sample(g, dom, (r, r, r))


@pytest.mark.parametrize("r, max_applies", [(11, 300), (21, 600)], ids=["11", "21"])
def test_posdef_recovers_degenerate_convex_solution(r, max_applies):
    # F[x1^2] = diag(2, 0) exactly: the smallest eigenvalue vanishes.  The
    # apply bounds sit far below the ~1,900 Jacobian-vector products a fixed
    # 1e-4 linear tolerance spends per 21^3 start
    prob, exact = _exact_problem("x1*x1", r, ZERO, ConeSpec("posdef"))
    for start in ("sub", "super"):
        res = solve(prob, start=start)
        assert res.converged, start
        assert np.abs(res.u.values - exact.values).max() <= 1e-9, start
        assert 0 < res.applies <= max_applies, (start, res.applies)


def test_conformal_operator_second_order_on_exact_solution():
    # -log(3 - x1) has horizontal trace Hessian 1/(3 - x1)^2 = |grad_H|^2, so
    # it solves the conformal operator's trace equation
    inner = (slice(1, -1),) * 3
    errs = []
    for r, expected in ((11, 2.6e-5), (21, 6.6e-6)):
        prob, exact = _exact_problem("0.0 - log(3.0 - x1)", r, conformal_operator_spec(), TRACE)
        per_start = []
        for start in ("sub", "super"):
            res = solve(prob, start=start)
            assert res.converged, (r, start)
            per_start.append(float(np.abs(res.u.values - exact.values)[inner].max()))
        assert abs(per_start[0] - per_start[1]) <= 1e-9
        assert abs(per_start[0] - expected) <= 0.1 * expected, (r, per_start)
        errs.append(per_start[0])
    assert np.log2(errs[0] / errs[1]) >= 1.9


def test_solve_reports_held_nodes():
    # the probe data of the posdef family: the solution sits on the bracket
    # at part of the interior
    dom = Domain(BOX1)
    g = parse_field("0.3*x1 - 0.2*y1^2 + 0.1*t", 1)
    v, w = bracket_from_boundary(g, dom, (9, 9, 9), 0.3)
    prob = Problem(spec=ZERO, cone=ConeSpec("posdef"), boundary=g, sub=v, sup=w)
    res = solve(prob)
    assert res.converged
    inner = (slice(1, -1),) * 3
    u = res.u.values[inner]
    on_bound = (u == v.values[inner]) | (u == w.values[inner])
    assert 0 < res.held <= int(on_bound.sum())
    assert solve(linear_problem(9)).held == 0
