"""Expression parsing, exact jets, grid sampling, and discrete jets."""

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from heisvisc.fields import (
    AnalyticField,
    Domain,
    EvaluationDomainError,
    GridField,
    NonSmoothError,
    ParseError,
    central_differences,
    exp_of,
    parse_field,
    sample,
    z_norm_sq,
)
from heisvisc.rng import stream


def sympy_env(n):
    names = [f"x{i}" for i in range(1, n + 1)] + [f"y{i}" for i in range(1, n + 1)] + ["t"]
    return names, sp.symbols(names)


def sympy_jet(text, n, at):
    """Independent jet oracle: sympy differentiation of the same expression."""
    names, syms = sympy_env(n)
    local = dict(zip(names, syms))
    local.update({"min": sp.Min, "max": sp.Max, "exp": sp.exp, "log": sp.log})
    expr = sp.sympify(text.replace("^", "**"), local).rewrite(sp.Piecewise)
    subs = dict(zip(syms, at))
    val = float(expr.subs(subs))
    grad = np.array([float(sp.diff(expr, v).subs(subs)) for v in syms])
    hess = np.array(
        [[float(sp.diff(expr, a, b).subs(subs)) for b in syms] for a in syms]
    )
    return val, grad, hess


def test_eval_examples():
    f = parse_field("x1^2 + 4*y1*t", 1)
    assert f(np.array([1.0, 2.0, 3.0])) == pytest.approx(25.0, abs=0)
    g = parse_field("min(x1, y1) + max(t, 0.0)", 1)
    assert g(np.array([2.0, -1.0, -5.0])) == pytest.approx(-1.0, abs=0)
    assert g(np.array([-3.0, 1.0, 2.0])) == pytest.approx(-1.0, abs=0)


def test_eval_broadcasts_over_arrays():
    f = parse_field("x1*y1 - 2.0*t", 1)
    pts = np.array([[1.0, 2.0, 0.5], [0.0, 3.0, 1.0]])
    np.testing.assert_allclose(f(pts), [1.0, -2.0], atol=0)


def test_operator_precedence_and_unary():
    f = parse_field("-x1^2", 1)
    assert f(np.array([3.0, 0.0, 0.0])) == -9.0
    g = parse_field("2.0*x1 + 3.0*y1^2/4.0 - -t", 1)
    assert g(np.array([1.0, 2.0, 5.0])) == pytest.approx(2 + 3 + 5, abs=0)
    h = parse_field("x1^-2", 1)
    assert h(np.array([2.0, 0.0, 0.0])) == 0.25


def test_nonconstant_exponent_desugars():
    f = parse_field("x1^t", 1)
    assert f(np.array([2.0, 0.0, 3.0])) == pytest.approx(8.0, rel=1e-14)
    with pytest.raises(EvaluationDomainError):
        f(np.array([-2.0, 0.0, 3.0]))


@pytest.mark.parametrize(
    "text,position",
    [
        ("x1 + * 3", 6),
        ("x1 +", 5),
        ("(x1 + t", 8),
        ("x1 $ t", 4),
        ("foo(x1)", 1),
        ("min(x1)", 1),
        ("w + 1", 1),
        ("x3 + 1", 1),
    ],
)
def test_parse_errors_carry_positions(text, position):
    with pytest.raises(ParseError) as err:
        parse_field(text, 1)
    assert err.value.position == position


def test_extra_variable_for_coefficients():
    f = parse_field("x1 + s^2", 1, extra_vars=("s",))
    assert f(np.array([1.0, 0.0, 0.0]), s=3.0) == 10.0
    with pytest.raises(ParseError):
        parse_field("s + 1", 1)  # s not declared
    with pytest.raises(ValueError):
        f(np.array([1.0, 0.0, 0.0]))  # s missing


def test_domain_errors():
    with pytest.raises(EvaluationDomainError):
        parse_field("log(x1)", 1)(np.array([-1.0, 0.0, 0.0]))
    with pytest.raises(EvaluationDomainError):
        parse_field("1.0/x1", 1)(np.array([0.0, 1.0, 0.0]))
    with pytest.raises(EvaluationDomainError):
        parse_field("x1^0.5", 1)(np.array([-4.0, 0.0, 0.0]))


JET_CASES = [
    ("x1*y1 - t^2", 1, [0.7, -1.2, 0.4]),
    ("x1^3 - 2.0*x1*y1*t + y1^2", 1, [1.1, 0.6, -0.9]),
    ("exp(x1*t) + log(1.0 + x1^2 + y1^2)", 1, [0.4, -0.8, 0.3]),
    ("(x1 + 2.0*y1)/(3.0 + t^2)", 1, [2.0, -1.0, 0.7]),
    ("(1.0 + x1^2 + y1^2 + t^2)^1.5", 1, [0.2, 0.5, -0.6]),
    ("min(x1, y1*t + 3.0)", 1, [0.3, 0.1, 0.2]),
    ("x1*y2 + x2*y1 - t*x1", 2, [0.5, -0.3, 0.8, 0.2, -1.0]),
    ("exp(-(x1^2 + y1^2 + x2^2 + y2^2))*t", 2, [0.25, -0.5, 0.75, 0.1, 0.6]),
]


@pytest.mark.parametrize("text,n,at", JET_CASES)
def test_jets_match_sympy_oracle(text, n, at):
    f = parse_field(text, n)
    at = np.asarray(at)
    value, egrad, ehess = f.jets(at)
    val, grad, hess = sympy_jet(text, n, at)
    scale = 1 + abs(val) + np.abs(grad).max() + np.abs(hess).max()
    assert value == pytest.approx(val, abs=1e-12 * scale)
    np.testing.assert_allclose(egrad, grad, atol=1e-12 * scale)
    np.testing.assert_allclose(ehess, hess, atol=1e-12 * scale)


def test_jet_at_kink_raises():
    f = parse_field("min(x1, y1)", 1)
    with pytest.raises(NonSmoothError):
        f.jets(np.array([0.5, 0.5, 0.0]))
    # one point on the kink refuses the whole batch
    with pytest.raises(NonSmoothError):
        f.jets(np.array([[0.5, -0.5, 0.0], [0.5, 0.5, 0.0]]))
    # evaluation itself is fine on the kink
    assert f(np.array([0.5, 0.5, 0.0])) == 0.5


@pytest.mark.parametrize("text,n,at", JET_CASES)
def test_batched_jets_equal_pointwise(text, n, at):
    # one tree walk over a batch gives, bit for bit, the jets of each point
    f = parse_field(text, n)
    pts = np.asarray(at) + stream(4, n).uniform(-0.05, 0.05, size=(30, 2 * n + 1))
    value, egrad, ehess = f.jets(pts)
    assert value.shape == (30,) and egrad.shape == (2 * n + 1, 30)
    assert ehess.shape == (2 * n + 1, 2 * n + 1, 30)
    for k, pt in enumerate(pts):
        v, g, h = f.jets(pt)
        assert v == value[k]
        np.testing.assert_array_equal(g, egrad[:, k])
        np.testing.assert_array_equal(h, ehess[:, :, k])
    np.testing.assert_array_equal(value, f(pts))


def test_jets_hold_extra_variables_fixed():
    f = parse_field("x1*s + s*s*t", 1, extra_vars=("s",))
    pts = np.array([[0.5, 0.0, 2.0], [1.0, 1.0, -1.0]])
    s = np.array([3.0, -2.0])
    value, egrad, ehess = f.jets(pts, s=s)
    np.testing.assert_array_equal(value, [0.5 * 3.0 + 9.0 * 2.0, -2.0 - 4.0])
    np.testing.assert_array_equal(egrad, [s, [0.0, 0.0], s * s])
    np.testing.assert_array_equal(ehess, np.zeros((3, 3, 2)))


def test_jet_domain_errors_refuse_the_batch():
    pts = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    for text in ("log(x1)", "1.0/x1", "x1^0.5", "x1^-1"):
        with pytest.raises(EvaluationDomainError):
            parse_field(text, 1).jets(pts)


def test_programmatic_construction_matches_parse():
    x1, y1 = parse_field("x1", 1).root, parse_field("y1", 1).root
    built = AnalyticField(exp_of(x1 * y1) + 2.0 * x1 - y1 ** 2, 1)
    parsed = parse_field("exp(x1*y1) + 2.0*x1 - y1^2", 1)
    gen = stream(3, 0)
    for _ in range(20):
        at = gen.uniform(-1, 1, size=3)
        assert built(at) == pytest.approx(parsed(at), rel=1e-14, abs=1e-14)
    at = np.array([0.2, -0.3, 0.1])
    np.testing.assert_allclose(built.jets(at)[2], parsed.jets(at)[2], atol=1e-14)


def test_z_norm_sq_helper():
    f = AnalyticField(z_norm_sq(2), 2)
    at = np.array([1.0, 2.0, 3.0, 4.0, 9.0])
    assert f(at) == 1 + 4 + 9 + 16


@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=100, deadline=None)
def test_parsed_identity_property(a, b, t):
    lhs = parse_field("(x1 + y1)^2", 1)
    rhs = parse_field("x1^2 + 2.0*x1*y1 + y1^2", 1)
    at = np.array([a, b, t])
    scale = 1 + a * a + b * b
    assert abs(lhs(at) - rhs(at)) <= 1e-12 * scale


def box1(lo=-1.0, hi=1.0, tlo=-2.0, thi=2.0):
    return Domain(np.array([[lo, hi], [lo, hi], [tlo, thi]]))


def test_domain_validation():
    with pytest.raises(ValueError):
        Domain(np.array([[1.0, -1.0], [0.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        Domain(np.array([[0.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="n >= 1"):
        Domain(np.array([[0.0, 1.0]]))


def test_domain_sampling_deterministic():
    d = box1()
    pts1 = d.sample_points(stream(42, 5), 100)
    pts2 = d.sample_points(stream(42, 5), 100)
    np.testing.assert_array_equal(pts1, pts2)
    assert np.all(pts1 >= d.box[:, 0]) and np.all(pts1 <= d.box[:, 1])


def test_sample_matches_direct_evaluation():
    f = parse_field("x1^2 - y1*t", 1)
    g = sample(f, box1(), (5, 7, 9))
    assert g.res == (5, 7, 9)
    coords = g.coords_full()
    np.testing.assert_allclose(g.values, f(coords.reshape(-1, 3)).reshape(5, 7, 9), atol=0)
    assert g.jet_invalid is None
    # spacing and axes
    np.testing.assert_allclose(g.spacing, [2 / 4, 2 / 6, 4 / 8], atol=0)


def fd_jet(g, index):
    """Value, gradient and Hessian of the shared stencil at one interior node."""
    H, grad = central_differences(g.values, g.spacing, gradient=True)
    at = tuple(i - 1 for i in index)
    d = len(index)
    hess = np.array([[H[a][b][at] for b in range(d)] for a in range(d)])
    return g.values[index], np.array([grad[a][at] for a in range(d)]), hess


def test_sample_flags_kinks():
    f = parse_field("max(x1, y1)", 1)
    g = sample(f, box1(), 9)
    assert g.jet_invalid is not None
    # flagged on and next to the diagonal, clean far away
    assert g.jet_invalid[4, 4, 0]
    assert g.jet_invalid[4, 4, 4]
    assert not g.jet_invalid[7, 1, 4]
    _, grad, hess = fd_jet(g, (7, 1, 4))  # smooth branch: linear, exact
    np.testing.assert_allclose(grad, [1.0, 0.0, 0.0], atol=1e-13)
    np.testing.assert_allclose(hess, np.zeros((3, 3)), atol=1e-13)


def test_fd_jets_exact_on_quadratics():
    f = parse_field("x1^2 + 3.0*x1*y1 - t^2 + 2.0*y1*t - x1 + 4.0", 1)
    g = sample(f, box1(), 9)
    value, grad, hess = fd_jet(g, (3, 5, 4))
    exact_value, exact_grad, exact_hess = f.jets(g.coords_full()[3, 5, 4])
    np.testing.assert_allclose(value, exact_value, atol=1e-13)
    np.testing.assert_allclose(grad, exact_grad, atol=1e-12)
    np.testing.assert_allclose(hess, exact_hess, atol=1e-12)


def test_fd_jets_second_order_on_smooth_fields():
    f = parse_field("exp(x1)*y1 + t^3 - x1*y1*t", 1)
    errs = []
    # the same physical node (-0.4, 0.4, 0.0) exists at every resolution
    for res, idx in ((11, (3, 7, 5)), (21, (6, 14, 10)), (41, (12, 28, 20))):
        g = sample(f, box1(), res)
        _, _, hess = fd_jet(g, idx)
        exact_hess = f.jets(g.coords_full()[idx])[2]
        errs.append(np.abs(hess - exact_hess).max())
    # each halving of h divides the error by about 4
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] <= errs[0] / 8


def test_fd_stencil_bounds():
    g = sample(parse_field("x1*t", 1), box1(), (5, 6, 7))
    H, grad = central_differences(g.values, g.spacing)
    assert grad is None
    for a in range(3):
        assert H[a][a].shape == (3, 4, 5)
        for b in range(3):
            assert H[a][b] is H[b][a]
    # two nodes on an axis leave no interior node
    thin = sample(parse_field("x1*t", 1), box1(), (2, 6, 7))
    H, grad = central_differences(thin.values, thin.spacing, gradient=True)
    assert all(H[a][b].size == 0 for a in range(3) for b in range(3))
    assert all(g_a.size == 0 for g_a in grad)


def test_grid_masks_and_copy():
    g = sample(parse_field("t", 1), box1(), 4)
    b = g.boundary_mask()
    assert b.sum() == 4**3 - 2**3
    assert (~b).sum() == 2**3
    c = g.copy()
    c.values[0, 0, 0] = 99.0
    assert g.values[0, 0, 0] != 99.0


def test_gridfield_validation():
    with pytest.raises(ValueError, match="n must be at least 1"):
        GridField(0, np.array([[0.0, 1.0]]), np.zeros(4))
    with pytest.raises(ValueError):
        GridField(1, np.zeros((3, 2)), np.zeros((4, 4)))
    with pytest.raises(ValueError):
        GridField(
            1,
            np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]),
            np.zeros((4, 4, 1)),
        )
