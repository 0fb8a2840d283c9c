"""Group arithmetic, gauge metric, and horizontal calculus checks.

The frame contraction (``operators.contract``, the one place Euclidean
derivatives become horizontal ones) is validated against a symbolic oracle
that applies the frame fields directly; the frame-ordering constant linking
the antisymmetric part to the t-derivative is derived symbolically once and
frozen below.
"""

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from heisvisc.core import (
    dilate,
    dist,
    frame_t_coefficients,
    gauge,
    group_inv,
    group_mul,
    j_matrix,
)
from heisvisc.operators import OperatorSpec, contract
from heisvisc.rng import stream

# Antisymmetric part of the horizontal Hessian equals this constant times
# (du/dt) J; derived by the symbolic oracle in test_commutator_constant.
FRAME_COMMUTATOR_CONSTANT = 4.0


def random_point(gen, n, scale=2.0):
    return gen.uniform(-scale, scale, size=2 * n + 1)


def symbolic_frames(n):
    xs = sp.symbols(f"x1:{n + 1}")
    ys = sp.symbols(f"y1:{n + 1}")
    t = sp.Symbol("t")

    def X(i):
        return lambda f: sp.diff(f, xs[i]) + 2 * ys[i] * sp.diff(f, t)

    def Y(i):
        return lambda f: sp.diff(f, ys[i]) - 2 * xs[i] * sp.diff(f, t)

    frames = [X(i) for i in range(n)] + [Y(i) for i in range(n)]
    return xs, ys, t, frames


def test_group_mul_example():
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    np.testing.assert_allclose(group_mul(a, b), [1.0, 1.0, -2.0], atol=0)
    # and the twist flips sign when the factors swap
    np.testing.assert_allclose(group_mul(b, a), [1.0, 1.0, 2.0], atol=0)


def test_identity_and_inverse():
    gen = stream(7, 1)
    e = np.zeros(5)
    for _ in range(50):
        p = random_point(gen, 2)
        np.testing.assert_allclose(group_mul(p, e), p, atol=0)
        np.testing.assert_allclose(group_mul(e, p), p, atol=0)
        np.testing.assert_allclose(group_mul(p, group_inv(p)), np.zeros(5), atol=1e-12)
        np.testing.assert_allclose(group_mul(group_inv(p), p), np.zeros(5), atol=1e-12)


def test_associativity_sampled():
    gen = stream(7, 2)
    for _ in range(200):
        a, b, c = (random_point(gen, 1) for _ in range(3))
        lhs = group_mul(group_mul(a, b), c)
        rhs = group_mul(a, group_mul(b, c))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12 * (1 + np.abs(lhs).max()))


@given(
    st.lists(st.floats(-10, 10), min_size=9, max_size=9).map(np.asarray),
)
@settings(max_examples=200, deadline=None)
def test_group_axioms_property(flat):
    a, b, c = flat[:3], flat[3:6], flat[6:]
    lhs = group_mul(group_mul(a, b), c)
    rhs = group_mul(a, group_mul(b, c))
    scale = 1 + max(np.abs(lhs).max(), np.abs(rhs).max())
    assert np.abs(lhs - rhs).max() <= 1e-12 * scale
    back = group_mul(a, group_inv(a))
    assert np.abs(back).max() <= 1e-12 * (1 + np.abs(a).max() ** 2)


def test_gauge_examples():
    assert gauge([0.0, 0.0, 4.0]) == pytest.approx(2.0, abs=1e-15)
    assert gauge([1.0, 1.0, 0.0]) == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert gauge([0.0, 0.0, 0.0, 0.0, -9.0]) == pytest.approx(3.0, rel=1e-15)


def test_gauge_dilation_homogeneity():
    gen = stream(7, 3)
    for _ in range(100):
        p = random_point(gen, 2)
        lam = float(gen.uniform(0.0, 3.0))
        assert gauge(dilate(lam, p)) == pytest.approx(
            lam * gauge(p), rel=1e-12, abs=1e-13
        )


def test_gauge_and_dist_hold_at_extreme_scales():
    gen = stream(7, 5)
    pts = gen.uniform(-2.0, 2.0, size=(50, 5))
    others = gen.uniform(-2.0, 2.0, size=(50, 5))
    # in the normal range the plain formula stands, bit for bit
    z2 = np.sum(pts[:, :4] ** 2, axis=-1)
    assert np.array_equal(gauge(pts), (z2 * z2 + pts[:, 4] ** 2) ** 0.25)
    # past it, homogeneity: no overflow to inf, no underflow to 0
    with np.errstate(over="raise", invalid="raise"):
        for lam in (1e80, 1e150, 1e-80, 1e-150):
            big, big_other = dilate(lam, pts), dilate(lam, others)
            np.testing.assert_allclose(gauge(big), lam * gauge(pts), rtol=1e-14)
            np.testing.assert_allclose(dist(big, big_other), lam * dist(pts, others), rtol=1e-13)
        assert gauge([1e300, 0.0, 0.0]) == 1e300
        assert gauge([0.0, 0.0, -1e300]) == 1e150
        # the twist 2 (y x' - x y') alone overflows here
        assert dist([1e300, 1e300, 0.0], [-1e300, 1e300, 5.0]) == pytest.approx(32**0.25 * 1e300)
        assert gauge([0.0, 0.0, 0.0]) == 0.0
        assert dist([1e300, 0.0, 0.0], [1e300, 0.0, 0.0]) == 0.0


def test_distance_left_invariance_and_symmetry():
    gen = stream(7, 4)
    for _ in range(100):
        a, b, g = (random_point(gen, 1) for _ in range(3))
        d0 = dist(a, b)
        assert dist(group_mul(g, a), group_mul(g, b)) == pytest.approx(d0, rel=1e-11, abs=1e-12)
        assert dist(b, a) == pytest.approx(d0, rel=1e-13)
        assert dist(a, a) == 0.0


def test_group_functions_broadcast_over_samples():
    gen = stream(7, 6)
    for n in (1, 2):
        a, b = gen.uniform(-2, 2, size=(2, 40, 2 * n + 1))
        lam = gen.uniform(0.1, 3.0, size=40)
        np.testing.assert_array_equal(group_mul(a, b), [group_mul(p, q) for p, q in zip(a, b)])
        np.testing.assert_array_equal(dilate(lam, a), [dilate(m, p) for p, m in zip(a, lam)])
        # the fourth root takes numpy's vector path on a stack: equal to rounding
        np.testing.assert_allclose(dist(a, b), [dist(p, q) for p, q in zip(a, b)], rtol=1e-15)
        np.testing.assert_allclose(gauge(a), [gauge(p) for p in a], rtol=1e-15)


def test_point_validation():
    # a point is a flat coordinate array of odd length 2n+1 >= 3; finiteness
    # of outside input is the command line's check (see test_cli)
    for bad in (
        lambda: group_mul([1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0, 0.0]),
        lambda: dist(np.zeros((4, 3)), np.zeros(5)),
        lambda: gauge([1.0, 2.0]),
        lambda: group_inv(np.zeros((3, 4))),
        lambda: dilate(2.0, 1.0),
    ):
        with pytest.raises(ValueError):
            bad()


def test_commutator_constant():
    # symbolic derivation of the constant in (full - full^T) = c (du/dt) J
    xs, ys, t, frames = symbolic_frames(1)
    u = xs[0] ** 2 * ys[0] + ys[0] ** 2 * t + xs[0] * t + t**2 * ys[0]
    M = sp.Matrix(2, 2, lambda i, j: frames[j](frames[i](u)))
    A = sp.expand(M - M.T)
    c01 = sp.simplify(A[0, 1] / sp.diff(u, t))
    assert sp.simplify(c01 - FRAME_COMMUTATOR_CONSTANT) == 0
    # commutator of the frame fields themselves: [X, Y] u = -4 du/dt
    comm = sp.simplify(frames[0](frames[1](u)) - frames[1](frames[0](u)))
    assert sp.simplify(comm + 4 * sp.diff(u, t)) == 0


def stacked(M):
    """Entry lists M[i][j] of a contraction as a stack with the matrix axes last."""
    return np.stack([np.stack(row, axis=-1) for row in M], axis=-2)


def frame_derivatives(coords):
    """Euclidean derivatives d_j c_i of the frame's t-coefficients, as a
    stack indexed [.., i, j]; c is affine, so a unit step is exact."""
    m = coords.shape[-1] - 1
    steps = coords[..., None, :] + np.eye(m + 1)[:m]
    dc = frame_t_coefficients(steps) - frame_t_coefficients(coords)[..., None, :]
    return dc.swapaxes(-1, -2)


@pytest.mark.parametrize("n", [1, 2])
def test_heis_hessian_against_symbolic_oracle(n):
    xs, ys, t, frames = symbolic_frames(n)
    coords = list(xs) + list(ys) + [t]
    gen = stream(11, n)
    # random cubic polynomial: exercises both the chain rule and the frame twist
    monomials = [a * b * c for a in coords for b in coords for c in coords]
    monomials += [a * b for a in coords for b in coords] + coords
    weights = gen.uniform(-1, 1, size=len(monomials))
    u = sum(w * m for w, m in zip(weights, monomials))

    # the oracle: frame fields applied symbolically, and F = sym + L of the
    # symbolic horizontal gradient for a spec with all three coefficients
    a, b, g = 0.7, -0.3, 1.2
    full_expr = sp.Matrix(2 * n, 2 * n, lambda i, j: frames[j](frames[i](u)))
    grad_expr = sp.Matrix([frames[i](u) for i in range(2 * n)])
    Jgrad = sp.Matrix(list(grad_expr[n:]) + [-q for q in grad_expr[:n]])
    L_expr = (a * grad_expr * grad_expr.T - g * Jgrad * Jgrad.T
              - b * (grad_expr.T * grad_expr)[0] * sp.eye(2 * n))
    F_expr = (full_expr + full_expr.T) / 2 + L_expr
    egrad_expr = sp.Matrix([sp.diff(u, v) for v in coords])
    ehess_expr = sp.Matrix(len(coords), len(coords), lambda i, j: sp.diff(u, coords[i], coords[j]))

    pts = np.array([random_point(gen, n) for _ in range(25)])

    def at_points(expr):
        f = sp.lambdify(coords, expr, "numpy")
        return np.stack([np.asarray(f(*p), dtype=float) for p in pts], axis=-1)

    val, egrad, ehess = at_points(u), at_points(egrad_expr)[:, 0], at_points(ehess_expr)
    oracle, oracle_F = at_points(full_expr), at_points(F_expr)
    oracle_grad = at_points(grad_expr)[:, 0]

    sym, grad_h = contract(OperatorSpec(), pts, val, ehess, egrad)
    F, _ = contract(OperatorSpec(alpha=a, beta=b, gamma=g), pts, val, ehess, egrad)
    sym, F = stacked(sym), stacked(F)
    # the full Hessian adds u_t d_j c_i to the symmetric contraction
    full = sym + egrad[2 * n][:, None, None] * frame_derivatives(pts)
    for k in range(len(pts)):
        ref = oracle[..., k]
        scale = 1 + np.abs(ref).max()
        np.testing.assert_allclose(full[k], ref, atol=1e-10 * scale)
        np.testing.assert_allclose(sym[k], 0.5 * (ref + ref.T), atol=1e-10 * scale)
        np.testing.assert_allclose([q[k] for q in grad_h], oracle_grad[:, k], atol=1e-10 * scale)
        ref_F = oracle_F[..., k]
        np.testing.assert_allclose(F[k], ref_F, atol=1e-10 * (1 + np.abs(ref_F).max()))
        # antisymmetric part carries exactly the frozen frame constant
        anti = full[k] - full[k].T
        expected = FRAME_COMMUTATOR_CONSTANT * egrad[2 * n, k] * j_matrix(n)
        np.testing.assert_allclose(anti, expected, atol=1e-10 * scale)


def test_heis_hessian_closed_forms():
    # u = t has Euclidean Hessian zero: the symmetric part vanishes, and
    # only the frame twist survives in the full Hessian
    p = np.array([0.3, -0.7, 0.2])
    sym, _ = contract(OperatorSpec(), p, p[2], np.zeros((3, 3)), np.array([0.0, 0.0, 1.0]))
    np.testing.assert_allclose(stacked(sym), np.zeros((2, 2)), atol=0)
    np.testing.assert_allclose(stacked(sym) + frame_derivatives(p), [[0.0, 2.0], [-2.0, 0.0]],
                               atol=0)

    # u = |z|^2 + t^2: symmetrized part is 2(I + 4 (Jz)(Jz)^T)
    gen = stream(11, 9)
    for n in (1, 2):
        d = 2 * n + 1
        p = np.array([random_point(gen, n) for _ in range(20)])
        ehess = np.broadcast_to(2.0 * np.eye(d)[..., None], (d, d, 20))
        sym, _ = contract(OperatorSpec(), p, np.sum(p * p, axis=-1), ehess, 2.0 * p.T)
        Jz = p[:, : 2 * n] @ j_matrix(n).T
        expected = 2.0 * (np.eye(2 * n) + 4.0 * Jz[:, :, None] * Jz[:, None, :])
        np.testing.assert_allclose(stacked(sym), expected, atol=1e-12)


def test_frame_t_coefficients_rows():
    # rows X_1 = e_x1 + 2 y1 e_t and Y_2 = e_y2 - 2 x2 e_t, at one point and a stack
    p = np.array([0.5, -1.0, 2.0, 0.25, 3.0])
    c = frame_t_coefficients(p)
    np.testing.assert_allclose(c, [2 * 2.0, 2 * 0.25, -2 * 0.5, -2 * -1.0], atol=0)
    np.testing.assert_array_equal(frame_t_coefficients(np.stack([p, 2 * p])), [c, 2 * c])


def test_horizontal_gradient_linear_fields():
    p = np.array([0.4, -0.3, 1.0])
    zero = np.zeros((3, 3))
    # u = x1: X u = 1, Y u = 0
    _, grad_h = contract(OperatorSpec(), p, p[0], zero, np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(grad_h, [1.0, 0.0], atol=0)
    # u = t: X u = 2 y1, Y u = -2 x1
    _, grad_h = contract(OperatorSpec(), p, p[2], zero, np.array([0.0, 0.0, 1.0]))
    np.testing.assert_allclose(grad_h, [-0.6, -0.8], atol=1e-15)


def test_coords_roundtrip_and_dilate_group_compat():
    gen = stream(7, 8)
    for _ in range(50):
        p = random_point(gen, 2)
        a, b = random_point(gen, 2), random_point(gen, 2)
        lam = float(gen.uniform(0.1, 2.0))
        np.testing.assert_allclose(dilate(1.0 / lam, dilate(lam, p)), p, rtol=1e-14)
        # dilations are group homomorphisms
        lhs = dilate(lam, group_mul(a, b))
        rhs = group_mul(dilate(lam, a), dilate(lam, b))
        np.testing.assert_allclose(lhs, rhs, atol=1e-11)
