"""Tests for the operator family: the gradient term L, F from exact jets,
conformal covariance, and the structural-condition sampler."""

import numpy as np
import pytest

from heisvisc.fields import AnalyticField, Const, Domain, exp_of, parse_field
from heisvisc.operators import (
    OperatorSpec,
    _p_gradient_norm,
    check_structural,
    coefficient_values,
    conformal_operator_spec,
    contract,
    contract_transpose,
    eval_A_psi,
    eval_A_u,
    eval_F,
    grad_xi_L,
    frame_terms,
    gradient_term,
    gradient_term_transpose,
)
from heisvisc.rng import stream

ORIGIN = np.zeros(3)


def random_polynomial_field(gen, n, degree=3):
    """Random dense polynomial in all 2n+1 coordinates with exact jets."""
    names = [f"x{i+1}" for i in range(n)] + [f"y{i+1}" for i in range(n)] + ["t"]
    terms = ["%.6f" % gen.uniform(-1, 1)]
    for _ in range(8):
        deg = int(gen.integers(1, degree + 1))
        mono = "*".join(gen.choice(names) for _ in range(deg))
        terms.append("%.6f*%s" % (gen.uniform(-1, 1), mono))
    return parse_field(" + ".join(terms), n)


def box_domain(n, half=1.5):
    return Domain(np.array([[-half, half]] * (2 * n + 1)))


def L_stack(spec, coords, s, p):
    """gradient_term at samples p (N, 2n) as an (N, 2n, 2n) stack."""
    L = gradient_term(spec, coords, s, list(p.T))
    return np.stack([np.stack(row, axis=-1) for row in L], axis=-2)


def L_at(spec, xi, s, p):
    """gradient_term at one point as a (2n, 2n) matrix."""
    return L_stack(spec, np.asarray(xi, dtype=float)[None], np.array([s]), np.asarray(p)[None])[0]


# -- the transpose of the frame contraction -------------------------------------


@pytest.mark.parametrize("n", [1, 2])
def test_contract_transpose_is_the_adjoint_of_contract(n):
    # <G, dF> + <q, dp> = sum over derivatives of coefficient * derivative,
    # with dF, dp from contract's linear part (zero spec) at random points
    gen = stream(11, n)
    d, shape = 2 * n + 1, (4, 3)
    coords = gen.uniform(-2.0, 2.0, size=shape + (d,))
    S = gen.standard_normal((d, d) + shape)
    H = S + S.swapaxes(0, 1)
    grad = gen.standard_normal((d,) + shape)
    A = gen.standard_normal((d - 1, d - 1) + shape)
    G = A + A.swapaxes(0, 1)
    q = gen.standard_normal((d - 1,) + shape)
    dF, dp = contract(OperatorSpec(), coords, None, H, grad)
    lhs = sum(G[i][j] * dF[i][j] + (q[i] * dp[i] if i == j else 0.0)
              for i in range(d - 1) for j in range(d - 1))
    cH, cg = contract_transpose(G, frame_terms(coords)[0], q)
    rhs = sum(cH[a][b] * H[a][b] for a in range(d) for b in range(a, d))
    rhs = rhs + sum(cg[a] * grad[a] for a in range(d))
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12 * np.abs(lhs).max())
    assert contract_transpose(G, frame_terms(coords)[0])[1] is None


# -- the gradient term L ------------------------------------------------------


def test_eval_l_hand_computed_example():
    # alpha = gamma = 1, beta = 1/2, p = e_x:
    #   p(x)p = diag(1, 0), Jp = (0, -1) so Jp(x)Jp = diag(0, 1), |p|^2 = 1
    spec = conformal_operator_spec()
    L = L_at(spec, ORIGIN, 0.0, np.array([1.0, 0.0]))
    np.testing.assert_allclose(L, [[0.5, 0.0], [0.0, -1.5]], atol=1e-15)


def test_eval_l_zero_gradient_and_zero_spec():
    spec = conformal_operator_spec()
    np.testing.assert_allclose(L_at(spec, ORIGIN, 1.0, np.zeros(2)), np.zeros((2, 2)))
    zero = OperatorSpec()
    gen = stream(3)
    p = gen.normal(size=2)
    np.testing.assert_allclose(L_at(zero, ORIGIN, 0.3, p), np.zeros((2, 2)))


def test_eval_l_trace_identity():
    # tr L = (alpha - gamma - 2 n beta) |p|^2
    gen = stream(4)
    for n in (1, 2, 3):
        pt = np.concatenate([gen.normal(size=n), gen.normal(size=n), [0.4]])
        for _ in range(10):
            a, b, g = gen.normal(size=3)
            spec = OperatorSpec(alpha=a, beta=b, gamma=g)
            p = gen.normal(size=2 * n)
            expected = (a - g - 2 * n * b) * (p @ p)
            assert abs(np.trace(L_at(spec, pt, 0.0, p)) - expected) < 1e-12 * (
                1 + abs(expected)
            )


def test_eval_l_even_in_p_and_symmetric():
    gen = stream(5)
    spec = OperatorSpec(alpha=0.7, beta=-0.3, gamma=1.2)
    for _ in range(10):
        p = gen.normal(size=4)
        L = L_at(spec, np.array([0.1, 0.2, 0.3, -0.1, 0.5]), 0.0, p)
        np.testing.assert_allclose(L, L.T, atol=1e-14)
        Lm = L_at(spec, np.array([0.1, 0.2, 0.3, -0.1, 0.5]), 0.0, -p)
        np.testing.assert_allclose(L, Lm, atol=1e-14)


def test_eval_l_rejects_bad_gradient_length():
    with pytest.raises(ValueError, match="length 2n"):
        gradient_term(conformal_operator_spec(), ORIGIN, 0.0, [0.0, 0.0, 0.0])


def test_eval_l_with_field_coefficients():
    alpha_field = parse_field("x1 + 2.0*s", 1, extra_vars=("s",))
    spec_f = OperatorSpec(alpha=alpha_field, beta=0.0, gamma=0.0)
    pt = np.array([0.5, -0.2, 0.1])
    p = np.array([1.0, 2.0])
    expected = (0.5 + 2.0 * 0.7) * np.outer(p, p)
    np.testing.assert_allclose(L_at(spec_f, pt, 0.7, p), expected, atol=1e-14)


# -- eval_F and the quadratic-shift identity ----------------------------------


def test_eval_f_is_hessian_plus_gradient_part():
    # F's gradient part is L at the field's own value and horizontal gradient
    gen = stream(6)
    for n in (1, 2):
        f = random_polynomial_field(gen, n)
        spec = OperatorSpec(alpha=0.8, beta=0.2, gamma=-0.5)
        pts = gen.uniform(-1, 1, size=(5, 2 * n + 1))
        F, p = eval_F(spec, f, pts)
        hess, p0 = eval_F(OperatorSpec(), f, pts)
        np.testing.assert_array_equal(p, p0)
        expected = hess + L_stack(spec, pts, f(pts), p)
        np.testing.assert_allclose(F, expected, atol=1e-14)
        # a batch is the stack of its points
        for k in range(len(pts)):
            np.testing.assert_array_equal(eval_F(spec, f, pts[k])[0], F[k])


def test_quadratic_shift_identity():
    # With no gradient part, adding mu * (euclidean norm squared) shifts the
    # operator by exactly 2 mu (I + 4 Jz (x) Jz) with Jz = (y, -x).
    gen = stream(7)
    zero = OperatorSpec()
    for n in (1, 2):
        f = random_polynomial_field(gen, n)
        names = (
            [f"x{i+1}" for i in range(n)] + [f"y{i+1}" for i in range(n)] + ["t"]
        )
        norm_sq = parse_field(" + ".join(f"{v}*{v}" for v in names), n).root
        for _ in range(5):
            mu = float(gen.uniform(0.1, 2.0))
            shifted = AnalyticField(f.root + mu * norm_sq, n)
            coords = gen.uniform(-1, 1, size=2 * n + 1)
            diff = eval_F(zero, shifted, coords)[0] - eval_F(zero, f, coords)[0]
            z = coords[: 2 * n]
            Jz = np.concatenate([z[n:], -z[:n]])
            expected = 2.0 * mu * (np.eye(2 * n) + 4.0 * np.outer(Jz, Jz))
            np.testing.assert_allclose(diff, expected, atol=1e-10)


# -- conformal covariance ------------------------------------------------------


def test_conformal_spec_constants():
    spec = conformal_operator_spec()
    assert spec.constants() == (1.0, 0.5, 1.0)
    assert spec.m == 2.0


@pytest.mark.parametrize("n", [1, 2])
def test_conformal_change_of_variables(n):
    # A in the u = exp(-(Q-2) psi / 2) variable equals e^{2 psi} A[psi].
    gen = stream(8 + n)
    Q = 2 * n + 2
    for _ in range(25):
        psi = random_polynomial_field(gen, n, degree=2)
        u = AnalyticField(exp_of(Const(-(Q - 2.0) / 2.0) * psi.root), n)
        pts = gen.uniform(-0.8, 0.8, size=(4, 2 * n + 1))
        lhs = eval_A_u(u.jets(pts), pts)
        rhs = np.exp(2.0 * psi(pts))[:, None, None] * eval_A_psi(psi.jets(pts), pts)
        scale = 1.0 + np.abs(rhs).max()
        assert np.abs(lhs - rhs).max() <= 1e-8 * scale


def test_eval_a_u_batch_has_the_bits_of_its_points():
    # u's powers are taken point by point, so a batch gives what its points
    # give one at a time
    gen = stream(12)
    for n in (1, 2):
        psi = random_polynomial_field(gen, n, degree=2)
        u = AnalyticField(exp_of(Const(-float(n)) * psi.root), n)
        pts = gen.uniform(-0.8, 0.8, size=(100, 2 * n + 1))
        batch = eval_A_u(u.jets(pts), pts)
        for x, got in zip(pts, batch):
            np.testing.assert_array_equal(got, eval_A_u(u.jets(x), x))


def test_eval_a_u_constant_one_is_zero():
    np.testing.assert_allclose(eval_A_u(parse_field("1.0", 1).jets(ORIGIN), ORIGIN),
                               np.zeros((2, 2)), atol=1e-15)


def test_eval_a_u_requires_positive_value():
    pts = np.array([[0.5, 0.0, 0.0], [-0.5, 0.0, 0.0]])
    with pytest.raises(ValueError, match="positive"):
        eval_A_u(parse_field("x1", 1).jets(pts), pts)


# -- batched evaluation --------------------------------------------------------


def test_l_batch_matches_pointwise():
    # field coefficients over a batch agree with constant specs point by point
    gen = stream(9)
    alpha = parse_field("x1 - s", 1, extra_vars=("s",))
    spec = OperatorSpec(alpha=alpha, beta=0.5, gamma=parse_field("1.5 + 0.0*t", 1))
    coords = gen.uniform(-1, 1, size=(40, 3))
    s = gen.uniform(-1, 1, size=40)
    p = gen.normal(size=(40, 2))
    batch = L_stack(spec, coords, s, p)
    for i in range(40):
        a = alpha(coords[i], s=float(s[i]))
        single = L_at(OperatorSpec(alpha=a, beta=0.5, gamma=1.5), coords[i], float(s[i]), p[i])
        np.testing.assert_allclose(batch[i], single, atol=1e-13)


def test_coeff_values_batch_broadcasts_constants():
    spec = OperatorSpec(alpha=2.0, beta=-1.0, gamma=0.0)
    coords = np.zeros((7, 3))
    s = np.zeros(7)
    a, b, g = coefficient_values(spec, coords, s)
    assert a.shape == b.shape == g.shape == (7,)
    np.testing.assert_allclose(a, 2.0)
    np.testing.assert_allclose(b, -1.0)


def fd_grad_p_L(spec, coords, s, p, h=1e-6):
    """dL/dp_k by central differences, as an (N, 2n, 2n, 2n) stack indexed [:, k]."""
    m = p.shape[-1]
    return np.stack([(L_stack(spec, coords, s, p + h * e) - L_stack(spec, coords, s, p - h * e))
                     / (2 * h) for e in np.eye(m)], axis=1)


def field_spec(n):
    return OperatorSpec(alpha=parse_field("0.9 + 0.1*x1", n), beta=-0.4, gamma=1.1)


@pytest.mark.parametrize("n", [1, 2])
def test_gradient_term_transpose_against_finite_differences(n):
    # q_k = sum_ij G_ij dL_ij/dp_k for a symmetric G
    gen = stream(11, n)
    m = 2 * n
    coords = gen.uniform(-1, 1, size=(6, m + 1))
    s = gen.uniform(-1, 1, size=6)
    p = gen.normal(size=(6, m))
    G = gen.normal(size=(m, m, 6))
    G = G + G.transpose(1, 0, 2)
    q = gradient_term_transpose(field_spec(n), coords, s, list(p.T), G)
    fd = np.einsum("ijn,nkij->kn", G, fd_grad_p_L(field_spec(n), coords, s, p))
    np.testing.assert_allclose(np.array(q), fd, rtol=1e-7, atol=1e-7)


@pytest.mark.parametrize("n", [1, 2])
def test_p_gradient_norm_against_finite_differences(n):
    gen = stream(10, n)
    coords = gen.uniform(-1, 1, size=(6, 2 * n + 1))
    s = gen.uniform(-1, 1, size=6)
    p = gen.normal(size=(6, 2 * n))
    fd = fd_grad_p_L(field_spec(n), coords, s, p)
    np.testing.assert_allclose(_p_gradient_norm(field_spec(n), coords, s, p),
                               np.sqrt((fd**2).sum(axis=(1, 2, 3))), rtol=1e-7)


def test_grad_xi_l_batch_against_finite_differences():
    gen = stream(12)
    spec = OperatorSpec(
        alpha=parse_field("x1*t + y1", 1),
        beta=parse_field("x1 - 0.5*s", 1, extra_vars=("s",)),
        gamma=0.3,
    )
    coords = gen.uniform(-1, 1, size=(5, 3))
    s = gen.uniform(-1, 1, size=5)
    p = gen.normal(size=(5, 2))
    D = grad_xi_L(spec, coords, s, p)
    h = 1e-6
    for a in range(3):
        e = np.zeros(3)
        e[a] = h
        fd = (L_stack(spec, coords + e, s, p) - L_stack(spec, coords - e, s, p)) / (
            2 * h
        )
        assert np.abs(D[:, a] - fd).max() < 1e-6


def test_euler_identity_for_quadratic_family():
    # L is 2-homogeneous in p, so p . grad_p L = 2 L: on the transpose,
    # p . q(G) = 2 <G, L> for every symmetric G
    gen = stream(13)
    spec = OperatorSpec(alpha=1.3, beta=0.7, gamma=-0.2)
    coords = gen.uniform(-1, 1, size=(30, 5))
    s = gen.uniform(-1, 1, size=30)
    p = gen.normal(size=(30, 4))
    G = gen.normal(size=(4, 4, 30))
    G = G + G.transpose(1, 0, 2)
    q = np.array(gradient_term_transpose(spec, coords, s, list(p.T), G))
    GL = np.einsum("ijn,nij->n", G, L_stack(spec, coords, s, p))
    np.testing.assert_allclose(np.einsum("kn,nk->n", q, p), 2.0 * GL, atol=1e-12)


# -- structural conditions -----------------------------------------------------

@pytest.mark.parametrize("n", [1, 2])
def test_structural_conformal_spec_passes(n):
    report = check_structural(conformal_operator_spec(), box_domain(n), 21, 1500)
    assert report.passed
    assert report.branch == "positive"
    assert report.condition("euler_excess_upper_bound").required
    assert not report.condition("euler_excess_lower_bound").required
    for name in ("xi_gradient_bound", "p_gradient_bound", "monotone_in_s"):
        assert report.condition(name).passed, name


def test_structural_decreasing_alpha_fails_monotonicity():
    spec = OperatorSpec(
        alpha=parse_field("0.0 - s", 1, extra_vars=("s",)), beta=0.5, gamma=1.0
    )
    report = check_structural(spec, box_domain(1), 22, 800)
    assert not report.passed
    cond = report.condition("monotone_in_s")
    assert not cond.passed
    assert cond.margin < 0
    w = cond.witness
    assert w is not None
    assert w["s"] <= w["s_prime"]
    assert len(w["xi"]) == 3 and len(w["p"]) == 2
    # the witness reproduces the reported margin
    from heisvisc.cones import eigenvalues

    diff = L_at(spec, w["xi"], w["s_prime"], np.array(w["p"])) - L_at(
        spec, w["xi"], w["s"], np.array(w["p"])
    )
    assert abs(eigenvalues(diff[None])[0, 0] - w["margin"]) < 1e-9


def test_structural_negative_branch():
    spec = OperatorSpec(alpha=0.0, beta=-1.0, gamma=0.0)
    report = check_structural(spec, box_domain(1), 23, 1000)
    assert report.passed
    assert report.branch == "negative"
    assert report.condition("euler_excess_lower_bound").required
    assert not report.condition("euler_excess_upper_bound").required


def test_structural_constant_branch_zero_gamma():
    spec = OperatorSpec(alpha=1.0, beta=0.05, gamma=0.0)
    report = check_structural(spec, box_domain(1), 24, 500)
    # beta below beta0 on both sides, so only the constant-coefficient branch fits
    assert report.branch == "constant"
    assert not report.condition("euler_excess_upper_bound").required
    assert not report.condition("euler_excess_lower_bound").required


@pytest.mark.parametrize("count", [0, -3])
def test_structural_refuses_count_below_one(count):
    with pytest.raises(ValueError, match="count must be at least 1"):
        check_structural(conformal_operator_spec(), box_domain(1), 25, count)


# -- validation ----------------------------------------------------------------


def test_operator_spec_validation():
    with pytest.raises(ValueError):
        OperatorSpec(alpha="1.0")
    with pytest.raises(ValueError):
        OperatorSpec(alpha=lambda coords, s: 1.0)
    for m in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            OperatorSpec(m=m)
    spec = OperatorSpec(alpha=2, beta=0.5, gamma=1)
    assert spec.is_constant and isinstance(spec.alpha, float)
    with pytest.raises(ValueError):
        OperatorSpec(alpha=parse_field("x1", 1)).constants()
