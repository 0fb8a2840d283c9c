"""The nonlinear operator family and its structural-condition checker.

The operators evaluated here have the form

    F[psi] = (symmetrized horizontal Hessian of psi) + L(xi, psi, horizontal gradient),

with the quadratic gradient family

    L(xi, s, p) = alpha(xi, s) p (x) p - gamma(xi, s) Jp (x) Jp - beta(xi, s) |p|^2 I,

where (x) is the outer product and J = [[0, I], [-I, 0]].  Coefficients are
constants or analytic fields in (x, y, t, s).  L is quadratic in the
gradient, so its growth exponent is m = 2 everywhere it is read (the
structural gate, the key-lemma shift and the Lemma 3.5 pencil), not a
setting.  ``contract`` is the one frame contraction: it turns Euclidean
derivatives into F and the horizontal gradient, and the grid operator
(finite differences) and ``eval_F`` (exact jets of an analytic field) both
call it; ``contract_transpose`` is its transpose, which the solver's
Jacobian is built from; ``gradient_term`` is the one L, and
``gradient_term_transpose`` the transpose of its p-derivative, which both
the solver's Jacobian and the structural gate read.
The conformal pair: ``eval_A_psi`` is F with alpha = gamma = 1, beta = 1/2,
and ``eval_A_u`` is the equivalent form in the substitution
u = exp(-(Q-2) psi / 2), Q = 2n + 2, satisfying A^u = e^{2 psi} A[psi].

``check_structural`` samples the growth, monotonicity, and sign conditions
under which the comparison machinery downstream is justified, reporting a
minimum margin and witness per condition.  Matrix inequalities are checked
as smallest-eigenvalue margins; required conditions depend on which sign
branch the coefficient structure satisfies.
"""

from dataclasses import dataclass

import numpy as np

from .cones import eigenvalues
from .core import frame_t_coefficients
from .fields import AnalyticField
from .rng import stream

__all__ = [
    "OperatorSpec",
    "ConditionCheck",
    "StructuralReport",
    "coefficient_values",
    "gradient_term",
    "gradient_term_transpose",
    "frame_terms",
    "contract",
    "contract_transpose",
    "eval_F",
    "eval_A_psi",
    "eval_A_u",
    "conformal_operator_spec",
    "check_structural",
]


@dataclass(frozen=True)
class OperatorSpec:
    """Coefficients (alpha, beta, gamma) of the family."""

    alpha: object = 0.0
    beta: object = 0.0
    gamma: object = 0.0

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            c = getattr(self, name)
            if isinstance(c, (int, float, np.floating, np.integer)):
                object.__setattr__(self, name, float(c))
            elif not isinstance(c, AnalyticField):
                raise ValueError(f"{name} must be a number or an AnalyticField")

    @property
    def is_constant(self):
        return all(
            isinstance(getattr(self, c), float) for c in ("alpha", "beta", "gamma")
        )

    @property
    def is_zero(self):
        """Whether L vanishes identically: every coefficient is the constant 0."""
        return self.is_constant and not any((self.alpha, self.beta, self.gamma))


def conformal_operator_spec():
    """The distinguished spec alpha = gamma = 1, beta = 1/2."""
    return OperatorSpec(alpha=1.0, beta=0.5, gamma=1.0)


def coefficient_values(spec, coords, s):
    """(alpha, beta, gamma) at flat coordinates ``coords`` (..., 2n+1) and
    solution values ``s``, as arrays of the shape of ``s``."""
    out = []
    for c in (spec.alpha, spec.beta, spec.gamma):
        if isinstance(c, AnalyticField):
            c = c(coords, s=s) if "s" in c.extra_vars else c(coords)
        out.append(np.broadcast_to(np.asarray(c, dtype=float), np.shape(s)))
    return tuple(out)


def gradient_term(spec, coords, s, p):
    """L = alpha p(x)p - gamma Jp(x)Jp - beta |p|^2 I entry by entry.

    ``p`` lists the 2n horizontal gradient components, each an array of the
    shape of ``s``; ``coords`` and ``s`` are as in :func:`coefficient_values`.
    Returns ``L[i][j]`` (the same array object as ``L[j][i]``).  Entries are
    grouped as a (p_i p_j) - g (Jp_i Jp_j), with |p|^2 summed left to right.
    """
    m, n = len(p), len(p) // 2
    if m + 1 != np.shape(coords)[-1]:
        raise ValueError("p must be a horizontal vector of length 2n")
    a, b, g = coefficient_values(spec, coords, s)
    Jp = list(p[n:]) + [-q for q in p[:n]]
    bsq = b * sum(q * q for q in p)
    L = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            Lij = a * (p[i] * p[j]) - g * (Jp[i] * Jp[j])
            L[i][j] = L[j][i] = Lij - bsq if i == j else Lij
    return L


def gradient_term_transpose(spec, coords, s, p, G):
    """q = d r / d p for a scalar r reading L through dr/dL_ij = ``G[i][j]``.

    The transpose of :func:`gradient_term`'s p-derivative, entry by entry:
    with G symmetric, q = 2a Gp - 2g J^T G Jp - 2b tr(G) p.  Arguments are
    as in :func:`gradient_term`; returns the list of 2n arrays q_k.
    """
    m, n = len(p), len(p) // 2
    a, b, g = coefficient_values(spec, coords, s)
    Jp = list(p[n:]) + [-q for q in p[:n]]
    Gp = [sum(G[k][j] * p[j] for j in range(m)) for k in range(m)]
    GJp = [sum(G[k][j] * Jp[j] for j in range(m)) for k in range(m)]
    JtGJp = [-q for q in GJp[n:]] + GJp[:n]
    btr = 2.0 * b * sum(G[k][k] for k in range(m))
    return [2.0 * a * Gp[k] - 2.0 * g * JtGJp[k] - btr * p[k] for k in range(m)]


def frame_terms(coords):
    """The frame's t-coefficients c at ``coords`` with 2 c_i and c_i c_j,
    each a list of arrays: the per-point factors of :func:`contract`."""
    c = frame_t_coefficients(coords)
    c = [c[..., i].copy() for i in range(c.shape[-1])]
    return c, [2.0 * ci for ci in c], [[ci * cj for cj in c] for ci in c]


def contract(spec, coords, u, H, grad, terms=None):
    """F = (symmetrized horizontal Hessian) + L and the horizontal gradient p.

    ``H[a][b]`` and ``grad[a]`` are the Euclidean second and first
    derivatives of u in the flat coordinate axes, arrays of the shape of
    ``u``, at the points ``coords`` (that shape + (2n+1,)).  With c the
    t-coefficients of the frame rows (:func:`heisvisc.core.frame_t_coefficients`),

        F_ij = H_ij + c_i H_jt + c_j H_it + c_i c_j H_tt,    p_i = d_i u + c_i d_t u,

    and L (:func:`gradient_term`) at (coords, u, p) is added entry by entry.
    ``grad`` may be None only when L is identically zero; p is then None
    too.  ``terms`` are the :func:`frame_terms` of ``coords``, for callers
    that reuse them.  Returns ``F[i][j]`` (the same array object as
    ``F[j][i]``) and the list ``p``.
    """
    c, c2, cc = frame_terms(coords) if terms is None else terms
    m = len(c)
    Ht = H[m]
    F = [[None] * m for _ in range(m)]
    for i in range(m):
        F[i][i] = H[i][i] + c2[i] * Ht[i] + cc[i][i] * Ht[m]
        for j in range(i + 1, m):
            F[i][j] = F[j][i] = H[i][j] + c[i] * Ht[j] + c[j] * Ht[i] + cc[i][j] * Ht[m]
    if grad is None:
        return F, None
    p = [grad[i] + c[i] * grad[m] for i in range(m)]
    if spec.is_zero:
        return F, p
    L = gradient_term(spec, coords, u, p)
    for i in range(m):
        for j in range(i, m):
            F[i][j] = F[j][i] = F[i][j] + L[i][j]
    return F, p


def contract_transpose(G, c, q=None):
    """The transpose of :func:`contract`'s map from Euclidean derivatives to (F, p).

    For a scalar r with dr/dF_ij = ``G[i][j]`` (symmetric) and
    dr/dp_i = ``q[i]``, returns the coefficients ``H[a][b]`` (the same array
    object as ``H[b][a]``) and ``grad[a]`` with which r reads each Euclidean
    second and first derivative; an off-diagonal pair H_ab = H_ba counts as
    one derivative.  With ``c`` the frame t-coefficients (the first of
    :func:`frame_terms`), over the horizontal indices a != b,

        H_aa = G_aa,  H_ab = 2 G_ab,  H_at = 2 (G c)_a,  H_tt = c^T G c,
        grad_a = q_a,  grad_t = q . c.

    L enters through q alone (its p-derivative contracted with G); ``grad``
    is None when ``q`` is.
    """
    m = len(c)
    Gc = [sum(G[a][i] * c[i] for i in range(m)) for a in range(m)]
    H = [[None] * (m + 1) for _ in range(m + 1)]
    for a in range(m):
        H[a][a] = G[a][a]
        for b in range(a + 1, m):
            H[a][b] = H[b][a] = 2.0 * G[a][b]
        H[a][m] = H[m][a] = 2.0 * Gc[a]
    H[m][m] = sum(c[a] * Gc[a] for a in range(m))
    if q is None:
        return H, None
    return H, list(q) + [sum(q[a] * c[a] for a in range(m))]


def _stacked(M):
    """Entry lists ``M[i][j]`` as one array with the matrix axes last."""
    return np.stack([np.stack(row, axis=-1) for row in M], axis=-2)


def eval_F(spec, field, points):
    """F[psi] and the horizontal gradient of an analytic field at ``points``.

    ``points`` has shape S + (2n+1,); the exact jets of ``field`` go
    through :func:`contract`.  Returns F with shape S + (2n, 2n) and p with
    shape S + (2n,).
    """
    points = np.asarray(points, dtype=float)
    u, grad, H = field.jets(points)
    F, p = contract(spec, points, u, H, grad)
    return _stacked(F), np.stack(p, axis=-1)


def eval_A_psi(jets, points):
    """The distinguished conformally covariant operator applied to psi.

    ``jets`` is psi's (value, gradient, Hessian) at ``points`` as
    :meth:`~heisvisc.fields.AnalyticField.jets` gives them.
    """
    u, grad, H = jets
    F, _ = contract(conformal_operator_spec(), np.asarray(points, dtype=float), u, H, grad)
    return _stacked(F)


def _scalar_power(x, c):
    """x ** c point by point, each as a numpy scalar: numpy's vectorised power
    can differ in the last bit, so a batch gets the bits of its points one at
    a time."""
    return np.array([v ** c for v in np.ravel(x)]).reshape(np.shape(x))


def eval_A_u(jets, points):
    """The conformal operator in the u-variable at ``points``; requires u > 0.

    ``jets`` is u's (value, gradient, Hessian) there, as for
    :func:`eval_A_psi`.  Satisfies A^u = e^{2 psi} A[psi] for
    u = exp(-(Q-2) psi / 2), Q = 2n + 2.  With q = Q - 2 it is
    -(2/q) u^{-(Q+2)/q} times the symmetrized Hessian of u plus u^{-2Q/q}
    times L at the constants alpha = 2Q/q^2, beta = 2/q^2, gamma = 4/q^2.
    """
    points = np.asarray(points, dtype=float)
    u, grad, H = jets
    if np.any(u <= 0):
        raise ValueError("eval_A_u requires a positive function value")
    q2 = points.shape[-1] - 1.0
    Q = q2 + 2.0
    hess, g = contract(OperatorSpec(), points, u, H, grad)
    L = gradient_term(
        OperatorSpec(alpha=2.0 * Q / q2**2, beta=2.0 / q2**2, gamma=4.0 / q2**2), points, u, g
    )
    hess_part = (-(2.0 / q2) * _scalar_power(u, -(Q + 2.0) / q2))[..., None, None] * _stacked(hess)
    return hess_part + _scalar_power(u, -2.0 * Q / q2)[..., None, None] * _stacked(L)


# -- structural condition checking -------------------------------------------


@dataclass
class ConditionCheck:
    name: str
    margin: float
    tol: float
    passed: bool
    required: bool
    witness: dict | None = None


@dataclass
class StructuralReport:
    samples: int
    branch: str
    conditions: list
    passed: bool

    def condition(self, name):
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)


def _stacked_gradient_term(spec, coords, s, p):
    """:func:`gradient_term` at samples p (N, 2n), stacked to (N, 2n, 2n)."""
    return _stacked(gradient_term(spec, coords, s, list(p.T)))


def _p_gradient_norm(spec, coords, s, p):
    """Frobenius norm of dL/dp at samples p (N, 2n), shape (N,).

    Read from :func:`gradient_term_transpose`: with G the unit symmetric
    matrix of the pair i <= j, q = dL_ij/dp, doubled when i != j.  Each
    pair is one row of G's leading axis, so one call reads them all.
    """
    m = p.shape[-1]
    pairs = [(i, j) for i in range(m) for j in range(i, m)]
    G = [[np.array([[float({a, b} == {i, j})] for i, j in pairs]) for b in range(m)]
         for a in range(m)]
    weight = np.array([[1.0 if i == j else 0.5] for i, j in pairs])
    q = gradient_term_transpose(spec, coords, s, list(p.T), G)
    return np.sqrt(sum((weight * qk * qk).sum(axis=0) for qk in q))


def grad_xi_L(spec, coords, s, p):
    """Gradient of L in the spatial coordinates, (N, 2n+1, 2n, 2n)."""
    N, d = coords.shape
    nn = p.shape[-1]
    out = np.zeros((N, d, nn, nn))
    for name in ("alpha", "gamma", "beta"):
        c = getattr(spec, name)
        if isinstance(c, float):
            continue
        # L is linear in each coefficient: dL/dc is L with c = 1, the others 0
        dL_dc = _stacked_gradient_term(OperatorSpec(**{name: 1.0}), coords, s, p)
        extra = {"s": s} if "s" in c.extra_vars else {}
        grads = c.jets(coords, **extra)[1]   # (2n+1, N): exact, all samples at once
        out += np.einsum("an,nij->naij", grads, dL_dc)
    return out


def _min_eig(mats):
    return eigenvalues(mats)[:, 0]


def _witness(idx, coords, s1, s2, p, theta, margin):
    return {
        "xi": coords[idx].tolist(),
        "s": float(s1[idx]),
        "s_prime": float(s2[idx]),
        "p": p[idx].tolist(),
        "theta": float(theta[idx]),
        "margin": float(margin[idx]),
    }


# the gate's constants (check_structural gives their roles), met by the
# constant-coefficient specs the solver accepts on boxes of radius up to two
_R, _P_LO, _P_HI, _THETA_BAR = 2.0, 1e-3, 10.0, 0.04
_C, _M, _LAMBDA, _BETA0 = 6.0, 2.0, 1.0, 0.25


def check_structural(spec, box, seed, count):
    """Sample the structural conditions on a box and report margins.

    Conditions checked (matrix inequalities as smallest-eigenvalue margins,
    scalar inequalities as slacks; a sample passes when margin >= -tol with
    tol = 1e-8 * (1 + magnitude scale)), with C = 6, m = 2, Lambda = 1 and
    theta in [0, 0.04]:

    - xi_gradient_bound:   |grad_xi L| <= C |p|^m
    - p_gradient_bound:    |grad_p L| <= C |p|
    - monotone_in_s:       L(s') - L(s) >= 0 for s <= s'
    - s_growth_bound:      L(s') - L(s) <= C (s' - s) |p|^m I
    - euler_excess_upper_bound:
        p.grad_p L - L + theta Lambda |grad_p L| I - theta I
            <= C p(x)p - (1/C) |p|^m I
    - euler_excess_lower_bound (mirror with >= and flipped theta signs)
    - coefficient_sign_structure: one of the three sign branches holds

    |grad_p L| is read from :func:`gradient_term_transpose`, the
    p-derivative the solver's Jacobian uses, and the Euler excess
    p.grad_p L - L is L itself, L being 2-homogeneous in p.  The ``count``
    samples (at least one) come from the stream of ``seed``; they take
    s <= s' in [-2, 2] and |p| log-uniform in [1e-3, 10].  Which
    euler-excess side is required follows the sign branch: beta >= 0.25
    (and gamma >= 0) requires the upper bound, beta <= -0.25 (and
    gamma <= 0) the lower, and the constant-coefficient gamma == 0 branch
    neither.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    gen = stream(seed, 101)
    N = count
    nn = 2 * box.n

    coords = box.sample_points(gen, N)
    s_pair = np.sort(gen.uniform(-_R, _R, size=(N, 2)), axis=1)
    s1, s2 = s_pair[:, 0], s_pair[:, 1]
    direction = gen.normal(size=(N, nn))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radius = np.exp(gen.uniform(np.log(_P_LO), np.log(_P_HI), size=N))
    p = direction * radius[:, None]
    theta = gen.uniform(0.0, _THETA_BAR, size=N)

    pn = np.linalg.norm(p, axis=1)
    pm = pn**_M
    eye = np.eye(nn)
    pp = np.einsum("ni,nj->nij", p, p)

    L1 = _stacked_gradient_term(spec, coords, s1, p)
    L2 = _stacked_gradient_term(spec, coords, s2, p)
    norm_Dp = _p_gradient_norm(spec, coords, s1, p)
    Dxi = grad_xi_L(spec, coords, s1, p)
    norm_Dxi = np.sqrt(np.einsum("naij->n", Dxi**2))

    conditions = []

    def add(name, margins, scales, required):
        tol = 1e-8 * (1.0 + scales)
        ok = margins >= -tol
        idx = int(np.argmin(margins + tol))  # worst relative slack
        conditions.append(
            ConditionCheck(
                name=name,
                margin=float(margins[idx]),
                tol=float(tol[idx]),
                passed=bool(ok.all()),
                required=required,
                witness=None
                if ok.all()
                else _witness(idx, coords, s1, s2, p, theta, margins),
            )
        )

    # scalar growth bounds
    add("xi_gradient_bound", _C * pm - norm_Dxi, pm + norm_Dxi, True)
    add("p_gradient_bound", _C * pn - norm_Dp, pn + norm_Dp, True)

    # monotonicity and growth in s
    diff = L2 - L1
    diff_scale = np.abs(diff).reshape(N, -1).max(axis=1)
    add("monotone_in_s", _min_eig(diff), diff_scale, True)
    upper = (_C * (s2 - s1) * pm)[:, None, None] * eye - diff
    add(
        "s_growth_bound",
        _min_eig(upper),
        diff_scale + _C * (s2 - s1) * pm,
        True,
    )

    # sign branch
    _, b1, g1 = coefficient_values(spec, coords, s1)
    _, b2, g2 = coefficient_values(spec, coords, s2)
    balls = np.concatenate([b1, b2])
    galls = np.concatenate([g1, g2])
    branch_pos = min(balls.min() - _BETA0, galls.min())
    branch_neg = min(-balls.max() - _BETA0, -galls.max())
    const_ab = isinstance(spec.alpha, float) and isinstance(spec.beta, float)
    branch_zero = 0.0 if (const_ab and np.abs(galls).max() == 0.0) else -np.inf
    branches = {"positive": branch_pos, "negative": branch_neg, "constant": branch_zero}
    branch = max(branches, key=branches.get)
    add(
        "coefficient_sign_structure",
        np.array([branches[branch]]),
        np.array([np.abs(balls).max() + np.abs(galls).max()]),
        True,
    )

    # euler excess bounds; the required side follows the branch
    excess = L1   # p.grad_p L - L, as L is 2-homogeneous in p
    theta_term = (theta * _LAMBDA * norm_Dp)[:, None, None] * eye
    theta_eye = theta[:, None, None] * eye
    rhs_up = _C * pp - (pm / _C)[:, None, None] * eye
    up_scale = np.abs(rhs_up).reshape(N, -1).max(axis=1) + np.abs(excess).reshape(
        N, -1
    ).max(axis=1)
    add(
        "euler_excess_upper_bound",
        _min_eig(rhs_up - (excess + theta_term - theta_eye)),
        up_scale,
        branch == "positive",
    )
    add(
        "euler_excess_lower_bound",
        _min_eig((excess - theta_term + theta_eye) + rhs_up),
        up_scale,
        branch == "negative",
    )

    passed = all(c.passed for c in conditions if c.required)
    return StructuralReport(
        samples=N, branch=branch, conditions=conditions, passed=passed
    )
