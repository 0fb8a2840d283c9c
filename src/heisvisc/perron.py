"""Bracketed semismooth Newton solver between an ordered sub/supersolution pair.

Given grid fields v <= w that agree on the boundary, the solver looks for
a field u with v <= u <= w whose operator matrix sits on the admissible-set
boundary (rho(F[u]) = 0) at every interior node it does not hold at a
bound, by a primal-dual active-set (semismooth Newton) iteration
(Hintermueller-Ito-Kunisch, SIAM J. Optim. 13, 2002).  Every iterate's
rho, Newton value and band, its Jacobian (closed form, one row of weights
per stencil offset that carries weight) and the Jacobian's apply come from
:class:`heisvisc.viscosity.GridOperator`, the one lattice scheme, which
the classifier also uses, for every n.  The linear solves are inexact:
each Newton step's BiCGSTAB tolerance follows the outer progress
(Eisenstat-Walker forcing terms), and after an active-set update it starts
from the last solution.  Starting from v and from w and comparing is the
numerical uniqueness check: :func:`uniqueness_gap` runs both starts, and
``heisvisc solve`` reports it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import ConeSpec
from .fields import (AnalyticField, Const, Domain, GridField, coordinate_names, parse_field,
                     sample)
from .operators import OperatorSpec, check_structural
from .viscosity import GridOperator

__all__ = [
    "Problem",
    "SolveResult",
    "UniquenessReport",
    "boundary_bump",
    "bracket_from_boundary",
    "solve",
    "uniqueness_gap",
]

_GATE_SEED, _GATE_COUNT = 2357, 400
_BOUNDARY_AGREE_TOL = 1e-10


def boundary_bump(domain):
    """Smooth field positive inside the box and zero on its whole boundary.

    Product over axes of 1 - s^2 with s the axis coordinate rescaled to
    [-1, 1]; handy for manufacturing ordered brackets around boundary data.
    """
    n = domain.n
    parts = []
    for a, name in enumerate(coordinate_names(n)):
        lo, hi = (float(e) for e in domain.box[a])
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        parts.append(f"(1.0 - (({name} - {mid!r})/{half!r})^2)")
    return parse_field("*".join(parts), n)


def bracket_from_boundary(g, domain, res, scale):
    """Sampled pair (v, w) = g -/+ scale*bump, ordered and boundary-equal."""
    if scale <= 0.0:
        raise ValueError("bracket scale must be positive")
    bump = boundary_bump(domain)
    low = AnalyticField(g.root - Const(scale) * bump.root, g.n, g.extra_vars)
    high = AnalyticField(g.root + Const(scale) * bump.root, g.n, g.extra_vars)
    return sample(low, domain, res), sample(high, domain, res)


@dataclass
class Problem:
    """A solver instance: operator, admissible set, boundary data, bracket.

    Validated at construction, each failure refused with a ValueError
    that names it: both bracket fields are finite (the first non-finite
    node is named), the bracket is ordered, it agrees with the boundary
    data on the boundary ring to 1e-10 (a NaN gap is refused too), the
    coefficients are constant (the solver path does not handle coefficient
    fields), and the operator passes the structural gate
    (:func:`~heisvisc.operators.check_structural`, 400 samples).
    """

    spec: OperatorSpec
    cone: ConeSpec
    boundary: AnalyticField
    sub: GridField
    sup: GridField

    def __post_init__(self):
        sub, sup = self.sub, self.sup
        if sub.n != sup.n or sub.res != sup.res or not np.array_equal(sub.box, sup.box):
            raise ValueError("fields live on different lattices")
        for side, g in (("lower", sub), ("upper", sup)):
            bad = ~np.isfinite(g.values)
            if bad.any():
                node = np.unravel_index(np.argmax(bad), bad.shape)
                raise ValueError(f"{side} bracket is not finite at node "
                                 f"{tuple(map(int, node))}: {float(g.values[node])}")
        if not (self.sub.values <= self.sup.values).all():
            raise ValueError("lower bracket exceeds upper bracket at some node")
        bmask = self.sub.boundary_mask()
        gap = np.abs(self.sub.values[bmask] - self.sup.values[bmask]).max()
        if not gap <= _BOUNDARY_AGREE_TOL:
            raise ValueError(f"bracket fields differ by {gap:.3e} on the boundary")
        bdata = self.boundary(self.sub.coords_full()[bmask])
        data_gap = np.abs(bdata - self.sub.values[bmask]).max()
        if not data_gap <= _BOUNDARY_AGREE_TOL:
            raise ValueError(
                f"boundary data differs from the bracket by {data_gap:.3e} on the boundary"
            )
        if not self.spec.is_constant:
            raise ValueError("the solver path requires constant coefficients")
        report = check_structural(self.spec, self.domain, _GATE_SEED, _GATE_COUNT)
        if not report.passed:
            failing = [c.name for c in report.conditions if c.required and not c.passed]
            raise ValueError(f"operator fails the structural gate: {failing}")

    @property
    def domain(self):
        return Domain(self.sub.box)

    @property
    def res(self):
        return self.sub.res


@dataclass
class SolveResult:
    u: GridField
    iterations: int
    residuals: np.ndarray
    converged: bool
    final_residual: float
    held: int
    applies: int    # Jacobian-vector products the solve spent


_SHRINKS = 10          # step halvings a Newton step may try before the solve gives up
_SET_UPDATES = 5       # active-set updates of one Newton step's linearised problem
_FORCING_FIRST = 0.1   # relative linear residual the first Newton step asks
_FORCING_MIN = 1e-4    # the bounds of every later step's forcing term
_FORCING_MAX = 0.5


def _dot(a, b):
    # numpy's own loop: a BLAS dot can wait milliseconds on its threads
    return float(np.einsum("i,i->", a, b))


def _bicgstab(apply, b, diag, rtol, maxiter, x0=None):
    """Jacobi-preconditioned BiCGSTAB for apply(x) = b on flat vectors.

    Starts from ``x0`` (zero when None; a given x0 costs the one apply
    that measures its residual) and stops once the residual is at most
    ``rtol`` times |b|, returning x0 itself when it already is.
    """
    if x0 is None:
        x = np.zeros_like(b)
        r = b.copy()
    else:
        x = x0.copy()
        r = b - apply(x)
    goal = rtol * rtol * _dot(b, b)
    if _dot(r, r) <= goal:
        return x
    r0 = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros_like(b)
    p = np.zeros_like(b)
    for _ in range(maxiter):
        rho_next = _dot(r0, r)
        if rho_next == 0.0 or omega == 0.0:
            break
        p = r + (rho_next / rho) * (alpha / omega) * (p - omega * v)
        rho = rho_next
        ph = p / diag
        v = apply(ph)
        alpha = rho / _dot(r0, v)
        s = r - alpha * v
        x += alpha * ph
        if _dot(s, s) <= goal:
            break
        sh = s / diag
        t = apply(sh)
        tt = _dot(t, t)
        omega = _dot(t, s) / tt if tt > 0.0 else 0.0
        x += omega * sh
        r = s - omega * t
        if _dot(r, r) <= goal:
            break
    return x


def _forcing(eta, resid, last, tol, damped):
    """The next Newton step's linear tolerance (Eisenstat-Walker choice 2).

    The first step (``last`` None) asks 0.1.  Later ones ask
    0.9 (resid / last)^2, kept at least 0.9 eta^2 when that exceeds 0.1 and
    clipped to [1e-4, 0.5]; after a step the halving shortened (``damped``)
    the iteration is not in its local phase, so the tolerance does not
    loosen.  Every tolerance is raised to 0.5 tol / resid, so that no step
    is solved past what ``tol`` can see.
    """
    if last is None:
        nxt = _FORCING_FIRST
    else:
        # a zero residual that has not converged only happens with tol <= 0
        nxt = 0.9 * (resid / last) ** 2 if last > 0.0 else 0.0
        if 0.9 * eta * eta > 0.1:
            nxt = max(nxt, 0.9 * eta * eta)
        nxt = min(max(nxt, _FORCING_MIN), _FORCING_MAX)
        if damped:
            nxt = min(nxt, eta)
    return max(nxt, 0.5 * tol / resid) if resid > 0.0 else nxt


def solve(problem, tol=1e-10, max_iter=100, start="sub"):
    """Solve rho(F[u]) = 0 between the bracket by semismooth Newton.

    A primal-dual active-set (semismooth Newton) iteration on the natural
    residual u - clip(u + r / |J_kk|, v, w), with the boundary ring pinned.
    r is rho, or for ``sigma_k`` the active e_j, which has the same sign and
    zero set (:func:`heisvisc.cones.newton_values`), and J its Jacobian
    in the interior values.  Each step solves the linearised problem by
    active sets, starting from the held sets of the step before (none at
    the first): J delta = -r on the free nodes, with delta at its bound on
    the held ones (Jacobi-preconditioned BiCGSTAB), a free node the step
    carries out of the bracket is held at that bound, and a held node whose
    linearised r points back into the bracket is freed, until the sets
    settle (at most five updates).  The step is then halved, at most ten
    times, until the largest natural residual falls.

    The linear solves are inexact (Dembo-Eisenstat-Steihaug, SIAM J.
    Numer. Anal. 19, 1982): BiCGSTAB stops once |r + J delta| on the free
    nodes is at most eta times |r| there.  The forcing term eta follows the
    outer progress (Eisenstat-Walker choice 2, SIAM J. Sci. Comput. 17,
    1996): 0.1 at the first step, then 0.9 (res_k / res_k-1)^2 with their
    safeguard, clipped to [1e-4, 0.5], held down after a halved step and
    raised to 0.5 tol / res_k (see ``_forcing``).  After an active-set
    update BiCGSTAB starts from the last solution, with the newly held
    nodes moved to their bounds, instead of from zero.  A step that finds
    no descent is solved again at eta = 1e-4; when that finds none either
    the solve ends unconverged.  ``applies`` counts the Jacobian-vector
    products the solve spent.

    Every iterate is evaluated by
    :class:`heisvisc.viscosity.GridOperator`, the scheme the classifier
    uses.  A node is held when it sits on its bound with rho
    pointing out of the bracket; the residual is the largest amount by
    which |rho| exceeds the admissible-set boundary band on the other
    nodes, and the solve has converged when it is below ``tol``.  That
    residual bottoms out at exactly 0, so ``tol`` must be a positive finite
    number; any other value raises ``ValueError``.  ``max_iter`` counts
    Newton steps and must not be negative (0 evaluates the start only).
    Starting from the lower bracket or the upper one and comparing is the
    numerical uniqueness check (:func:`uniqueness_gap`).
    """
    if not (tol > 0.0 and np.isfinite(tol)):
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")
    if not max_iter >= 0:
        raise ValueError(f"max_iter must be a non-negative number of Newton steps, "
                         f"got {max_iter!r}")
    if start not in ("sub", "super"):
        raise ValueError(f"start must be 'sub' or 'super', got {start!r}")
    if any(r < 3 for r in problem.res):
        raise ValueError("solving needs at least one interior node per axis")
    v = problem.sub.values
    w = problem.sup.values
    if np.array_equal(v, w):
        return SolveResult(u=problem.sub.copy(), iterations=0, residuals=np.empty(0),
                           converged=True, final_residual=0.0, held=0, applies=0)

    op = GridOperator(problem.sub, problem.spec, problem.cone)
    inner = op.inner
    v_int, w_int = v[inner], w[inner]
    full = (v if start == "sub" else w).copy()
    bmask = problem.sub.boundary_mask()
    full[bmask] = v[bmask]

    def evaluate(u):
        full[inner] = u
        F, p, rho, r, band = op.evaluate(full)
        held = ((u == v_int) & (rho < 0.0)) | ((u == w_int) & (rho > 0.0))
        excess = np.maximum(np.abs(rho) - band, 0.0)
        resid = float(excess[~held].max()) if not held.all() else 0.0
        return F, p, r, held, resid

    applies = 0

    def jv(J, x):
        nonlocal applies
        applies += 1
        return op.apply(J, x)

    def direction(u, F, p, r, lo, hi, eta):
        """The step of the linearised problem, its held sets and |J_kk|."""
        J, diagonal = op.jacobian(F, u, p)
        scale = np.abs(diagonal)
        scale = np.maximum(scale, 1e-12 * scale.max())
        delta = np.zeros(u.shape)
        for updates in range(_SET_UPDATES + 1):
            free = ~(lo | hi)
            # held nodes go to their bound; free ones start from the last solution
            delta = np.where(lo, v_int - u, np.where(hi, w_int - u, delta)).ravel()
            mask = free.ravel()
            delta = _bicgstab(lambda x: jv(J, x) * mask, np.where(mask, -r.ravel(), 0.0),
                              -scale.ravel(), eta, 10 * max(op.shape),
                              delta if delta.any() else None)
            delta = delta.reshape(u.shape)
            if updates == _SET_UPDATES:
                break
            # the linearised r at held nodes; free nodes need only their target
            lin = r if free.all() else r + jv(J, delta).reshape(u.shape)
            next_lo = np.where(lo, lin <= 0.0, u + delta < v_int)
            next_hi = np.where(hi, lin >= 0.0, u + delta > w_int)
            if np.array_equal(next_lo, lo) and np.array_equal(next_hi, hi):
                break
            lo, hi = next_lo, next_hi
        return delta, lo, hi, scale

    def natural(x, rx, scale):
        return float(np.abs(x - np.clip(x + rx / scale, v_int, w_int)).max())

    def descend(u, F, p, r, lo, hi, eta):
        """The accepted trial, its held sets, halvings and state, or None."""
        delta, lo, hi, scale = direction(u, F, p, r, lo, hi, eta)
        merit = natural(u, r, scale)
        for halving in range(_SHRINKS + 1):
            size = 0.5**halving
            trial = np.where(lo, (1.0 - size) * u + size * v_int,
                             np.where(hi, (1.0 - size) * u + size * w_int,
                                      np.clip(u + size * delta, v_int, w_int)))
            state = evaluate(trial)
            if natural(trial, state[2], scale) < merit:
                return trial, lo, hi, halving, state
        return None

    u = full[inner].copy()
    F, p, r, held, resid = evaluate(u)
    history = []
    steps = 0
    converged = resid < tol
    # the held sets of one step's linearised problem start the next one's
    lo = hi = np.zeros(u.shape, dtype=bool)
    eta = last = None
    damped = False
    while not converged and steps < max_iter:
        eta = _forcing(eta, resid, last, tol, damped)
        found = descend(u, F, p, r, lo, hi, eta)
        if found is None and eta > _FORCING_MIN:
            # a step that finds no descent is solved again at the floor
            # before the solve gives up
            eta = _FORCING_MIN
            found = descend(u, F, p, r, lo, hi, eta)
        if found is None:
            break
        u, lo, hi, halving, state = found
        damped = halving > 0
        last = resid
        F, p, r, held, resid = state
        steps += 1
        history.append(resid)
        converged = resid < tol

    full[inner] = u
    return SolveResult(
        u=GridField(problem.sub.n, problem.sub.box.copy(), full),
        iterations=steps,
        residuals=np.array(history),
        converged=converged,
        final_residual=resid,
        held=int(held.sum()),
        applies=applies,
    )


@dataclass
class UniquenessReport:
    gap: float
    tol: float
    passed: bool
    sides: dict     # start ("sub", "super") -> SolveResult


def uniqueness_gap(problem, tol=1e-10, max_iter=100):
    """Solve from both ends of the bracket and measure their disagreement.

    Both solves take ``tol`` and ``max_iter``.  The report's ``gap`` is
    the largest difference of the two solutions, its ``tol`` 1e-6 times
    the bracket width, and ``passed`` holds when both sides converged and
    the gap is within that; a side that does not converge is reported, not
    raised.
    """
    sides = {start: solve(problem, tol=tol, max_iter=max_iter, start=start)
             for start in ("sub", "super")}
    gap = float(np.abs(sides["sub"].u.values - sides["super"].u.values).max())
    gap_tol = 1e-6 * float(np.abs(problem.sup.values - problem.sub.values).max())
    converged = all(res.converged for res in sides.values())
    return UniquenessReport(gap=gap, tol=gap_tol, passed=converged and gap <= gap_tol,
                            sides=sides)
