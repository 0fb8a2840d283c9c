"""Bracketed fixed-point solver between an ordered sub/supersolution pair.

Given grid fields v <= w that agree on the boundary, the solver relaxes
toward a field whose operator matrix sits on the admissible-set boundary
at every interior node, clamping each sweep to [v, w].  Iterating from v
ascends, from w descends; running both directions and comparing is the
numerical uniqueness check.  Each sweep evaluates F through
:class:`heisvisc.viscosity.GridOperator`, the grid operator path the
classifier uses, for every n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import ConeSpec, band_from_entries, values_from_entries
from .fields import AnalyticField, Const, Domain, GridField, parse_field, sample
from .operators import OperatorSpec, SamplePlan, StructuralBounds, check_structural
from .viscosity import GridOperator

__all__ = [
    "DEFAULT_BOUNDS",
    "Problem",
    "SolveResult",
    "UniquenessReport",
    "boundary_bump",
    "bracket_from_boundary",
    "solve",
    "uniqueness_gap",
]

# growth/sign constants satisfied by the constant-coefficient specs the
# solver accepts, on boxes of radius up to two
DEFAULT_BOUNDS = StructuralBounds(
    R=2.0, Lambda=1.0, theta_bar=0.04, C=6.0, m=2.0, beta0=0.25
)

_GATE_PLAN = SamplePlan(seed=2357, count=400)
_BOUNDARY_AGREE_TOL = 1e-10


def boundary_bump(domain):
    """Smooth field positive inside the box and zero on its whole boundary.

    Product over axes of 1 - s^2 with s the axis coordinate rescaled to
    [-1, 1]; handy for manufacturing ordered brackets around boundary data.
    """
    n = domain.n
    parts = []
    names = [f"x{i}" for i in range(1, n + 1)] + [f"y{i}" for i in range(1, n + 1)] + ["t"]
    for a, name in enumerate(names):
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

    Validated at construction: the bracket is ordered and agrees with the
    boundary data on the boundary ring, the coefficients are constant
    (the solver path does not handle coefficient fields), and the
    operator passes the structural gate for ``DEFAULT_BOUNDS``.
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
        if not (self.sub.values <= self.sup.values).all():
            raise ValueError("lower bracket exceeds upper bracket at some node")
        bmask = self.sub.boundary_mask()
        gap = np.abs(self.sub.values[bmask] - self.sup.values[bmask]).max()
        if gap > _BOUNDARY_AGREE_TOL:
            raise ValueError(f"bracket fields differ by {gap:.3e} on the boundary")
        bdata = self.boundary(self.sub.coords_full()[bmask])
        data_gap = np.abs(bdata - self.sub.values[bmask]).max()
        if data_gap > _BOUNDARY_AGREE_TOL:
            raise ValueError(
                f"boundary data differs from the bracket by {data_gap:.3e} on the boundary"
            )
        if not self.spec.is_constant:
            raise ValueError("the solver path requires constant coefficients")
        report = check_structural(self.spec, DEFAULT_BOUNDS, self.domain, _GATE_PLAN)
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
    dt: float
    start: str


def _auto_dt(problem):
    h_min = float(problem.sub.spacing.min())
    a, b, g = problem.spec.constants()
    coeff_scale = abs(a) + abs(b) + abs(g)
    return h_min**2 / (8.0 * problem.sub.n * (1.0 + coeff_scale))


def solve(problem, dt="auto", tol=1e-10, max_iter=60000, start="sub"):
    """Relax the bracket toward a field with F on the admissible boundary.

    Synchronous sweeps with double buffering: the interior update is
    clamp(psi + dt*rho, v, w), the boundary ring stays pinned.  Starting
    from the lower bracket the iterates ascend, from the upper they
    descend; a probe watches that direction and halves dt (down to a
    floor) when a sweep breaks it.  The residual is the largest amount by
    which |rho| exceeds the admissible-set boundary band among interior
    nodes the clamp left free; convergence also triggers on a drift-free
    sweep, where every node is held by the clamp or the pin.
    """
    if start not in ("sub", "super"):
        raise ValueError(f"start must be 'sub' or 'super', got {start!r}")
    if any(r < 3 for r in problem.res):
        raise ValueError("solving needs at least one interior node per axis")
    v = problem.sub.values
    w = problem.sup.values
    if np.array_equal(v, w):
        return SolveResult(
            u=problem.sub.copy(),
            iterations=0,
            residuals=np.empty(0),
            converged=True,
            final_residual=0.0,
            dt=0.0,
            start=start,
        )

    step = _auto_dt(problem) if dt == "auto" else float(dt)
    if step <= 0.0:
        raise ValueError("dt must be positive")
    floor = step * 2.0**-20
    ascending = start == "sub"

    op = GridOperator(problem.sub, problem.spec)
    cone = problem.cone
    inner = op.inner
    v_int = v[inner]
    w_int = w[inner]
    bmask = problem.sub.boundary_mask()

    while True:
        # one full attempt at the current step; a broken sweep direction
        # means instability has contaminated the state, so the attempt is
        # abandoned and restarted from the bracket at half the step
        cur = (v if ascending else w).copy()
        cur[bmask] = v[bmask]
        nxt = cur.copy()

        history = []
        converged = False
        broke = False
        resid = np.inf
        sweeps = 0
        for sweeps in range(1, max_iter + 1):
            F, _ = op(cur)
            rho = values_from_entries(cone, F)
            band = band_from_entries(cone, F)
            cur_int = cur[inner]
            slack = 1e-13 * (1.0 + float(np.abs(cur_int).max()))
            clamped = np.clip(cur_int + step * rho, v_int, w_int)
            drift = clamped - cur_int
            broke = drift.min() < -slack if ascending else drift.max() > slack
            if broke:
                break

            free = (cur_int + step * rho) == clamped
            excess = np.maximum(np.abs(rho) - band, 0.0)
            resid = float(excess[free].max()) if free.any() else 0.0
            history.append(resid)

            nxt[inner] = clamped
            cur, nxt = nxt, cur
            if resid < tol or not np.abs(drift).max() > 0.0:
                converged = True
                break

        if not broke:
            break
        step *= 0.5
        if step < floor:
            raise ArithmeticError(
                "time step collapsed below its floor without restoring "
                "monotone sweeps; the scheme is unstable on this problem"
            )

    u = GridField(problem.sub.n, problem.sub.box.copy(), cur)
    return SolveResult(
        u=u,
        iterations=sweeps,
        residuals=np.array(history),
        converged=converged,
        final_residual=resid,
        dt=step,
        start=start,
    )


@dataclass
class UniquenessReport:
    gap: float
    tol: float
    passed: bool
    ascent: SolveResult
    descent: SolveResult


def uniqueness_gap(problem, max_iter=60000):
    """Solve from both ends of the bracket and measure their disagreement."""
    up = solve(problem, max_iter=max_iter, start="sub")
    down = solve(problem, max_iter=max_iter, start="super")
    if not (up.converged and down.converged):
        raise ArithmeticError(
            f"bracketed runs did not converge (ascent {up.converged}, "
            f"descent {down.converged})"
        )
    gap = float(np.abs(up.u.values - down.u.values).max())
    uniq_tol = 1e-6 * float(np.abs(problem.sup.values - problem.sub.values).max())
    return UniquenessReport(
        gap=gap, tol=float(uniq_tol), passed=gap <= uniq_tol, ascent=up, descent=down
    )
