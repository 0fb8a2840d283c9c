"""Admissible-set machinery for matrix constraints on symmetric matrices.

A constraint set here is a closed subset of the symmetric d x d matrices,
described by a scalar defining value rho(M): positive inside, negative
outside, zero on the boundary.  Four families are supported:

* ``trace``    -- rho = tr M (half-space of nonnegative-trace matrices),
* ``posdef``   -- rho = smallest eigenvalue (positive-semidefinite matrices),
* ``sigma_k``  -- rho built from the first k elementary symmetric functions
  of the eigenvalues (see :func:`defining_value`); positively 1-homogeneous,
* ``spectral`` -- rho = g(l1, ..., ld), a user expression in the ascending
  eigenvalues.

Classification into Interior / Exterior / Boundary uses a symmetric band
around rho = 0 of width ``tol * (1 + ||M||_F)``: values inside the band are
Boundary.  Eigenvalues come from a cyclic Jacobi iteration (scalar and batch
forms) so the classification pipeline has no dependence on LAPACK ordering.

:func:`check_axioms` samples the structural axioms a constraint set must
satisfy for the comparison machinery (stability under positive-definite
shifts, invariance under positive scaling, and the one-sided scaling
variants) and reports violations with witnesses.  Sampling is batched: all
starts march to the interior together and each condition is classified in
one :func:`classify_batch` call.  The seeded stream is still drawn in the
order of a one-sample-at-a-time loop, which the golden cones reports pin;
samples that never reach the interior are found by rewinding the stream
and redrawing up to them.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field

import numpy as np

from .fields import Node, parse_expr
from .rng import stream

_JACOBI_TOL = 1e-12
_JACOBI_MAX_SWEEPS = 64


class Region(enum.Enum):
    INTERIOR = "Interior"
    EXTERIOR = "Exterior"
    BOUNDARY = "Boundary"


def _check_symmetric(M):
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {M.shape}")
    scale = 1.0 + np.abs(M).max(initial=0.0)
    skew = np.abs(M - np.swapaxes(M, -1, -2)).max(initial=0.0)
    if skew > 1e-9 * scale:
        raise ValueError(f"matrix is not symmetric (skew magnitude {skew:.3e})")
    return 0.5 * (M + np.swapaxes(M, -1, -2))


def eigenvalues(M, tol=_JACOBI_TOL, max_sweeps=_JACOBI_MAX_SWEEPS):
    """Eigenvalues of a symmetric matrix, ascending, via cyclic Jacobi.

    Sweeps Givens rotations over all (p, q) pairs until the off-diagonal
    Frobenius norm drops below ``tol`` times the matrix scale.  Raises
    ArithmeticError if that never happens (it does for any symmetric input
    well before the sweep cap; the cap guards against NaN poisoning).
    """
    A = _check_symmetric(M)
    if A.ndim != 2:
        raise ValueError("eigenvalues() takes a single matrix; see eigenvalues_batch")
    return eigenvalues_batch(A[None], tol=tol, max_sweeps=max_sweeps)[0]


def eigenvalues_batch(Ms, tol=_JACOBI_TOL, max_sweeps=_JACOBI_MAX_SWEEPS):
    """Eigenvalues of a stack of symmetric matrices, shape (N, d) ascending."""
    A = _check_symmetric(Ms)
    if A.ndim != 3:
        raise ValueError(f"expected shape (N, d, d), got {A.shape}")
    A = A.copy()
    n, d, _ = A.shape
    if d == 1:
        return A[:, :, 0].copy()
    scale = np.sqrt(np.einsum("nij,nij->n", A, A))
    scale = np.where(scale > 0.0, scale, 1.0)
    off_idx = ~np.eye(d, dtype=bool)
    for _ in range(max_sweeps):
        off = np.sqrt(np.einsum("nk,nk->n", A[:, off_idx], A[:, off_idx]))
        if np.all(off <= tol * scale):
            lams = np.einsum("nii->ni", A).copy()
            lams.sort(axis=1)
            return lams
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = A[:, p, q]
                active = np.abs(apq) > 1e-300
                if not active.any():
                    continue
                apq_safe = np.where(active, apq, 1.0)
                tau = (A[:, q, q] - A[:, p, p]) / (2.0 * apq_safe)
                t = np.sign(tau) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
                t = np.where(tau == 0.0, 1.0, t)
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                c = np.where(active, c, 1.0)[:, None]
                s = np.where(active, s, 0.0)[:, None]
                colp = A[:, :, p].copy()
                colq = A[:, :, q].copy()
                A[:, :, p] = c * colp - s * colq
                A[:, :, q] = s * colp + c * colq
                rowp = A[:, p, :].copy()
                rowq = A[:, q, :].copy()
                A[:, p, :] = c * rowp - s * rowq
                A[:, q, :] = s * rowp + c * rowq
    off = np.sqrt(np.einsum("nk,nk->n", A[:, off_idx], A[:, off_idx]))
    bad = int(np.sum(off > tol * scale))
    raise ArithmeticError(
        f"Jacobi eigenvalue iteration failed to converge for {bad} matrices "
        f"after {max_sweeps} sweeps"
    )


def elementary_symmetric(lams, k):
    """First k elementary symmetric functions of the trailing axis.

    Returns shape ``lams.shape[:-1] + (k,)`` holding e_1, ..., e_k (so
    ``out[..., 0]`` is the sum, ``out[..., 1]`` the pairwise-product sum...).
    """
    lams = np.asarray(lams, dtype=float)
    d = lams.shape[-1]
    if not 1 <= k <= d:
        raise ValueError(f"need 1 <= k <= {d}, got k={k}")
    # e[..., j] accumulates e_j over a left-to-right scan of the eigenvalues
    e = np.zeros(lams.shape[:-1] + (k + 1,))
    e[..., 0] = 1.0
    for i in range(d):
        lam = lams[..., i]
        for j in range(min(k, i + 1), 0, -1):
            e[..., j] += lam * e[..., j - 1]
    return e[..., 1:]


_SPECTRAL_CACHE: dict = {}


def _spectral_tree(g, d):
    if isinstance(g, Node):
        return g
    key = (g, d)
    tree = _SPECTRAL_CACHE.get(key)
    if tree is None:
        names = [f"l{i + 1}" for i in range(d)]
        tree = parse_expr(g, names)
        _SPECTRAL_CACHE[key] = tree
    return tree


_FAMILIES = ("trace", "posdef", "sigma_k", "spectral")


@dataclass(frozen=True)
class ConeSpec:
    """Description of one admissible set.

    family : one of "trace", "posdef", "sigma_k", "spectral"
    k      : order for the sigma_k family (1 <= k <= d at evaluation time)
    g      : expression in l1..ld (text or parsed tree) for "spectral"
    tol    : half-width factor of the boundary band
    """

    family: str
    k: int | None = None
    g: str | Node | None = None
    tol: float = 1e-9

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {_FAMILIES}")
        if self.family == "sigma_k":
            if self.k is None or int(self.k) < 1:
                raise ValueError("sigma_k family needs an integer k >= 1")
            object.__setattr__(self, "k", int(self.k))
        if self.family == "spectral" and self.g is None:
            raise ValueError("spectral family needs an expression g in l1..ld")
        if not (np.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be positive, got {self.tol}")


def values_from_eigenvalues(spec, lams):
    """Defining value(s) from precomputed ascending eigenvalues.

    ``lams`` has shape (..., d).  This is the cheap half of
    :func:`defining_value`; callers that already hold a spectrum (for
    example to classify many shifts M - a*S of the same matrix) should use
    it directly rather than re-running the eigensolver.
    """
    lams = np.asarray(lams, dtype=float)
    d = lams.shape[-1]
    if spec.family == "trace":
        return lams.sum(axis=-1)
    if spec.family == "posdef":
        return lams[..., 0]
    if spec.family == "sigma_k":
        k = spec.k
        if k > d:
            raise ValueError(f"sigma_{k} undefined for {d}x{d} matrices")
        e = elementary_symmetric(lams, k)
        roots = np.arange(1, k + 1, dtype=float)
        # Inside the positivity cone: the smallest j-th root of e_j, which is
        # 1-homogeneous in M.  Outside: minus the root of the first negative
        # e_j, so the value crosses zero exactly on the cone boundary.
        pos_val = np.min(np.maximum(e, 0.0) ** (1.0 / roots), axis=-1)
        neg = e < 0.0
        first_neg = np.argmax(neg, axis=-1)
        e_at = np.take_along_axis(e, first_neg[..., None], axis=-1)[..., 0]
        neg_val = -np.abs(e_at) ** (1.0 / (first_neg + 1.0))
        return np.where(neg.any(axis=-1), neg_val, pos_val)
    tree = _spectral_tree(spec.g, d)
    env = {f"l{i + 1}": lams[..., i] for i in range(d)}
    out = tree.evaluate(env)
    return np.broadcast_to(np.asarray(out, dtype=float), lams.shape[:-1]).copy()


def defining_value(spec, M):
    """Scalar rho(M): positive inside the set, negative outside."""
    M = _check_symmetric(M)
    if M.ndim != 2:
        raise ValueError("defining_value() takes a single matrix")
    if spec.family == "trace":
        return float(np.trace(M))
    return float(values_from_eigenvalues(spec, eigenvalues(M)))


def defining_value_batch(spec, Ms):
    Ms = _check_symmetric(Ms)
    if Ms.ndim != 3:
        raise ValueError(f"expected shape (N, d, d), got {Ms.shape}")
    if spec.family == "trace":
        return np.einsum("nii->n", Ms)
    return values_from_eigenvalues(spec, eigenvalues_batch(Ms))


def _band(spec, Ms):
    frob = np.sqrt(np.einsum("...ij,...ij->...", Ms, Ms))
    return spec.tol * (1.0 + frob)


def classify(spec, M):
    """Classify one matrix into Interior / Exterior / Boundary."""
    M = _check_symmetric(M)
    rho = defining_value(spec, M)
    band = float(_band(spec, M))
    if rho > band:
        return Region.INTERIOR
    if rho < -band:
        return Region.EXTERIOR
    return Region.BOUNDARY


def codes_from_values(rho, band):
    """Classification codes from defining values and band widths.

    +1 = Interior, -1 = Exterior, 0 = Boundary.  Use :func:`region_of_code`
    to map codes back to Region values.
    """
    rho = np.asarray(rho, dtype=float)
    out = np.zeros(rho.shape, dtype=np.int8)
    out[rho > band] = 1
    out[rho < -band] = -1
    return out


def band_from_eigenvalues(spec, lams):
    """Boundary band width tol * (1 + ||M||_F) computed from a spectrum."""
    lams = np.asarray(lams, dtype=float)
    return spec.tol * (1.0 + np.sqrt(np.square(lams).sum(axis=-1)))


def classify_batch(spec, Ms):
    """Vector classification; returns int8 codes (see codes_from_values)."""
    Ms = _check_symmetric(Ms)
    rho = defining_value_batch(spec, Ms)
    return codes_from_values(rho, _band(spec, Ms))


def region_of_code(code):
    return {1: Region.INTERIOR, -1: Region.EXTERIOR, 0: Region.BOUNDARY}[int(code)]


# ---------------------------------------------------------------------------
# axiom checking


@dataclass(frozen=True)
class AxiomPlan:
    """Sampling plan for :func:`check_axioms`."""

    seed: int
    count: int = 1000
    dim: int = 2
    scale: float = 2.0
    interior_margin: float = 1e-3


@dataclass
class AxiomCondition:
    name: str
    checked: int
    violations: int
    witness: dict | None = None

    @property
    def passed(self):
        return self.violations == 0

    def to_dict(self):
        return {
            "name": self.name,
            "checked": self.checked,
            "violations": self.violations,
            "passed": self.passed,
            "witness": self.witness,
        }


@dataclass
class AxiomReport:
    passed: bool
    conditions: list = field(default_factory=list)
    skipped: int = 0

    def condition(self, name):
        for cond in self.conditions:
            if cond.name == name:
                return cond
        raise KeyError(name)

    def to_dict(self):
        return {
            "passed": self.passed,
            "skipped": self.skipped,
            "conditions": [c.to_dict() for c in self.conditions],
        }


_AXIOM_NAMES = (
    "stable_under_definite_shift",
    "scale_invariant",
    "scale_invariant_shrink",
    "scale_invariant_expand",
)


_SHIFT, _SCALE, _SHRINK, _EXPAND = _AXIOM_NAMES
_INTERIOR_TRIES = 80
_FIRST_CHUNK = 64


def _march_to_interior(spec, W, scale, margin):
    """March a stack of random symmetric starts along +I into the interior.

    ``W`` holds the (n, d, d) normal draws of n starts.  Each start steps by
    a growing multiple of I until rho(A) > margin * (1 + ||A||_F), at most
    ``_INTERIOR_TRIES`` times.  The step sequence is shared, so every row
    ends where a march of that start alone would.  Returns the marched
    matrices and the mask of starts that got inside.
    """
    n, dim, _ = W.shape
    A = 0.5 * (W + np.swapaxes(W, 1, 2)) * scale
    inside = np.zeros(n, dtype=bool)
    active = np.arange(n)
    step = max(1.0, scale)
    eye = np.eye(dim)
    for _ in range(_INTERIOR_TRIES):
        if active.size == 0:
            break
        X = A[active]
        frob = np.sqrt(np.sum((X * X).reshape(active.size, -1), axis=1))
        hit = defining_value_batch(spec, X) > margin * (1.0 + frob)
        inside[active[hit]] = True
        active = active[~hit]
        A[active] += step * eye
        step *= 1.5
    return A, inside


def _draw_tests(gen, enabled, dim, scale):
    """One interior sample's test parameters, drawn in the fixed order."""
    tests = {}
    if _SHIFT in enabled:
        W = gen.normal(size=(dim, dim))
        tests[_SHIFT] = W @ W.T + gen.uniform(0.05, 0.5) * scale * np.eye(dim)
    if _SCALE in enabled:
        tests[_SCALE] = float(np.exp(gen.uniform(np.log(1e-3), np.log(1e3))))
    if _SHRINK in enabled:
        tests[_SHRINK] = float(gen.uniform(0.001, 0.999))
    if _EXPAND in enabled:
        tests[_EXPAND] = 1.0 / float(gen.uniform(0.001, 0.999))
    return tests


def _sample_interior(spec, plan, enabled):
    """Interior samples and their test parameters, in the stream's order.

    Sample by sample, the stream yields a start W and then, only if W
    marches into the interior, the test parameters of each enabled
    condition.  Whether a start gets inside is known only after the batched
    march, so a run of samples is drawn on the guess that every start gets
    inside.  When sample j does not, the stream is rewound to the start of
    the run and redrawn exactly through sample j, which draws only its
    start, and the next run starts again at the first run length.  Run
    lengths double while the guess holds.

    Returns the (m, d, d) interior matrices, their m parameter dicts, and
    the number of skipped samples.
    """
    gen = stream(plan.seed)
    shape = (plan.dim, plan.dim)

    def draw(k):
        return [(gen.normal(size=shape), _draw_tests(gen, enabled, plan.dim, plan.scale))
                for _ in range(k)]

    mats, tests, skipped = [np.empty((0,) + shape)], [], 0
    chunk, i = _FIRST_CHUNK, 0
    while i < plan.count:
        k = min(chunk, plan.count - i)
        state = gen.bit_generator.state
        drawn = draw(k)
        A, inside = _march_to_interior(spec, np.stack([w for w, _ in drawn]),
                                       plan.scale, plan.interior_margin)
        j = int(np.argmin(inside)) if not inside.all() else k
        mats.append(A[:j])
        tests.extend(t for _, t in drawn[:j])
        if j == k:
            i += k
            chunk *= 2
            continue
        gen.bit_generator.state = state
        draw(j)
        gen.normal(size=shape)
        skipped += 1
        i += j + 1
        chunk = _FIRST_CHUNK
    return np.concatenate(mats), tests, skipped


def check_axioms(spec, plan, conditions=_AXIOM_NAMES):
    """Sample the structural axioms of an admissible set.

    For matrices A strictly inside the set (sampled with a relative interior
    margin so that boundary-band effects cannot contaminate the verdict):

    * stable_under_definite_shift : A + B stays interior for positive
      definite B,
    * scale_invariant             : c*A stays interior for c in [1e-3, 1e3],
    * scale_invariant_shrink      : c*A stays interior for c in (0, 1),
    * scale_invariant_expand      : c*A stays interior for c > 1.

    Every violation is counted and the first one per condition is kept as a
    witness.  A set that fails ``scale_invariant`` is not a cone.

    Sampling is batched, but the draws from the seeded stream keep the
    order of a one-sample-at-a-time loop: per sample a start W, then, if W
    marches into the interior, W2 and a uniform for the shift and one
    uniform per scaling condition, in the order listed above.  A sample
    whose march fails draws nothing more; such samples are found by
    rewinding the stream and redrawing (see :func:`_sample_interior`).
    This order is a contract: it fixes every count and witness in the
    reports, and the golden cones reports pin it.
    """
    unknown = set(conditions) - set(_AXIOM_NAMES)
    if unknown:
        raise ValueError(f"unknown axiom conditions: {sorted(unknown)}")
    A, tests, skipped = _sample_interior(spec, plan, set(conditions))
    checks = {name: AxiomCondition(name, len(tests), 0) for name in conditions}
    for name, cond in checks.items():
        if not tests:
            break
        params = [t[name] for t in tests]
        if name == _SHIFT:
            key, M = "B", A + np.stack(params)
        else:
            key, M = "c", np.array(params)[:, None, None] * A
        codes = classify_batch(spec, M)
        bad = np.flatnonzero(codes != 1)
        cond.violations = int(bad.size)
        if bad.size:
            i = int(bad[0])
            param = params[i].tolist() if name == _SHIFT else params[i]
            cond.witness = {
                "A": A[i].tolist(), key: param, "tested": M[i].tolist(),
                "classification": region_of_code(codes[i]).value,
            }
    ordered = [checks[name] for name in conditions]
    passed = all(c.passed for c in ordered) and skipped < plan.count
    return AxiomReport(passed=passed, conditions=ordered, skipped=skipped)


def shifted_trace_spec(dim, offset=1.0):
    """A deliberately non-conical set {tr M >= offset} for negative testing."""
    expr = " + ".join(f"l{i + 1}" for i in range(dim)) + f" - {offset!r}"
    return ConeSpec(family="spectral", g=expr)


# ---------------------------------------------------------------------------
# serialization


def cone_to_json(spec):
    data = {"family": spec.family, "tol": spec.tol}
    if spec.family == "sigma_k":
        data["k"] = spec.k
    if spec.family == "spectral":
        if isinstance(spec.g, Node):
            data["g"] = spec.g.to_source()
        else:
            data["g"] = spec.g
    return json.dumps(data, sort_keys=True)


def cone_from_json(text):
    data = json.loads(text)
    family = data["family"]
    return ConeSpec(
        family=family,
        k=data.get("k"),
        g=data.get("g"),
        tol=float(data.get("tol", 1e-9)),
    )
