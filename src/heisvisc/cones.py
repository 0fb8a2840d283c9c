"""Admissible-set machinery for matrix constraints on symmetric matrices.

A constraint set here is a closed subset of the symmetric d x d matrices,
described by a scalar defining value rho(M): positive inside, negative
outside, zero on the boundary.  Four families are supported:

* ``trace``    -- rho = tr M (half-space of nonnegative-trace matrices),
* ``posdef``   -- rho = smallest eigenvalue (positive-semidefinite matrices),
* ``sigma_k``  -- rho built from the first k elementary symmetric functions
  of the eigenvalues (see :func:`values_from_eigenvalues`); positively
  1-homogeneous,
* ``spectral`` -- rho = g(l1, ..., ld), a user expression in the ascending
  eigenvalues.

Classification codes are +1 (Interior), -1 (Exterior) and 0 (Boundary),
with a symmetric band around rho = 0 of width ``tol * (1 + ||M||_F)``:
values inside the band are Boundary.  Every eigenvalue comes from
:func:`spectrum`: the closed form for 2 x 2 matrices and LAPACK's
``eigvalsh`` otherwise.  It takes matrices entry by entry, which is how the
grid operator holds them.  The public matrix functions take a stack of
shape (N, d, d), check each matrix's symmetry and pass its entry view; a
single matrix is a stack of one.

:func:`check_axioms` samples the structural axioms a constraint set must
satisfy for the comparison machinery (stability under positive-definite
shifts, invariance under positive scaling, and the one-sided scaling
variants) and reports violations with witnesses.  Sampling is batched: all
starts march to the interior together and each condition is classified in
one :func:`classify` call.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field

import numpy as np

from .fields import Node, parse_expr
from .rng import stream

def _check_symmetric(M):
    """Validate square matrices and return them exactly symmetrised.

    Each matrix's skew is measured against 1 + its own largest entry, so a
    large matrix in the same stack cannot hide the skew of a small one.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {M.shape}")
    MT = np.swapaxes(M, -1, -2)
    scale = 1.0 + np.abs(M).max(axis=(-2, -1), initial=0.0)
    skew = np.abs(M - MT).max(axis=(-2, -1), initial=0.0)
    bad = skew > 1e-9 * scale
    if bad.any():
        raise ValueError(
            f"matrix is not symmetric (skew magnitude {np.max(skew[bad]):.3e})"
        )
    return 0.5 * (M + MT)


def entries(Ms):
    """Checked (N, d, d) stack as its entry view: ``[i][j]`` is Ms[:, i, j].

    The view is of the exactly symmetrised stack, the layout
    :func:`spectrum` takes; a linear combination of such views is exactly
    symmetric too, so it needs no second check.
    """
    Ms = _check_symmetric(Ms)
    if Ms.ndim != 3:
        raise ValueError(f"expected shape (N, d, d), got {Ms.shape}")
    return Ms.transpose(1, 2, 0)


def spectrum(F, vectors=False):
    """Ascending eigenvalues of symmetric matrices held entry by entry.

    ``F[i][j]`` is entry (i, j) of every matrix at once: a nested list of
    equally shaped arrays, or an array of shape (d, d, ...).  Returns shape
    (..., d), and with ``vectors`` also the eigenvectors, shape (..., d, d)
    with column k belonging to eigenvalue k.  At d = 2 both come from the
    closed form: eigenvalues m -+ r with r = sqrt(((a - c) / 2)^2 + b^2),
    eigenvectors the rotation by half of atan2(b, (a - c) / 2); it reads
    only the upper triangle.  Otherwise LAPACK's ``eigvalsh``/``eigh``.
    Symmetry is the caller's contract (the stack functions below check it).
    """
    d = len(F)
    if d == 2:
        half_gap = 0.5 * (F[0][0] - F[1][1])
        r = np.sqrt(half_gap * half_gap + F[0][1] * F[0][1])
        m = 0.5 * (F[0][0] + F[1][1])
        lams = np.stack([m - r, m + r], axis=-1)
        if not vectors:
            return lams
        theta = 0.5 * np.arctan2(F[0][1], half_gap)
        cos, sin = np.cos(theta), np.sin(theta)
        return lams, np.stack([np.stack([-sin, cos], axis=-1),
                               np.stack([cos, sin], axis=-1)], axis=-1)
    F = np.moveaxis(np.asarray(F, dtype=float), (0, 1), (-2, -1))
    return np.linalg.eigh(F) if vectors else np.linalg.eigvalsh(F)


def eigenvalues(Ms):
    """Eigenvalues of a stack of symmetric matrices, shape (N, d) ascending."""
    return spectrum(entries(Ms))


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


def spectral_tree(g, d):
    """The parsed tree of a spectral family's g over l1..ld, cached per (text, d)."""
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
            raise ValueError(f"cone.family must be one of {_FAMILIES}, got {self.family!r}")
        if self.family == "sigma_k":
            k = self.k
            integral = isinstance(k, numbers.Integral) or (isinstance(k, float) and k.is_integer())
            if isinstance(k, bool) or not integral or k < 1:
                raise ValueError(f"cone.k must be an integer >= 1 for sigma_k, got {k!r}")
            object.__setattr__(self, "k", int(k))
        if self.family == "spectral" and self.g is None:
            raise ValueError("cone.g must be given for the spectral family (an expression "
                             "in l1..ld)")
        if not (np.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"cone.tol must be positive, got {self.tol}")


def _active_e(lams, k):
    """The e_j that sets the sigma_k defining value, its index j - 1, and e_1..e_k.

    Inside the positivity cone it is the e_j with the smallest j-th root;
    outside, the first negative e_j.
    """
    d = lams.shape[-1]
    if k > d:
        raise ValueError(f"sigma_{k} undefined for {d}x{d} matrices")
    e = elementary_symmetric(lams, k)
    neg = e < 0.0
    roots = np.arange(1, k + 1, dtype=float)
    inside = np.argmin(np.maximum(e, 0.0) ** (1.0 / roots), axis=-1)
    j = np.where(neg.any(axis=-1), np.argmax(neg, axis=-1), inside)
    return np.take_along_axis(e, j[..., None], axis=-1)[..., 0], j, e


def _signed_root(e_at, j):
    """The sigma_k defining value from the active e_j: its j-th root, signed."""
    root = np.abs(e_at) ** (1.0 / (j + 1.0))
    return np.where(e_at < 0.0, -root, root)


def values_from_eigenvalues(spec, lams):
    """Defining value(s) from precomputed ascending eigenvalues.

    ``lams`` has shape (..., d).  This is the cheap half of
    :func:`newton_values`; callers that already hold a spectrum (for
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
        # Inside the positivity cone: the smallest j-th root of e_j, which is
        # 1-homogeneous in M.  Outside: minus the root of the first negative
        # e_j, so the value crosses zero exactly on the cone boundary.
        e_at, j, _ = _active_e(lams, spec.k)
        return _signed_root(e_at, j)
    tree = spectral_tree(spec.g, d)
    env = {f"l{i + 1}": lams[..., i] for i in range(d)}
    out = tree.evaluate(env)
    return np.broadcast_to(np.asarray(out, dtype=float), lams.shape[:-1]).copy()


def newton_values(spec, F):
    """The defining value rho and the value r a Newton iteration linearises.

    ``F`` is laid out as for :func:`spectrum`.  The trace family sums the
    diagonal; the other families go through the spectrum.  r has the sign
    and the zero set of rho.  It is rho itself except for ``sigma_k``, where
    it is the active e_j, the one :func:`values_from_eigenvalues` takes the
    j-th root of: the root's derivative blows up on the cone boundary, where
    the solutions of rho = 0 lie.
    """
    if spec.family == "trace":
        rho = functools.reduce(np.add, [F[i][i] for i in range(len(F))])
        return rho, rho
    lams = spectrum(F)
    if spec.family != "sigma_k":
        rho = values_from_eigenvalues(spec, lams)
        return rho, rho
    e_at, j, _ = _active_e(lams, spec.k)
    return _signed_root(e_at, j), e_at


def newton_gradient(spec, F):
    """G[i][j] = dr / dF_ij for the r of :func:`newton_values`.

    Returns an array of shape (d, d, ...) laid out as ``F``: the identity
    for ``trace``, otherwise V diag(dr / d lambda) V^T from the spectrum,
    with the eigenvalue derivative (1, 0, ..., 0) for ``posdef``,
    e_{j-1} of the other eigenvalues for ``sigma_k`` and the tree's jets of
    g for ``spectral``.  Away from repeated eigenvalues it is the exact
    derivative, except for ``sigma_k`` outside the cone: there the
    eigenvalue derivative is clipped at zero.  Inside and on the cone it
    is nonnegative anyway; outside, e_j's own gradient is indefinite and
    would make the Newton systems lose ellipticity.
    """
    d = len(F)
    shape = np.shape(F[0][0])
    if spec.family == "trace":
        return np.broadcast_to(np.eye(d).reshape((d, d) + (1,) * len(shape)), (d, d) + shape)
    lams, V = spectrum(F, vectors=True)
    if spec.family == "posdef":
        dl = np.zeros(lams.shape)
        dl[..., 0] = 1.0
    elif spec.family == "sigma_k":
        _, j, e = _active_e(lams, spec.k)
        # e_m of the eigenvalues other than l_i, for every i at once, from
        # e_m(l \ l_i) = e_m(l) - l_i e_{m-1}(l \ l_i); d e_j / d l_i is the
        # one with m = j - 1
        lower = [np.ones(lams.shape)]
        for m in range(1, spec.k):
            lower.append(e[..., m - 1, None] - lams * lower[-1])
        dl = np.take_along_axis(np.stack(lower, axis=-2), j[..., None, None], axis=-2)[..., 0, :]
        # nonnegative on the closed cone (Garding); outside it the clipped
        # gradient keeps the linearised operator degenerate elliptic
        dl = np.maximum(dl, 0.0)
    else:
        names = {f"l{i + 1}": i for i in range(d)}
        env = {name: lams[..., i] for name, i in names.items()}
        dl = np.moveaxis(spectral_tree(spec.g, d).jets(env, names, shape)[1], 0, -1)
    # entry by entry, each a sum over k: one three-operand einsum over all
    # entries took 2 to 7 times as long at n = 1 and 2 (5^5 to 39^3 nodes)
    Vdl = V * dl[..., None, :]
    G = np.empty((d, d) + shape)
    for i in range(d):
        for j in range(i, d):
            G[i, j] = G[j, i] = np.einsum("...k,...k->...", Vdl[..., i, :], V[..., j, :])
    return G


def band_from_entries(spec, F):
    """Boundary band width tol * (1 + ||M||_F) from matrix entries."""
    d = len(F)
    sq = functools.reduce(np.add, [F[i][i] * F[i][i] for i in range(d)])
    off = [F[i][j] * F[i][j] for i in range(d) for j in range(i + 1, d)]
    if off:
        sq = sq + 2.0 * functools.reduce(np.add, off)
    return spec.tol * (1.0 + np.sqrt(sq))


def codes_from_values(rho, band):
    """Classification codes from defining values and band widths.

    +1 = Interior, -1 = Exterior, 0 = Boundary.
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


def classify(spec, Ms):
    """Classification codes of a stack of symmetric matrices, int8 shape (N,)."""
    F = entries(Ms)
    return codes_from_values(newton_values(spec, F)[0], band_from_entries(spec, F))


# ---------------------------------------------------------------------------
# axiom checking


@dataclass
class AxiomCondition:
    name: str
    checked: int
    violations: int
    witness: dict | None = None

    @property
    def passed(self):
        return self.violations == 0


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


_AXIOM_NAMES = (
    "stable_under_definite_shift",
    "scale_invariant",
    "scale_invariant_shrink",
    "scale_invariant_expand",
)


_SHIFT, _SCALE, _SHRINK, _EXPAND = _AXIOM_NAMES
_REGION_NAMES = {1: "Interior", -1: "Exterior", 0: "Boundary"}
_INTERIOR_TRIES = 80
# a start is half of W + W^T times _SPREAD, its march along +I first steps
# by _SPREAD, and the shift adds W2 W2^T plus a multiple of I in
# [0.05, 0.5] * _SPREAD; a start is interior once
# rho(A) > _INTERIOR_MARGIN * (1 + ||A||_F)
_SPREAD = 2.0
_INTERIOR_MARGIN = 1e-3


def _march_to_interior(spec, W):
    """March a stack of random symmetric starts along +I into the interior.

    ``W`` holds the (n, d, d) normal draws of n starts.  Each start steps by
    a growing multiple of I until rho(A) > _INTERIOR_MARGIN * (1 + ||A||_F), at most
    ``_INTERIOR_TRIES`` times.  The step sequence is shared, so every row
    ends where a march of that start alone would.  Returns the marched
    matrices and the mask of starts that got inside.
    """
    n, dim, _ = W.shape
    A = 0.5 * (W + np.swapaxes(W, 1, 2)) * _SPREAD
    inside = np.zeros(n, dtype=bool)
    active = np.arange(n)
    step = _SPREAD
    eye = np.eye(dim)
    for _ in range(_INTERIOR_TRIES):
        if active.size == 0:
            break
        X = A[active]
        frob = np.sqrt(np.sum((X * X).reshape(active.size, -1), axis=1))
        # A, half of W + W^T scaled plus multiples of I, is exactly
        # symmetric, so its entry view goes to the spectrum unchecked
        hit = newton_values(spec, X.transpose(1, 2, 0))[0] > _INTERIOR_MARGIN * (1.0 + frob)
        inside[active[hit]] = True
        active = active[~hit]
        A[active] += step * eye
        step *= 1.5
    return A, inside


def _sample_interior(spec, seed, count, dim):
    """Interior samples and their test parameters, in the stream's order.

    Sample by sample, the stream yields a start W, W2 for the shift, one
    uniform for the shift and one per scaling condition, whether or not W
    marches into the interior.  A sample is drawn in two calls straight
    into the run's arrays, one normal block (W, then W2) and one block of
    its four uniforms.  These give the same values as a one-draw-at-a-time
    loop: consecutive normal draws are one normal block,
    ``standard_normal`` draws what ``normal`` draws at its default mean
    and scale, and ``uniform(a, b)`` is ``a + (b - a) * random()``.  All
    starts then march in one :func:`_march_to_interior` call, and the
    parameters are built from the blocks of the samples that got inside in
    array operations.

    Returns the (m, d, d) interior matrices, a dict of their test
    parameters per condition (shape (m, d, d) for the shift, (m,) for a
    scaling condition), and the number of skipped samples.
    """
    gen = stream(seed)
    normals = np.empty((count, 2, dim, dim))
    unif = np.empty((count, len(_AXIOM_NAMES)))
    for s in range(count):
        gen.standard_normal(out=normals[s])
        gen.random(out=unif[s])
    A, inside = _march_to_interior(spec, normals[:, 0])
    A, normals, unif = A[inside], normals[inside], unif[inside]
    r = dict(zip(_AXIOM_NAMES, unif.T))
    W = normals[:, 1]
    scaled = (0.05 + (0.5 - 0.05) * r[_SHIFT]) * _SPREAD
    lo, hi = np.log(1e-3), np.log(1e3)
    tests = {
        _SHIFT: W @ W.swapaxes(1, 2) + scaled[:, None, None] * np.eye(dim),
        _SCALE: np.exp(lo + (hi - lo) * r[_SCALE]),
        _SHRINK: 0.001 + (0.999 - 0.001) * r[_SHRINK],
        _EXPAND: 1.0 / (0.001 + (0.999 - 0.001) * r[_EXPAND]),
    }
    return A, tests, count - len(A)


def check_axioms(spec, seed, count, dim):
    """Sample the structural axioms of an admissible set.

    For matrices A strictly inside the set (random symmetric starts of
    spread 2 marched along +I until rho(A) > 1e-3 * (1 + ||A||_F), a
    relative margin that keeps boundary-band effects out of the verdict):

    * stable_under_definite_shift : A + B stays interior for positive
      definite B = W2 W2^T + c I, c in [0.1, 1],
    * scale_invariant             : c*A stays interior for c in [1e-3, 1e3],
    * scale_invariant_shrink      : c*A stays interior for c in (0, 1),
    * scale_invariant_expand      : c*A stays interior for c > 1.

    Every violation is counted and the first one per condition is kept as a
    witness.  A set that fails ``scale_invariant`` is not a cone.

    ``count`` samples are drawn from the stream of ``seed`` in the order
    of a one-sample-at-a-time loop: per sample a start W, W2 and a uniform
    for the shift and one uniform per scaling condition, in the order
    listed above (see :func:`_sample_interior`).  A sample whose start
    never gets inside is skipped after its draws.  This order is a
    contract: it fixes every count and witness in the reports, and the
    golden cones reports pin it.
    """
    A, tests, skipped = _sample_interior(spec, seed, count, dim)
    checks = {name: AxiomCondition(name, len(A), 0) for name in _AXIOM_NAMES}
    for name, cond in checks.items():
        if not len(A):
            break
        params = tests[name]
        if name == _SHIFT:
            key, M = "B", A + params
        else:
            key, M = "c", params[:, None, None] * A
        codes = classify(spec, M)
        bad = np.flatnonzero(codes != 1)
        cond.violations = int(bad.size)
        if bad.size:
            i = int(bad[0])
            cond.witness = {
                "A": A[i].tolist(), key: params[i].tolist(), "tested": M[i].tolist(),
                "classification": _REGION_NAMES[int(codes[i])],
            }
    conditions = list(checks.values())
    passed = all(c.passed for c in conditions) and skipped < count
    return AxiomReport(passed=passed, conditions=conditions, skipped=skipped)


def shifted_trace_spec(dim):
    """A deliberately non-conical set {tr M >= 1} for negative testing."""
    expr = " + ".join(f"l{i + 1}" for i in range(dim)) + " - 1.0"
    return ConeSpec(family="spectral", g=expr)
