"""Grid classification of sub/supersolutions and the envelope-shift certificate.

:class:`GridOperator` is the one lattice scheme: per (lattice, spec,
cone) it turns grid values into the operator matrix F (central differences
through the one frame contraction of :mod:`heisvisc.operators`), the
defining value rho, the Newton value r and the boundary band, and gives
the solver r's Jacobian and its apply.

A grid field is tested node by node: at every interior node with a full
finite-difference stencil (and no kink flag in a 3^d neighborhood) the
discrete second-order jet stands in for the touching test function, and
the position of F relative to the admissible set decides the verdict.
Subsolutions need F in the closed set (Interior or Boundary),
supersolutions need the closed complement (Exterior or Boundary).

``key_lemma_certificate`` checks the quantitative version for envelope
regularizations: after shifting F by

    a * (dist(xi, xi_*) + (1/eps) d(xi, xi_*)^4) * |grad_H w_eps|^2

along the identity, the shifted matrix must land outside (inside, for the
sub side) the admissible set, where xi_* is the envelope's argmax witness
and the first summand of the shift is the Euclidean distance.  The
gradient's exponent is the growth exponent 2 of the quadratic family L.
The certificate is checked at a = 1000, on the nodes where
|w_eps(xi)| + |w(xi_*)| <= M = 10: the values its one program caller, the
keylemma suite, certifies, so they are module constants rather than
settings.  The smallest sufficient ``a`` (up to a ceiling of 1e6) is found
by bisection on precomputed spectra (shifting by a multiple of the identity
only translates eigenvalues), with the one-cell boundary collar reported
separately since its stencils read envelope values contaminated by the
grid edge.
"""

from dataclasses import dataclass

import numpy as np

from .cones import (
    band_from_eigenvalues,
    band_from_entries,
    codes_from_values,
    newton_gradient,
    newton_values,
    spectrum,
    values_from_eigenvalues,
)
from .envelopes import gauge_quartic, lower_envelope, upper_envelope
from .fields import boundary_ring, central_differences
from .operators import contract, contract_transpose, frame_terms, gradient_term_transpose

__all__ = [
    "TAG_NAMES",
    "GridOperator",
    "Classification",
    "classify_grid",
    "KeyLemmaReport",
    "key_lemma_certificate",
]

TAG_NAMES = (
    "SubOK",
    "SuperOK",
    "OnBoundary",
    "SubViolated",
    "SuperViolated",
    "Untestable",
)
_TAG_CODE = {name: i for i, name in enumerate(TAG_NAMES)}


class GridOperator:
    """The lattice scheme of one (lattice, spec, cone), on the interior block.

    Central differences give the Euclidean second derivatives, and the
    first derivatives only when L is not identically zero or ``gradient``
    is set; :func:`heisvisc.operators.contract` turns them into F and the
    horizontal gradient, and :func:`heisvisc.cones.newton_values` F into
    rho and the Newton value r.  The frame terms of the lattice are cached,
    so one instance serves every sweep of a solve.

    The Jacobian of r comes from the same stencil.  ``central_differences``
    of a unit impulse at the centre of a 5^d patch gives, on the patch's 3^d
    interior block, the weight with which each second and first Euclidean
    derivative at a node reads the value at each offset (the block is the
    offset table flipped).  The 19 offsets at n = 1 and 51 at n = 2 with a
    nonzero weight are kept in ``pairs``, each with its (derivative, weight)
    pairs: 27 and 65 in all, numbering the Hessian entries a <= b, then the
    gradient.  The Jacobian's row at an offset sums its pairs' weights times
    the coefficients :func:`heisvisc.operators.contract_transpose` gives the
    derivatives; an offset whose derivatives have zero coefficients at every
    node is left out (under ``trace`` the mixed horizontal entries, leaving
    15 and 27).  J is applied by one gather from the flat padded lattice,
    each node reading its neighbour at every kept offset: on the 5^5 grids
    of a warm-up a slice per offset costs 7 times more in call overhead, and
    at 21^3 the two take about the same time.  The offset table and the
    gather indices are built by the first :meth:`jacobian`, so
    classification never pays for them.
    """

    def __init__(self, template, spec, cone, gradient=False):
        self.spec = spec
        self.cone = cone
        self.spacing = template.spacing
        self.inner = (slice(1, -1),) * (2 * template.n + 1)
        self.coords = coords = template.coords_full()[self.inner].copy()
        self.shape = coords.shape[:-1]
        self.terms = frame_terms(coords)
        self.gradient = gradient or not spec.is_zero
        self.pairs = None

    def __call__(self, values):
        """Entry arrays ``F[i][j]`` over the interior block, and ``p``.

        ``p`` lists the horizontal gradient components, or is None when the
        gradient is not computed (see the class docstring).
        """
        H, grad = central_differences(values, self.spacing, self.gradient)
        return contract(self.spec, self.coords, values[self.inner], H, grad, self.terms)

    def evaluate(self, values):
        """F, p, the defining value rho, the Newton value r and the band."""
        F, p = self(values)
        rho, r = newton_values(self.cone, F)
        return F, p, rho, r, band_from_entries(self.cone, F)

    def _build_table(self):
        """The kept offsets with their (derivative, weight) pairs, and the gather."""
        d = len(self.spacing)
        patch = np.zeros((5,) * d)
        patch[(2,) * d] = 1.0
        H, g = central_differences(patch, self.spacing, gradient=True)
        flip = (slice(None, None, -1),) * d
        self.entries = [(a, b) for a in range(d) for b in range(a, d)]
        columns = [H[a][b][flip] for a, b in self.entries] + [g[a][flip] for a in range(d)]
        used = np.any([c != 0.0 for c in columns], axis=0)
        weights = np.stack([c[used] for c in columns], axis=1)
        self.pairs = [[(c, w) for c, w in enumerate(row.tolist()) if w != 0.0]
                      for row in weights]
        offsets = np.argwhere(used) - 1
        self.centre = int(np.flatnonzero(~offsets.any(axis=1))[0])
        res = tuple(n + 2 for n in self.shape)
        nodes = np.ravel_multi_index(np.indices(self.shape).reshape(d, -1) + 1, res)
        shifts = np.ravel_multi_index(offsets.T + 1, res) - np.ravel_multi_index((1,) * d, res)
        self.neighbours = nodes + shifts[:, None]
        self.pad = np.zeros(res)

    def jacobian(self, F, u, p):
        """d r / d u on the kept offsets, per interior node.

        ``u`` and ``p`` are the iterate's interior values and horizontal
        gradient, F its operator matrix.  d r / d F is
        :func:`heisvisc.cones.newton_gradient`; when L is not zero, d r / d p
        is that read through L's p-derivative
        (:func:`heisvisc.operators.gradient_term_transpose`).  Returns J,
        one flat row of weights per kept offset with the flat padded index
        each node reads there, for :meth:`apply`, and the centre offset's
        row shaped as the interior.
        """
        if self.pairs is None:
            self._build_table()
        G = newton_gradient(self.cone, F)
        m = len(G)
        flat = int(np.prod(self.shape))
        q = (None if self.spec.is_zero
             else gradient_term_transpose(self.spec, self.coords, u, p, G))
        H, grad = contract_transpose(G, self.terms[0], q)
        coeff = [H[a][b] for a, b in self.entries] + (grad or [None] * (m + 1))
        live = [w is not None and bool(w.any()) for w in coeff]
        # the centre row stays for the Jacobi scale even where G vanishes
        kept = [k for k, pairs in enumerate(self.pairs)
                if k == self.centre or any(live[c] for c, _ in pairs)]
        rows = np.zeros((len(kept),) + self.shape)
        for row, k in zip(rows, kept):
            for c, w in self.pairs[k]:
                if live[c]:
                    row += w * coeff[c]
        diagonal = rows[kept.index(self.centre)]
        return (rows.reshape(len(kept), flat), self.neighbours[kept]), diagonal

    def apply(self, J, x):
        """J x over the interior, flat, with x flat and zero on the boundary ring."""
        rows, neighbours = J
        self.pad[self.inner] = x.reshape(self.shape)
        return np.einsum("kn,kn->n", rows, self.pad.ravel()[neighbours])


def _untestable_mask(g):
    """Boundary nodes plus anything whose 3^d jet cube straddles a kink."""
    mask = g.boundary_mask()
    if g.jet_invalid is not None:
        near = g.jet_invalid.copy()
        # one shift each way along every axis in turn grows a flag to its 3^d cube
        for axis in range(near.ndim):
            row = np.moveaxis(near, axis, 0)
            row[1:] |= row[:-1]
            row[:-1] |= row[1:]
        mask |= near
    return mask


@dataclass
class Classification:
    """Per-node verdicts for one grid field against one operator and set.

    ``tags`` holds int8 codes indexing TAG_NAMES; ``rho`` the defining value
    of F at each node (NaN where untestable).  ``worst`` maps each non-empty
    tag to its weakest witness: for the OK/OnBoundary tags the node closest
    to the set boundary, for the violated tags the deepest violation.
    """

    side: str
    tags: np.ndarray
    rho: np.ndarray
    counts: dict
    worst: dict

    def count(self, name):
        return self.counts.get(name, 0)


def classify_grid(g, spec, cone, side):
    """Classify every node of a grid field as a ``side`` ("sub" or "super")
    solution; see the module docstring."""
    if side not in ("sub", "super"):
        raise ValueError(f"side must be 'sub' or 'super', got {side!r}")
    res = g.res
    tags = np.full(res, _TAG_CODE["Untestable"], dtype=np.int8)
    rho_full = np.full(res, np.nan)
    untestable = _untestable_mask(g)

    op = GridOperator(g, spec, cone)
    _, _, rho, _, band = op.evaluate(g.values)
    c = codes_from_values(rho, band)
    tag_inner = np.empty(op.shape, dtype=np.int8)
    tag_inner[c == 0] = _TAG_CODE["OnBoundary"]
    tag_inner[c == 1] = _TAG_CODE["SubOK" if side == "sub" else "SuperViolated"]
    tag_inner[c == -1] = _TAG_CODE["SuperOK" if side == "super" else "SubViolated"]
    tags[op.inner] = tag_inner
    rho_full[op.inner] = rho
    tags[untestable] = _TAG_CODE["Untestable"]
    rho_full[untestable] = np.nan

    counts = {}
    for name, code in _TAG_CODE.items():
        k = int((tags == code).sum())
        if k:
            counts[name] = k
    worst = {}
    for name in TAG_NAMES[:-1]:
        code = _TAG_CODE[name]
        sel = tags == code
        if not sel.any():
            continue
        vals = np.where(sel, np.abs(rho_full), np.nan)
        if name in ("SubViolated", "SuperViolated"):
            i = np.nanargmax(vals)
        else:
            i = np.nanargmin(vals)
        node = np.unravel_index(int(i), res)
        worst[name] = {
            "node": tuple(int(k) for k in node),
            "rho": float(rho_full[node]),
        }
    return Classification(side=side, tags=tags, rho=rho_full, counts=counts, worst=worst)


# ---------------------------------------------------------------------------
# envelope-shift certificate


# the certificate's shift constant and magnitude bound (see the module docstring)
_A, _M = 1000.0, 10.0


@dataclass
class KeyLemmaReport:
    mode: str
    eps: float
    passed: bool               # a = _A certifies all non-collar testable nodes
    min_a: float | None        # smallest sufficient a found by bisection
    testable: int
    excluded_bound: int        # nodes dropped by the |w_eps| + |w(xi_*)| <= M cut
    coverage: float            # passing fraction of all testable nodes at _A
    failures: int
    collar_failures: int
    interior_failures: int
    worst: dict | None = None


def key_lemma_certificate(w, eps, spec, cone, mode):
    """Certify the identity-shift bound for an envelope regularization.

    Builds the eps-envelope of ``w`` (lower for mode 'super', upper for
    'sub'), forms F at the testable nodes, and checks that shifting by the
    witness-distance term at a = 1000 lands in the closed complement
    (resp. closure) of the admissible set.  Nodes where
    |w_eps(xi)| + |w(xi_*)| > M = 10 are excluded.  Alongside the verdict,
    a bisection reports the smallest a for which all non-collar testable
    nodes pass.
    """
    if mode not in ("super", "sub"):
        raise ValueError(f"mode must be 'super' or 'sub', got {mode!r}")
    if eps <= 0:
        raise ValueError(f"need eps > 0, got {eps}")
    env = lower_envelope(w, eps) if mode == "super" else upper_envelope(w, eps)
    g = env.out
    n = g.n

    op = GridOperator(g, spec, cone, gradient=True)
    coords = op.coords.reshape(-1, 2 * n + 1)
    K = coords.shape[0]
    if K == 0:
        raise ValueError("grid has no full-stencil interior nodes")
    F, p = op(g.values)
    vals = g.values[op.inner].reshape(K)

    src_coords = w.coords_full().reshape(-1, 2 * n + 1)
    src_vals = w.values.reshape(-1)
    wit = env.witness[op.inner].reshape(-1)
    wit_coords = src_coords[wit]
    d4 = gauge_quartic(coords, wit_coords, n)
    dist = np.sqrt(np.square(coords - wit_coords).sum(axis=1))
    grad_sq = sum(q * q for q in p).reshape(K)
    shift0 = (dist + d4 / eps) * grad_sq

    keep = (np.abs(vals) + np.abs(src_vals[wit])) <= _M
    excluded = int((~keep).sum())
    if not keep.any():
        raise ValueError("the magnitude bound M excludes every testable node")

    lams = spectrum(F).reshape(K, 2 * n)
    sign = -1.0 if mode == "super" else 1.0

    def shifted_ok(trial, lams, shift0):
        shifted = lams + sign * (trial * shift0)[:, None]
        rho = values_from_eigenvalues(cone, shifted)
        band = band_from_eigenvalues(cone, shifted)
        c = codes_from_values(rho, band)
        return (c <= 0) if mode == "super" else (c >= 0)

    def passing(trial):
        return shifted_ok(trial, lams, shift0) | ~keep   # excluded nodes do not count

    # testable nodes one cell away from the grid boundary
    collar = boundary_ring(op.shape).reshape(-1)
    body = ~collar & keep
    # only the body decides the bisection, so only the body is shifted in it
    body_lams, body_shift0 = lams[body], shift0[body]

    def holds(trial):
        return bool(shifted_ok(trial, body_lams, body_shift0).all()) if body.any() else True

    # bisection for the smallest sufficient a over the non-collar interior
    min_a = None
    max_a = 1e6   # ceiling of the doubling search
    if holds(0.0):
        min_a = 0.0
    else:
        hi = _A
        while hi <= max_a and not holds(hi):
            hi *= 2.0
        if hi <= max_a:
            lo = 0.0
            for _ in range(60):
                midpoint = 0.5 * (lo + hi)
                if holds(midpoint):
                    hi = midpoint
                else:
                    lo = midpoint
            min_a = hi

    ok = passing(_A)
    fails = ~ok & keep
    coverage = float((ok & keep).sum() / keep.sum())
    collar_fail = int((fails & collar).sum())
    interior_fail = int((fails & ~collar).sum())
    worst = None
    if fails.any():
        shifted = lams + sign * (_A * shift0)[:, None]
        rho = values_from_eigenvalues(cone, shifted)
        depth = np.where(fails, rho if mode == "super" else -rho, -np.inf)
        i = int(np.argmax(depth))
        node = tuple(int(k) + 1 for k in np.unravel_index(i, op.shape))
        worst = {
            "node": node,
            "rho": float(rho[i]),
            "shift": float(_A * shift0[i]),
            "in_collar": bool(collar[i]),
        }
    return KeyLemmaReport(
        mode=mode,
        eps=float(eps),
        passed=interior_fail == 0,
        min_a=min_a,
        testable=int(keep.size),
        excluded_bound=excluded,
        coverage=coverage,
        failures=int(fails.sum()),
        collar_failures=collar_fail,
        interior_failures=interior_fail,
        worst=worst,
    )
