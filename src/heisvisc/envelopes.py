"""Sup/inf convolutions of grid fields with the quartic group-gauge kernel.

The upper envelope of a grid field v at parameter eps > 0 is

    v_up(xi) = max over all lattice nodes eta of  v(eta) - (1/eps) d(xi, eta)^4,

where d is the left-invariant gauge distance; the lower envelope mirrors it
with a min and +(1/eps) d^4.  The maximum runs over every node of the grid,
boundary included, and is exact: ties break to the smallest flat node index.

The search is factored over z-rows.  In C order t is the last axis, so node
``zrow * T + k`` sits at (z[zrow], t[k]), and d^4 = |dz|^4 + (dt + shear)^2
where |dz|^2 and the shear depend on the pair of z-rows alone.  For each
source z-row they are computed once against every target z-row, with the
same expressions as ``gauge_quartic``, so every d^4 has the same bits as a
pair-by-pair evaluation.  A target row with |dz|^4 > window lies wholly
outside the pruning window d^4 <= eps * (max v - min v) and is dropped.  The
rest are scored together, candidates in ascending flat index, so the first
best is the smallest index.  A candidate outside the window scores below
min v, hence below the node itself; only a rounding tie at the window's edge
can make one win, and then the window is masked and the search repeated.
The same pass records the kernel constant the curvature check needs.

The check_* functions verify the properties the regularization argument
rests on: monotonicity and pointwise squeezing in eps, one-sided curvature
bounds (semiconvexity for upper envelopes, semiconcavity for lower) with a
constant sampled from the kernel's own Hessian, and optimality and reach of
the argmax witness.
"""

from dataclasses import dataclass

import numpy as np

from .cones import spectrum
from .fields import GridField, central_differences

__all__ = [
    "EnvelopeResult",
    "upper_envelope",
    "lower_envelope",
    "gauge_quartic",
    "check_monotone_convergence",
    "check_semiconvexity",
    "check_witness_bound",
]


def gauge_quartic(a, b, n):
    """Fourth power of the gauge distance between coordinate arrays.

    ``a`` and ``b`` broadcast against each other over leading axes; the last
    axis holds flat coordinates (x_1..x_n, y_1..y_n, t).  Written directly on
    the group-difference coordinates so no fourth root is ever taken.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    zs, shear = _z_parts(a, b, n)
    dt = a[..., 2 * n] - b[..., 2 * n]
    return zs * zs + np.square(dt + shear)


def _z_parts(a, b, n):
    """(|dz|^2, shear) of broadcast pairs; both depend on the z-coordinates only."""
    dz = a[..., : 2 * n] - b[..., : 2 * n]
    zs = np.square(dz).sum(axis=-1)
    shear = 2.0 * (
        (a[..., n : 2 * n] * b[..., :n]).sum(axis=-1)
        - (a[..., :n] * b[..., n : 2 * n]).sum(axis=-1)
    )
    return zs, shear


@dataclass
class EnvelopeResult:
    """Envelope output grid, argmax witness, and the defining parameters.

    ``witness`` maps each node to the flat (C-order) index of the node
    attaining its extremum.  ``source_min``/``source_max`` record the range
    of the input field; the property checks need them to reconstruct the
    pruning window without the source grid.  ``kernel_sup``, the sup over
    in-window pairs of the kernel Hessian norm bound, is check_semiconvexity's C.
    """

    out: GridField
    witness: np.ndarray
    eps: float
    mode: str
    source_min: float
    source_max: float
    kernel_sup: float


def upper_envelope(v, eps):
    """Exact discrete sup-convolution over all grid nodes."""
    return _envelope(v, eps, "upper")


def lower_envelope(w, eps):
    """Exact discrete inf-convolution over all grid nodes."""
    return _envelope(w, eps, "lower")


def _envelope(v, eps, mode):
    eps = float(eps)
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be a positive real, got {eps}")
    if not np.all(np.isfinite(v.values)):
        raise ValueError("field values must be finite")
    n = v.n
    T = v.res[-1]
    # C order puts t on the last axis: node zrow * T + k is (z[zrow], t[k])
    coords = v.coords_full().reshape(-1, T, 2 * n + 1)
    z = coords[:, 0, : 2 * n]
    t = coords[0, :, 2 * n]
    vals = v.values.reshape(-1, T)
    vmin, vmax = float(vals.min()), float(vals.max())
    window = eps * (vmax - vmin)
    # kernel Hessian norm bound at a pair (xi, eta): the z-block contributes
    # at most 12 |dz|^2 and the rank-one shear part 2 (1 + 4 |z_eta|^2)
    shear_part = 2.0 * (1.0 + 4.0 * np.square(z).sum(axis=1))
    dt = t[:, None] - t[None, :]
    # dt once per target row, so that each step below is one pass over a
    # row's candidates; ``block`` holds them and is reused by every row
    tiled = np.tile(dt, len(z))
    block = np.empty(tiled.size)
    kernel_sup = 0.0
    out = np.empty(vals.shape)
    wit = np.empty(vals.shape, dtype=np.int64)
    src = np.arange(T)
    for row in range(len(z)):
        zs, shear = _z_parts(z[row], z, n)
        zs2 = zs * zs
        # d^4 >= |dz|^4, so a target row with |dz|^4 > window is all outside
        keep = np.flatnonzero(zs2 <= window)
        zs, shear, zs2 = zs[keep], shear[keep], zs2[keep]
        # d4[i, k * T + j]: node (row, i) against node (keep[k], j)
        width = len(keep) * T
        d4 = block[: T * width].reshape(T, width)
        np.add(tiled[:, :width], np.repeat(shear, T), out=d4)
        np.square(d4, out=d4)
        d4 += np.repeat(zs2, T)
        far = d4 > window
        near = ~far.all(axis=0).reshape(-1, T).all(axis=1)
        kernel_sup = max(kernel_sup, float((12.0 * zs + shear_part[keep])[near].max()))
        d4 /= eps
        # a candidate outside the window never beats the node itself, save
        # by rounding at the window's edge; only then is the mask applied
        if mode == "upper":
            scores = np.subtract(vals[keep].reshape(-1), d4, out=d4)
            best, excluded = np.argmax, -np.inf
        else:
            scores = np.add(vals[keep].reshape(-1), d4, out=d4)
            best, excluded = np.argmin, np.inf
        idx = best(scores, axis=1)
        if far[src, idx].any():
            scores[far] = excluded
            idx = best(scores, axis=1)
        k, j = np.divmod(idx, T)
        out[row] = scores[src, idx]
        wit[row] = keep[k] * T + j
    field = GridField(n=v.n, box=v.box.copy(), values=out.reshape(v.res))
    return EnvelopeResult(
        out=field,
        witness=wit.reshape(v.res),
        eps=eps,
        mode=mode,
        source_min=vmin,
        source_max=vmax,
        kernel_sup=kernel_sup,
    )


# ---------------------------------------------------------------------------
# property checks


@dataclass
class MonotoneReport:
    passed: bool
    mode: str
    eps_list: tuple
    deviations: tuple          # max |envelope - v| per eps
    ordering_ok: bool
    pointwise_violations: int
    deviation_violations: int
    witness: dict | None = None


def check_monotone_convergence(results, v):
    """Monotonicity in eps, nodewise and in sup-deviation.

    ``results`` are envelopes of the source field v, all of one mode, in
    the order to compare.  For decreasing eps the upper envelopes must
    decrease toward v (lower envelopes increase), and the sup-norm
    deviation from v must shrink.  Results not in strictly decreasing eps
    order fail with a witness instead of raising.
    """
    if len(results) < 2:
        raise ValueError("need at least two envelopes")
    modes = {r.mode for r in results}
    if len(modes) != 1:
        raise ValueError(f"envelopes of mixed modes {sorted(modes)}")
    (mode,) = modes
    eps_list = tuple(r.eps for r in results)
    for i in range(len(eps_list) - 1):
        if not eps_list[i] > eps_list[i + 1] > 0:
            return MonotoneReport(
                passed=False,
                mode=mode,
                eps_list=eps_list,
                deviations=(),
                ordering_ok=False,
                pointwise_violations=0,
                deviation_violations=0,
                witness={"index": i, "eps": eps_list[i], "eps_next": eps_list[i + 1]},
            )
    outs = [r.out.values for r in results]
    deviations = tuple(float(np.abs(o - v.values).max()) for o in outs)
    point_bad = 0
    witness = None
    for i in range(len(outs) - 1):
        if mode == "upper":
            bad = outs[i + 1] > outs[i]
        else:
            bad = outs[i + 1] < outs[i]
        if bad.any():
            point_bad += int(bad.sum())
            if witness is None:
                node = np.unravel_index(int(np.argmax(bad)), v.res)
                witness = {
                    "node": tuple(int(k) for k in node),
                    "eps": eps_list[i],
                    "eps_next": eps_list[i + 1],
                    "value": float(outs[i][node]),
                    "value_next": float(outs[i + 1][node]),
                }
    dev_bad = sum(
        1 for i in range(len(deviations) - 1) if deviations[i + 1] > deviations[i]
    )
    return MonotoneReport(
        passed=(point_bad == 0 and dev_bad == 0),
        mode=mode,
        eps_list=eps_list,
        deviations=deviations,
        ordering_ok=True,
        pointwise_violations=point_bad,
        deviation_violations=dev_bad,
        witness=witness,
    )


@dataclass
class SemiconvexReport:
    passed: bool
    mode: str
    eps: float
    kernel_constant: float     # sampled sup of the kernel Hessian norm, inflated
    bound: float               # kernel_constant / eps
    tol: float
    checked: int
    violations: int
    worst: float               # most extreme interior eigenvalue
    worst_node: tuple | None = None


def check_semiconvexity(r):
    """One-sided curvature bound for an envelope result.

    Upper envelopes are maxima of functions whose Euclidean Hessian is
    -(1/eps) times the kernel Hessian, so every FD Hessian eigenvalue on the
    grid must stay above -C/eps (below +C/eps for lower envelopes), where C
    bounds the kernel Hessian norm over node pairs inside the pruning
    window.  C is the search's ``r.kernel_sup``, inflated by 10%.
    """
    g = r.out
    n = g.n
    kernel_constant = 1.1 * r.kernel_sup
    bound = kernel_constant / r.eps
    scale = max(abs(r.source_min), abs(r.source_max))
    tol = 1e-8 * (1.0 + scale)

    H, _ = central_differences(g.values, g.spacing)
    inner_shape = H[0][0].shape
    if H[0][0].size == 0:
        return SemiconvexReport(
            passed=True, mode=r.mode, eps=r.eps, kernel_constant=kernel_constant,
            bound=bound, tol=tol, checked=0, violations=0, worst=0.0,
        )
    lams = spectrum(H).reshape(-1, 2 * n + 1)
    if r.mode == "upper":
        extreme = lams[:, 0]
        bad = extreme < -bound - tol
        worst_i = int(np.argmin(extreme))
    else:
        extreme = lams[:, -1]
        bad = extreme > bound + tol
        worst_i = int(np.argmax(extreme))
    node = tuple(int(k) + 1 for k in np.unravel_index(worst_i, inner_shape))
    return SemiconvexReport(
        passed=not bad.any(),
        mode=r.mode,
        eps=r.eps,
        kernel_constant=kernel_constant,
        bound=bound,
        tol=tol,
        checked=int(extreme.size),
        violations=int(bad.sum()),
        worst=float(extreme[worst_i]),
        worst_node=node,
    )


@dataclass
class WitnessReport:
    passed: bool
    mode: str
    eps: float
    checked: int
    identity_violations: int   # nodes where out != v[witness] -+ d^4/eps exactly
    reach_violations: int      # nodes where d^4 exceeds the oscillation budget
    max_reach_slack: float
    witness: dict | None = None


def check_witness_bound(r, v):
    """Optimality identity and reach bound for the argmax witness.

    At every node the output must equal the witness candidate's score
    bit-for-bit, and the witness must lie inside the gauge ball
    d^4 <= eps * (max v - v(xi)) for upper mode (mirrored for lower).
    """
    if r.out.res != v.res or not np.array_equal(r.out.box, v.box):
        raise ValueError("envelope result does not belong to this field")
    n = v.n
    coords = v.coords_full().reshape(-1, 2 * n + 1)
    vals = v.values.reshape(-1)
    wit = r.witness.reshape(-1)
    out = r.out.values.reshape(-1)
    d4 = gauge_quartic(coords, coords[wit], n)
    if r.mode == "upper":
        recomputed = vals[wit] - d4 / r.eps
        budget = r.eps * (r.source_max - vals)
    else:
        recomputed = vals[wit] + d4 / r.eps
        budget = r.eps * (vals - r.source_min)
    ident_bad = recomputed != out
    tol = 1e-9 * r.eps * (1.0 + (r.source_max - r.source_min))
    reach_slack = d4 - budget
    reach_bad = reach_slack > tol
    witness = None
    if ident_bad.any() or reach_bad.any():
        i = int(np.argmax(ident_bad | reach_bad))
        witness = {
            "node": tuple(int(k) for k in np.unravel_index(i, v.res)),
            "witness_node": int(wit[i]),
            "out": float(out[i]),
            "recomputed": float(recomputed[i]),
            "d4": float(d4[i]),
            "budget": float(budget[i]),
        }
    return WitnessReport(
        passed=not (ident_bad.any() or reach_bad.any()),
        mode=r.mode,
        eps=r.eps,
        checked=int(out.size),
        identity_violations=int(ident_bad.sum()),
        reach_violations=int(reach_bad.sum()),
        max_reach_slack=float(reach_slack.max()),
        witness=witness,
    )
