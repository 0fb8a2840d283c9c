"""Sup/inf convolutions of grid fields with the quartic group-gauge kernel.

The upper envelope of a grid field v at parameter eps > 0 is

    v_up(xi) = max over all lattice nodes eta of  v(eta) - (1/eps) d(xi, eta)^4,

where d is the left-invariant gauge distance; the lower envelope mirrors it
with a min and +(1/eps) d^4.  The maximum runs over every node of the grid,
boundary included, and is exact: ties break to the smallest flat node index.

The search is factored over z-rows.  In C order t is the last axis, so node
``zrow * T + k`` sits at (z[zrow], t[k]), and d^4 = |dz|^4 + (dt + shear)^2
where |dz|^2 and the shear depend on the pair of z-rows alone.  They are
computed for a block of source rows against every target row at once,
with the same expressions as ``gauge_quartic``, so every d^4 has the same
bits as a pair-by-pair evaluation.  A block is sized by its work, about
2^14 row pairs and never fewer than T source rows, so a small grid pays
its per-block numpy calls a few times, not once per T rows.

Most target rows cannot hold a node's extremum, and a bound proves it.  Work
in upper orientation, s = v (s = -v for a lower envelope, whose scores are
minus the upper scores of -v, rounded alike).  No score from target row k at
a node of source row r exceeds

    bound[r, k] = max_j s[k, j] - |dz|^4 / eps,

and this holds after rounding: with x^2 >= 0, fl(x^2 + |dz|^4) >= |dz|^4,
and division and subtraction round monotonically.  A row with |dz|^4 >
window lies wholly outside the pruning window d^4 <= eps * (max v - min v)
and gets bound -inf.  Stage 1 scores each source row against its own row
and its in-window row of largest bound, out-of-window candidates masked;
floor[r] is the least over the row's nodes of each node's best there.
Stage 2 scores only the rows with bound >= floor[r].  A dropped row scores
strictly below every node's own best, so it can neither win nor tie, and
values and witnesses are those of the all-pairs search bit for bit.

A pair's d^4 depends on its t-coordinates only through dt, which takes
few distinct values (33 at 17^3, against 289 t-pairs).  Stage 2 therefore
computes the table q[k, s] = ((steps[s] + shear_k)^2 + |dz_k|^4) / eps
over kept row pairs k and the distinct dt values steps[s], by the same
operations as a pair-by-pair evaluation and so with the same bits, and
fills a source row's candidate block from it with one np.take through a
gather index built once per block.  The kept rows are scored together,
candidates in ascending flat index, so the first best is the smallest
index.  Of the R z-rows, at most cap = min(R, max(T, 2^14 // T)) kept rows
are scored at once, and q covers up to cap kept pairs, which may span
several source rows.  The candidate block then holds at most max(T^3,
2^14 T) floats (5.4 MB at 41^3, where all T N candidates of a source row
would take 23 MB), and q fewer than 2 T cap, a 2/T share of that.  A row
keeping more than cap rows is scored in chunks of cap, and a later chunk's
winner replaces the earlier only when strictly better, which keeps the
smallest index on a tie.  Each source row keeps only the indices of its
winners; the block then maps them to target nodes and scores each winner
again by the same expression, which gives the same bits.

A candidate outside the window scores below min v, hence below the node
itself; only a rounding tie at the window's edge can make one win, and then
that node's out-of-window candidates are masked and its search repeated.
The same blocks record the kernel constant the curvature check needs, a sup
over in-window pairs; a row pair's least d^4 sits at one of the two dt
values that bracket -shear.

The check_* functions verify the properties the regularization argument
rests on: monotonicity and pointwise squeezing in eps, one-sided curvature
bounds (semiconvexity for upper envelopes, semiconcavity for lower) with a
constant sampled from the kernel's own Hessian, and optimality and reach of
the argmax witness.
"""

from dataclasses import dataclass
from functools import reduce

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

# (source, target) z-row pairs in a block of the search
_BLOCK_PAIRS = 1 << 14


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
    """(|dz|^2, shear) of broadcast pairs; both depend on the z-coordinates only.

    Each sum runs over the coordinates left to right, one array pass per
    coordinate.  numpy sums an axis this short left to right too, so the bits
    are those of ``np.square(dz).sum(-1)``, at a fraction of the cost of a
    reduction over a short last axis.
    """
    zs = reduce(np.add, (np.square(a[..., i] - b[..., i]) for i in range(2 * n)))
    shear = 2.0 * (
        reduce(np.add, (a[..., n + i] * b[..., i] for i in range(n)))
        - reduce(np.add, (a[..., i] * b[..., n + i] for i in range(n)))
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


# at a tiny eps, d^4/eps passes the float range: inf, the score of a candidate
# that never wins
@np.errstate(over="ignore")
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
    # the distinct dt values, sorted, and each node pair's among them (not
    # np.unique, whose first call on floats imports numpy.ma); a row pair's
    # least d^4 sits at the two that bracket -shear, since d^4 rounds
    # monotonically in |dt + shear|
    steps = np.sort(dt, axis=None)
    steps = steps[np.concatenate([[True], steps[1:] != steps[:-1]])]
    kinds = np.searchsorted(steps, dt)
    # the row bounds work in upper orientation; a lower score is minus the
    # upper score of -v, with the same rounding
    sv = vals if mode == "upper" else -vals
    row_best = sv.max(axis=1)
    # stage 2 scores at most ``cap`` kept rows of a source row at once, in
    # ``block``, which every row reuses; no row keeps more than the R rows
    cap = min(len(z), max(T, _BLOCK_PAIRS // T))
    block = np.empty(T * cap * T)
    kernel_sup = 0.0
    out = np.empty(vals.shape)
    wit = np.empty(vals.shape, dtype=np.int64)
    src = np.arange(T)
    dt_rows = dt[:, None, :]
    if mode == "upper":
        sign_op, best, beats, excluded = np.subtract, np.ndarray.argmax, np.greater, -np.inf
    else:
        sign_op, best, beats, excluded = np.add, np.ndarray.argmin, np.less, np.inf
    # about _BLOCK_PAIRS row pairs a block, never fewer than T source rows:
    # from 2^14 nodes (41^3, say) up, a block is exactly T source rows
    size = max(T, _BLOCK_PAIRS // len(z))
    for start in range(0, len(z), size):
        # entry [b, k]: source row rows[b] against target row k
        rows = np.arange(start, min(start + size, len(z)))
        zs, shear = _z_parts(z[rows, None], z[None], n)
        zs2 = zs * zs
        at = np.searchsorted(steps, -shear)
        least = np.minimum(
            np.square(steps[np.maximum(at - 1, 0)] + shear),
            np.square(steps[np.minimum(at, len(steps) - 1)] + shear),
        ) + zs2
        kernel_sup = max(kernel_sup, float((12.0 * zs + shear_part)[least <= window].max()))
        # d^4 >= |dz|^4, so no score from row k beats bound[b, k]; a row with
        # |dz|^4 > window is all outside the window and gets -inf
        bound = row_best - np.where(zs2 <= window, zs2, np.inf) / eps
        # stage 1: each node's best over its own row and the row of largest
        # bound, out-of-window candidates masked; floor[b] is the least of
        # those bests over the source row, and no node's best is below it;
        # the own row alone, or min sv[row], gives a floor that keeps two to
        # five times the rows at eps 5
        pair = np.stack([rows, bound.argmax(axis=1)], axis=1)
        d4 = np.square(dt_rows + np.take_along_axis(shear, pair, 1)[:, None, :, None])
        d4 += np.take_along_axis(zs2, pair, 1)[:, None, :, None]
        far = d4 > window
        d4 /= eps
        scores = np.subtract(sv[pair][:, None], d4, out=d4)
        scores[far] = -np.inf
        floor = scores.reshape(len(rows), T, -1).max(axis=2).min(axis=1)
        # stage 2: a row with bound < floor scores strictly below every
        # node's best; the rest are scored together, candidates in
        # ascending flat index, so the first best is the smallest index.
        # Source row b keeps target rows kept_rows[offsets[b]:offsets[b + 1]]
        # and records only its winners' indices among its candidates; the
        # block's winners are finished together below
        kept = bound >= floor[:, None]
        # a boolean index takes the kept pairs in the order of np.nonzero
        kept_rows = np.nonzero(kept)[1]
        kept_shear = shear[kept][:, None]
        kept_zs2 = zs2[kept][:, None]
        counts = kept.sum(axis=1)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        # gather[i, k, j] is the flat index of (k, kinds[i, j]) in a table q
        # whose row k holds d^4/eps of a kept pair at each distinct dt
        width = min(cap, int(counts.max()))
        gather = np.arange(0, width * len(steps), len(steps))[:, None] + kinds[:, None, :]
        won_at = np.empty((len(rows), T), dtype=np.int64)
        cuts = offsets.tolist()
        # q[k, s]: d^4/eps of kept pair q_lo + k at steps[s], for up to cap
        # kept pairs, which may span several source rows
        q_lo = q_hi = 0
        for b, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
            for c in range(lo, hi, cap):
                e = min(hi, c + cap)
                if e > q_hi:
                    q_lo, q_hi = c, min(c + cap, cuts[-1])
                    q = np.add(steps, kept_shear[q_lo:q_hi])
                    np.square(q, out=q)
                    q += kept_zs2[q_lo:q_hi]
                    q /= eps
                # d4[i, k, j]: node (rows[b], i) against node (kept_rows[c + k], j);
                # every index is in range, and mode "clip" writes d4 in place
                # where "raise" would fill a copy first
                d4 = block[: T * (e - c) * T].reshape(T, e - c, T)
                q[c - q_lo : e - q_lo].take(gather[:, : e - c], out=d4, mode="clip")
                scores = sign_op(vals[kept_rows[c:e]], d4, out=d4).reshape(T, -1)
                if c == lo:
                    best(scores, axis=1, out=won_at[b])
                    if e < hi:
                        top = scores[src, won_at[b]]
                    continue
                # a later chunk's winner replaces the earlier only when
                # strictly better, so the first best is still the smallest index
                idx = best(scores, axis=1)
                new = scores[src, idx]
                gain = beats(new, top)
                won_at[b, gain] = idx[gain] + (c - lo) * T
                top[gain] = new[gain]
        won_k, won_col = np.divmod(won_at, T)
        won_row = kept_rows[offsets[:-1, None] + won_k]
        at = np.arange(len(rows))[:, None]
        d4 = np.square(dt[src, won_col] + shear[at, won_row]) + zs2[at, won_row]
        # a candidate outside the window never beats the node itself, save
        # by rounding at the window's edge; only then is that node's row
        # scored again with its out-of-window candidates masked
        for b, i in zip(*np.nonzero(d4 > window)):
            keep = kept_rows[offsets[b] : offsets[b + 1]]
            cand = (np.square(dt[i] + shear[b, keep, None]) + zs2[b, keep, None]).reshape(-1)
            scores = sign_op(vals[keep].reshape(-1), cand / eps)
            idx = int(best(np.where(cand > window, excluded, scores)))
            k, won_col[b, i] = divmod(idx, T)
            won_row[b, i] = keep[k]
            d4[b, i] = cand[idx]
        # each winner's score again, by the expression that scored it
        out[rows] = sign_op(vals[won_row, won_col], d4 / eps)
        wit[rows] = won_row * T + won_col
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


# at a huge eps, the reach budget eps * (max v - v) passes the float range:
# inf, a bound every witness meets
@np.errstate(over="ignore")
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
