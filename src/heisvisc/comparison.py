"""Strict perturbations and the ordered-pair touching harness.

Two ingredients of comparison arguments live here.  The first is a family
of explicit perturbations that push a candidate solution strictly up or
down while the operator moves by a controlled amount; ``margin_pencil``
builds the numerical certificate of that control, node by node, and
``largest_couplings`` searches for the largest admissible coupling
constant of several certificates at once: their gain searches run in
lockstep, one eigenvalue call per step for all of them, each with its own
bracket and so its own answer bit for bit.  The second is
``touching_harness``, which takes an ordered pair of grid fields and
reports whether their contact set is confined to the boundary, the
discrete shadow of a comparison principle.  The contact set splits into
components under face adjacency (nodes one lattice step apart along one
axis); each component is named by its smallest flat (C-order) index, and
the report lists them in that order, the order in which a raster scan
first meets them.

The perturbation is the one of the paper's Lemma 3.5,
psi +- mu*(exp(alpha*|z|^2) + exp(-beta*psi) - tau), under fixed
constants: alpha = 0.1, beta = 3, M = 1/2 (the bound on |psi|),
mu0 = 0.45/(beta*exp(beta*M)), mu = mu0/2 and tau = 1.  They were found
by a parameter search on [-1, 1]^3 and meet the lemma's hypotheses
0 < mu < mu0, 0 < alpha < 1, beta > 0, M > 0 and
mu0*beta*exp(beta*M) <= 1/2.  The lemma35 suite, the one program that
builds the perturbation, certifies it at these values and no other, so
they are module constants rather than settings.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .cones import entries, spectrum
from .fields import AnalyticField, Const, exp_of, z_norm_sq
from .operators import eval_F
from .viscosity import classify_grid

__all__ = [
    "TouchingComponent",
    "TouchingReport",
    "perturb_up",
    "perturb_down",
    "admissible_region_mask",
    "MarginPencil",
    "margin_pencil",
    "largest_couplings",
    "touching_harness",
]


# the Lemma 3.5 constants (see the module docstring)
_ALPHA, _BETA, _M = 0.1, 3.0, 0.5
_MU0 = 0.45 / (_BETA * math.exp(_BETA * _M))
_MU = 0.5 * _MU0
_TAU = 1.0


def _bump_node(psi):
    # exp(alpha*|z|^2) + exp(-beta*psi) - tau as a syntax tree over psi's vars
    radial = exp_of(Const(_ALPHA) * z_norm_sq(psi.n))
    damped = exp_of(Const(-_BETA) * psi.root)
    return radial + damped - Const(_TAU)


def perturb_up(psi):
    """psi + mu*(exp(alpha*|z|^2) + exp(-beta*psi) - tau) as an exact field."""
    root = psi.root + Const(_MU) * _bump_node(psi)
    return AnalyticField(root, psi.n, psi.extra_vars)


def perturb_down(psi):
    """Mirror of :func:`perturb_up`: the bump is subtracted instead."""
    root = psi.root - Const(_MU) * _bump_node(psi)
    return AnalyticField(root, psi.n, psi.extra_vars)


def admissible_region_mask(psi, nodes):
    """Boolean mask of nodes where the margin check applies.

    Keeps the nodes with |psi| <= M; outside that region the perturbation
    family makes no promises.  The bump needs no bound of its own: with
    tau = 1 it is at least exp(-beta*psi) > 0 at every node.
    """
    vals = np.atleast_1d(np.asarray(psi(np.asarray(nodes, dtype=float)), dtype=float))
    return np.abs(vals) <= _M


def _margin_matrices(psi, spec, nodes, mode):
    """Per-node pencil (A, B): the margin at coupling c is lambda_min(A - mu*c*B)."""
    tilde = perturb_up(psi) if mode == "up" else perturb_down(psi)
    sign = 1.0 if mode == "up" else -1.0
    F, g = eval_F(spec, psi, nodes)
    F_tilde, _ = eval_F(spec, tilde, nodes)
    weight = 1.0 - sign * _MU * _BETA * np.exp(-_BETA * psi(nodes))
    A = sign * (F_tilde - weight[..., None, None] * F)
    growth = 1.0 + np.sum(g * g, axis=-1)
    B = growth[:, None, None] * np.eye(g.shape[-1]) + g[:, :, None] * g[:, None, :]
    return A, B


@dataclass(frozen=True)
class MarginPencil:
    """The operator-control check of one perturbed field, built once.

    ``A`` and ``B`` are the per-node pencil in entry view (entry (i, j) of
    every node's matrix at once): the margin at coupling constant c is
    lambda_min(A - mu*c*B), node by node, with mu the module's perturbation
    size.  ``tol`` is the slack a passing margin may fall below zero.
    """

    A: np.ndarray
    B: np.ndarray
    tol: float
    node_count: int

    def margins(self, c):
        """Per-node margins at coupling constant ``c``."""
        return spectrum(self.A - (_MU * c) * self.B)[:, 0]


def margin_pencil(psi, spec, nodes, mode="up"):
    """Build the operator-control check of the perturbed field on sampled nodes.

    For ``mode="up"`` the check is that the operator of the raised field
    dominates (1 - mu*beta*exp(-beta*psi)) times the original operator up
    to the gradient-shaped correction mu*K0*((1+|grad_H psi|^2)I +
    grad_H psi x grad_H psi); ``mode="down"`` mirrors the inequality for
    the lowered field.  Nodes outside the admissible region are dropped;
    an empty remainder is an error, not a vacuous pass.  The pencil answers
    for every coupling constant K0 (see :meth:`MarginPencil.margins` and
    :func:`largest_couplings`).

    The symmetry of A and B is checked once, not at each coupling tried.
    Both are exactly symmetric by construction:
    :func:`heisvisc.operators.contract` returns one array object for F_ij
    and F_ji, and g_i g_j = g_j g_i.  So every A - mu*c*B is exactly
    symmetric too, and :func:`heisvisc.cones.spectrum` on its entry view
    gives the eigenvalues :func:`heisvisc.cones.eigenvalues` would.
    """
    if mode not in ("up", "down"):
        raise ValueError(f"mode must be 'up' or 'down', got {mode!r}")
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim == 1:
        nodes = nodes[None, :]
    nodes = nodes[admissible_region_mask(psi, nodes)]
    if nodes.shape[0] == 0:
        raise ValueError("no nodes fall in the admissible region {|psi|<=M}")

    A, B = _margin_matrices(psi, spec, nodes, mode)
    tol = 1e-8 * (1.0 + float(np.abs(A).max(initial=0.0)))
    return MarginPencil(A=entries(A), B=entries(B), tol=float(tol),
                        node_count=int(nodes.shape[0]))


def largest_couplings(pencils):
    """The largest passing coupling constant of each pencil, searched in lockstep.

    A pencil that fails at c = 0 gets 0.0.  Each other pencil doubles c
    from 1 while its least margin passes (stopping past 1e12), then bisects
    [0, c] 60 times and gets the last passing midpoint.  Every pencil runs
    its own search with its own ``lo``/``hi``, so it tries the couplings it
    would try alone and gets the same value bit for bit; but one step tries
    each pencil's next coupling in a single :func:`heisvisc.cones.spectrum`
    call over all their nodes, and a pencil whose search is over keeps
    riding along until the last one ends.
    """
    A = np.concatenate([pc.A for pc in pencils], axis=-1)
    B = np.concatenate([pc.B for pc in pencils], axis=-1)
    sizes = [pc.node_count for pc in pencils]
    case = np.repeat(np.arange(len(pencils)), sizes)
    starts = np.cumsum([0] + sizes[:-1])
    tol = np.array([pc.tol for pc in pencils])

    def least(c):
        # each pencil's least margin at its own coupling c[i]
        return np.minimum.reduceat(spectrum(A - (_MU * c)[case] * B)[:, 0], starts)

    searching = ~(least(np.zeros(len(pencils))) < -tol)
    lo, hi = np.zeros(len(pencils)), np.ones(len(pencils))
    doubling = searching.copy()
    left = np.where(searching, 60, 0)
    while left.any():
        bisecting = (left > 0) & ~doubling
        trial = np.where(doubling, hi, 0.5 * (lo + hi))
        ok = least(trial) >= -tol
        lo = np.where(bisecting & ok, trial, lo)
        hi = np.where(bisecting & ~ok, trial, hi)
        left -= bisecting
        hi = np.where(doubling & ok, 2.0 * hi, hi)
        doubling &= ok & (hi <= 1e12)
    return [float(x) for x in lo]


@dataclass
class TouchingComponent:
    size: int
    touches_boundary: bool


@dataclass
class TouchingReport:
    """Where an ordered pair of grid fields meets, and whether that is legal.

    The verdict is CONSISTENT exactly when every connected component of
    the near-contact set {w - v <= touch_tol} reaches the boundary; an
    island of contact in the interior is the discrete signature of a
    comparison failure.  Classifications of the pair are attached for
    inspection but do not influence the verdict.
    """

    boundary_gap: float
    touch_tol: float
    touching_count: int
    components: list
    verdict: str
    precondition_ok: bool
    min_difference: float
    sub_counts: dict
    super_counts: dict

    def to_dict(self):
        """The report's JSON payload (:func:`heisvisc.gridio.json_text` writes it)."""
        return {
            "boundary_gap": self.boundary_gap,
            "touching_count": self.touching_count,
            "components": [asdict(c) for c in self.components],
            "verdict": self.verdict,
        }


def _components(mask):
    """Face-connected components of a boolean lattice mask.

    Returns an int array of the mask's shape holding, at each mask node,
    the smallest flat (C-order) index in its component, and -1 off the
    mask.  Every node starts at its own index and takes the minimum over
    its face neighbours in the mask, one axis at a time, then jumps to the
    label of the node its label names; that repeats until nothing changes.
    """
    flat = np.arange(mask.size)
    labels = flat.reshape(mask.shape)
    edges = []
    for axis in range(mask.ndim):
        row = np.moveaxis(mask, axis, 0)
        edges.append(row[1:] & row[:-1])
    on = np.flatnonzero(mask)
    while True:
        before = flat[on]
        for axis, edge in enumerate(edges):
            row = np.moveaxis(labels, axis, 0)
            np.minimum(row[1:], row[:-1], out=row[1:], where=edge)
            np.minimum(row[:-1], row[1:], out=row[:-1], where=edge)
        flat[on] = flat[flat[on]]
        if np.array_equal(flat[on], before):
            break
    flat[~mask.ravel()] = -1
    return labels


def touching_harness(w, v, spec, cone):
    """Compare supersolution candidate ``w`` against subsolution candidate ``v``.

    Both fields must share a lattice.  Requires w >= v nodewise (reported,
    not raised), measures the smallest boundary gap, labels the connected
    components of the near-contact set under face adjacency, and checks
    each component for boundary contact.
    """
    if w.n != v.n or w.res != v.res or not np.array_equal(w.box, v.box):
        raise ValueError("fields live on different lattices")
    diff = w.values - v.values
    min_diff = float(diff.min())
    sup = float(np.abs(diff).max())
    touch_tol = 1e-9 * (1.0 + sup)

    boundary = w.boundary_mask()
    boundary_gap = float(diff[boundary].min())
    touching = diff <= touch_tol

    labels = _components(touching)
    roots, sizes = np.unique(labels[touching], return_counts=True)
    reach = np.isin(roots, labels[boundary])
    components = [
        TouchingComponent(size=int(size), touches_boundary=bool(hit))
        for size, hit in zip(sizes, reach)
    ]

    verdict = (
        "CONSISTENT"
        if all(c.touches_boundary for c in components)
        else "VIOLATION"
    )

    sub = classify_grid(v, spec, cone, side="sub")
    sup_cls = classify_grid(w, spec, cone, side="super")
    return TouchingReport(
        boundary_gap=boundary_gap,
        touch_tol=float(touch_tol),
        touching_count=int(touching.sum()),
        components=components,
        verdict=verdict,
        precondition_ok=min_diff >= 0.0,
        min_difference=min_diff,
        sub_counts=dict(sub.counts),
        super_counts=dict(sup_cls.counts),
    )
