"""Heisenberg group arithmetic and left-invariant horizontal calculus.

Points of the group live in R^n x R^n x R with coordinates (x, y, t) and
product

    (x, y, t) o (x', y', t') = (x + x', y + y', t + t' + 2 sum_i (y_i x'_i - x_i y'_i)),

inverse -(x, y, t), anisotropic dilations (l x, l y, l^2 t), homogeneous
gauge (|z|^4 + t^2)^(1/4) with z = (x, y), and left-invariant distance
dist(p, q) = gauge(q^-1 o p).

The horizontal frame is

    X_j = d/dx_j + 2 y_j d/dt,      Y_j = d/dy_j - 2 x_j d/dt,

ordered (X_1..X_n, Y_1..Y_n).  Horizontal second derivatives follow from
Euclidean second-order jets by the chain rule: with B the 2n x (2n+1)
frame-coefficient matrix at the base point and H the Euclidean Hessian,

    full horizontal Hessian  = B H B^T + 2 (du/dt) J,

where the entry at (row i, col j) is V_j V_i u and J is the block matrix
[[0, I], [-I, 0]].  Only the antisymmetric part 4 (du/dt) J depends on the
frame ordering; the symmetrized Hessian is B H B^T.

Every point is a flat coordinate array: its last axis has length 2n+1,
ordered (x_1..x_n, y_1..y_n, t), and n is read from that length.  The
group functions broadcast over the leading axes, so one call handles one
point or a whole sample; two-point functions refuse operands of different
n.  The calculus functions take one base point and a :class:`Jet2`.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Jet2",
    "group_mul",
    "group_inv",
    "gauge",
    "dist",
    "dilate",
    "left_difference",
    "frame_t_coefficients",
    "frame_matrix",
    "j_matrix",
    "horizontal_gradient",
    "heis_hessian",
    "heis_hessian_sym",
]


def _flat(coords):
    """Float array of flat coordinates and the n its last axis holds."""
    coords = np.asarray(coords, dtype=float)
    d = coords.shape[-1] if coords.ndim else 0
    if d < 3 or d % 2 == 0:
        raise ValueError(f"flat coordinates need 2n+1 >= 3 entries on the last axis, got {d}")
    return coords, (d - 1) // 2


def _pair(a, b):
    a, n = _flat(a)
    b, m = _flat(b)
    if n != m:
        raise ValueError(f"dimension mismatch: n={n} vs n={m}")
    return a, b, n


# -- group operations


def group_mul(a, b):
    """Group product a o b."""
    a, b, n = _pair(a, b)
    ax, ay, at = a[..., :n], a[..., n : 2 * n], a[..., 2 * n]
    bx, by, bt = b[..., :n], b[..., n : 2 * n], b[..., 2 * n]
    twist = 2.0 * np.sum(ay * bx - ax * by, axis=-1)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=float)
    out[..., :n] = ax + bx
    out[..., n : 2 * n] = ay + by
    out[..., 2 * n] = at + bt + twist
    return out


def group_inv(a):
    """Group inverse -a."""
    return -_flat(a)[0]


def left_difference(eta, xi):
    """eta^-1 o xi.

    Expanding the product gives
    (x - x', y - y', t - t' + 2 sum_i (x'_i y_i - y'_i x_i))
    with (x, y, t) = xi and (x', y', t') = eta.
    """
    eta, xi, n = _pair(eta, xi)
    dx = xi[..., :n] - eta[..., :n]
    dy = xi[..., n : 2 * n] - eta[..., n : 2 * n]
    twist = 2.0 * np.sum(
        eta[..., :n] * xi[..., n : 2 * n] - eta[..., n : 2 * n] * xi[..., :n], axis=-1
    )
    out = np.empty(np.broadcast_shapes(xi.shape, eta.shape), dtype=float)
    out[..., :n] = dx
    out[..., n : 2 * n] = dy
    out[..., 2 * n] = xi[..., 2 * n] - eta[..., 2 * n] + twist
    return out


_TINY = np.finfo(float).tiny


def gauge(a):
    """Homogeneous gauge (|z|^4 + t^2)^(1/4).

    |z|^4 + t^2 leaves the float range long before the gauge does: it
    overflows once a coordinate passes about 1e77 (|t| 1e154) and underflows
    below about 1e-77.  Only there is the point first dilated to unit size,
    by gauge(dilate(lam, a)) = lam gauge(a); elsewhere the plain formula
    stands, bit for bit.
    """
    a, n = _flat(a)
    quartic = _quartic(a, n)
    lost = (quartic == np.inf) | (quartic < _TINY)
    if lost.any():
        lost &= np.isfinite(a).all(axis=-1) & a.any(axis=-1)
    if not lost.any():
        return quartic**0.25
    s = np.where(lost, _unit_scale(a, n), 1.0)
    with np.errstate(over="ignore"):   # a gauge past the float range is inf
        return np.where(lost, s * _quartic(_shrink(a, s, n), n) ** 0.25, quartic**0.25)[()]


def dist(a, b):
    """Left-invariant gauge distance gauge(b^-1 o a); symmetric in a, b.

    Where b^-1 o a overflows, both points are first dilated to unit size,
    by dist(dilate(lam, a), dilate(lam, b)) = lam dist(a, b).
    """
    a, b, n = _pair(a, b)
    with np.errstate(over="ignore", invalid="ignore"):
        r = gauge(left_difference(b, a))
    lost = ~np.isfinite(r)
    if lost.any():
        lost &= np.isfinite(a).all(axis=-1) & np.isfinite(b).all(axis=-1)
    if not lost.any():
        return r
    s = np.where(lost, np.maximum(_unit_scale(a, n), _unit_scale(b, n)), 1.0)
    unit = gauge(left_difference(_shrink(b, s, n), _shrink(a, s, n)))
    with np.errstate(over="ignore"):   # a distance past the float range is inf
        return np.where(lost, s * unit, r)[()]


def _quartic(a, n):
    with np.errstate(over="ignore", under="ignore"):
        z2 = np.sum(a[..., : 2 * n] ** 2, axis=-1)
        return z2 * z2 + a[..., 2 * n] ** 2


def _unit_scale(a, n):
    """Per point, the lam > 0 that makes dilate(1/lam, a) of unit size."""
    return np.maximum(np.abs(a[..., : 2 * n]).max(axis=-1), np.sqrt(np.abs(a[..., 2 * n])))


def _shrink(a, s, n):
    """dilate(1/s, a), dividing so that no reciprocal under- or overflows."""
    out = a / s[..., None]
    out[..., 2 * n] /= s
    return out


def dilate(lam, a):
    """Anisotropic dilation (lam x, lam y, lam^2 t); ``lam`` broadcasts
    against the leading axes of ``a``."""
    a, n = _flat(a)
    lam = np.asarray(lam, dtype=float)[..., None]
    out = lam * a
    out[..., 2 * n] = (lam * lam)[..., 0] * a[..., 2 * n]
    return out


# -- horizontal calculus from Euclidean second-order jets


@dataclass(frozen=True)
class Jet2:
    """Euclidean second-order jet (value, gradient, Hessian) in the flat layout.

    The Hessian is validated to be symmetric up to a relative tolerance and
    stored exactly symmetrized, so downstream linear algebra never sees an
    asymmetric matrix.
    """

    value: float
    egrad: np.ndarray
    ehess: np.ndarray
    sym_tol: float = 1e-12

    def __post_init__(self):
        value = float(self.value)
        g = np.asarray(self.egrad, dtype=float)
        h = np.asarray(self.ehess, dtype=float)
        if g.ndim != 1 or g.shape[0] % 2 != 1:
            raise ValueError("gradient must be a flat vector of odd length 2n+1")
        d = g.shape[0]
        if h.shape != (d, d):
            raise ValueError(f"Hessian must have shape ({d}, {d}), got {h.shape}")
        if not (np.isfinite(value) and np.all(np.isfinite(g)) and np.all(np.isfinite(h))):
            raise ValueError("jet entries must be finite")
        scale = 1.0 + float(np.abs(h).max(initial=0.0))
        if float(np.abs(h - h.T).max(initial=0.0)) > self.sym_tol * scale:
            raise ValueError("Hessian asymmetry exceeds tolerance")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "egrad", g)
        object.__setattr__(self, "ehess", 0.5 * (h + h.T))

    @property
    def n(self):
        return (self.egrad.shape[0] - 1) // 2


def j_matrix(n):
    """Block matrix [[0, I_n], [-I_n, 0]] acting on horizontal vectors."""
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    return J


def frame_t_coefficients(coords):
    """The d/dt coefficients c = (2 y_1..2 y_n, -2 x_1..-2 x_n) of the frame.

    The result has 2n entries on its last axis.  This is the last column
    of :func:`frame_matrix`.
    """
    coords, n = _flat(coords)
    return np.concatenate([2.0 * coords[..., n : 2 * n], -2.0 * coords[..., :n]], axis=-1)


def frame_matrix(at):
    """Coefficients of the horizontal frame in Euclidean coordinates.

    Row i < n carries X_{i+1} = e_{x_{i+1}} + 2 y_{i+1} e_t and row n + i
    carries Y_{i+1} = e_{y_{i+1}} - 2 x_{i+1} e_t; shape (..., 2n, 2n+1).
    """
    at, n = _flat(at)
    B = np.zeros(at.shape[:-1] + (2 * n, 2 * n + 1))
    B[..., : 2 * n] = np.eye(2 * n)
    B[..., 2 * n] = frame_t_coefficients(at)
    return B


def _jet_frame(jet, at):
    """Frame matrix at ``at``, checked against the jet's n."""
    if np.shape(at) != (2 * jet.n + 1,):
        raise ValueError(f"expected one point with {2 * jet.n + 1} coordinates, got shape {np.shape(at)}")
    return frame_matrix(at)


def horizontal_gradient(jet, at):
    """Frame derivatives (X_1 u .. X_n u, Y_1 u .. Y_n u) at the base point."""
    return _jet_frame(jet, at) @ jet.egrad


def heis_hessian(jet, at):
    """Full horizontal Hessian; entry (i, j) is V_j V_i u in frame order."""
    return heis_hessian_sym(jet, at) + 2.0 * jet.egrad[2 * jet.n] * j_matrix(jet.n)


def heis_hessian_sym(jet, at):
    """Symmetrized horizontal Hessian B H B^T (the frame-order-free part)."""
    B = _jet_frame(jet, at)
    return B @ jet.ehess @ B.T
