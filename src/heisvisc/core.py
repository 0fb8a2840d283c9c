"""Heisenberg group arithmetic and the coefficients of the horizontal frame.

Points of the group live in R^n x R^n x R with coordinates (x, y, t) and
product

    (x, y, t) o (x', y', t') = (x + x', y + y', t + t' + 2 sum_i (y_i x'_i - x_i y'_i)),

inverse -(x, y, t), anisotropic dilations (l x, l y, l^2 t), homogeneous
gauge (|z|^4 + t^2)^(1/4) with z = (x, y), and left-invariant distance
dist(p, q) = gauge(q^-1 o p).

The horizontal frame is

    X_j = d/dx_j + 2 y_j d/dt,      Y_j = d/dy_j - 2 x_j d/dt,

ordered (X_1..X_n, Y_1..Y_n), so the i-th field is V_i = d/dz_i + c_i d/dt
with c = :func:`frame_t_coefficients`.  Horizontal derivatives follow from
Euclidean ones by the chain rule; :func:`heisvisc.operators.contract` is
the one place that applies it.  The full horizontal Hessian V_j V_i u is
its symmetric contraction plus (du/dt) d_j c_i, whose antisymmetric part is
4 (du/dt) J with J the block matrix [[0, I], [-I, 0]].

Every point is a flat coordinate array: its last axis has length 2n+1,
ordered (x_1..x_n, y_1..y_n, t), and n is read from that length.  The
group functions broadcast over the leading axes, so one call handles one
point or a whole sample; two-point functions refuse operands of different
n.
"""

import numpy as np

__all__ = [
    "group_mul",
    "group_inv",
    "gauge",
    "dist",
    "dilate",
    "frame_t_coefficients",
    "j_matrix",
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
        r = gauge(group_mul(group_inv(b), a))
    lost = ~np.isfinite(r)
    if lost.any():
        lost &= np.isfinite(a).all(axis=-1) & np.isfinite(b).all(axis=-1)
    if not lost.any():
        return r
    s = np.where(lost, np.maximum(_unit_scale(a, n), _unit_scale(b, n)), 1.0)
    unit = gauge(group_mul(group_inv(_shrink(b, s, n)), _shrink(a, s, n)))
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


# -- the horizontal frame


def j_matrix(n):
    """Block matrix [[0, I_n], [-I_n, 0]] acting on horizontal vectors."""
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    return J


def frame_t_coefficients(coords):
    """The d/dt coefficients c = (2 y_1..2 y_n, -2 x_1..-2 x_n) of the frame.

    The result has 2n entries on its last axis: entry i is the d/dt
    coefficient of the i-th frame field.
    """
    coords, n = _flat(coords)
    return np.concatenate([2.0 * coords[..., n : 2 * n], -2.0 * coords[..., :n]], axis=-1)
